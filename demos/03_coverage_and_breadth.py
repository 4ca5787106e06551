"""
Coverage, effort, and breadth
=============================

Coverage counts unique taxonomy paths touched by at least one mapped task,
over the full path count of the tree. Effort counts (example, node)
incidences at each tree's grouping level (families for the domain tree,
leaves for the skill tree): an example that reaches a family through three
different paths still counts once for that family. Breadth asks the
per-example question: how many distinct families (or distinct granular
skills) does one task involve?
"""

from workatlas import (
    KeywordAnnotator,
    breadth,
    coverage,
    effort_by_node,
    load_taxonomy,
    map_corpus,
)
from workatlas.io import fixture_path, read_examples

domain = load_taxonomy(fixture_path("taxonomy_domain.json"))
skill = load_taxonomy(fixture_path("taxonomy_skill.json"))
examples = read_examples(fixture_path("examples.jsonl"))

domain_results = map_corpus(
    examples, domain, KeywordAnnotator.from_file(fixture_path("keyword_rules_domain.json")))
skill_results = map_corpus(
    examples, skill, KeywordAnnotator.from_file(fixture_path("keyword_rules_skill.json")))

report = coverage(domain_results, domain)
print(f"pooled domain coverage: {len(report.covered_paths)}/{report.total_paths}"
      f" = {report.coverage:.1%}")
for bench, fraction in report.per_benchmark.items():
    print(f"  {bench:10s} {fraction:.1%}  (same full-tree denominator)")

skill_report = coverage(skill_results, skill)
print(f"pooled skill coverage:  {len(skill_report.covered_paths)}/"
      f"{skill_report.total_paths} = {skill_report.coverage:.1%}")

# Effort: where does benchmark attention actually land?
effort = effort_by_node(domain_results, domain)
print("\neffort per job family (one increment per example per family):")
for node_id, count in effort.counts.items():
    share = effort.shares()[node_id]
    print(f"  {effort.labels[node_id]:40s} {count:3d}  ({share:.1%})")

# Breadth: how many families does a single task span?
stats = breadth(domain_results, domain)
print("\ndomain breadth histogram:", stats.histogram)
print(f"  exactly one family: {stats.share_exactly_one:.1%}")
print(f"  more than one:      {stats.share_more_than_one:.1%}")
print(f"  unmapped (zero):    {stats.share_zero:.1%}")

skill_stats = breadth(skill_results, skill)
print("\nskill breadth histogram:", skill_stats.histogram)
print(f"  single skill: {skill_stats.share_exactly_one:.1%};"
      f" four or more: {skill_stats.share_four_or_more:.1%}")

# Conservation: total incidences equal summed per-example breadth.
assert effort.total_incidences == sum(stats.per_example.values())
