"""
Comparing benchmark effort with the labor market
================================================

Occupation rows (SOC code, employment, median wage) join onto the domain
tree through its occupation-layer annotations and roll up to families:
employment as a head-count sum, capital as wage times employment. Skill
figures weight each occupation by normalized activity importance, giving
relative importance weights rather than head-counts. Putting benchmark
effort shares next to these shares exposes where agent evaluation is
over- or under-invested.
"""

from workatlas import (
    KeywordAnnotator,
    WorkMode,
    alignment_report,
    digital_share,
    domain_employment_capital,
    effective_skill_employment_capital,
    effort_by_node,
    label_tasks_digital,
    load_taxonomy,
    map_corpus,
)
from workatlas.io import (
    fixture_path,
    read_digital_labels,
    read_examples,
    read_importance,
    read_occupations,
)

domain = load_taxonomy(fixture_path("taxonomy_domain.json"))
skill = load_taxonomy(fixture_path("taxonomy_skill.json"))
occupations = read_occupations(fixture_path("occupations.csv"))

family = domain_employment_capital(occupations, domain)
print("family economics:")
for row in family.rows:
    print(f"  {row.label:40s} employment {row.employment:>9,.0f}"
          f"  capital {row.capital:>16,.0f}")

importance = read_importance(fixture_path("importance.csv"))
skill_econ = effective_skill_employment_capital(occupations, importance, skill)
print("\ntop skill leaves by effective employment (importance weights, not head-counts):")
leaves = sorted(skill_econ.leaf_rows(), key=lambda r: -r.effective_employment)
for row in leaves[:4]:
    print(f"  {row.label:55s} {row.effective_employment:>9,.0f}")

# Digital versus physical work, from per-task labels. The bundled labels
# were produced once and stored; labeling is repeatable with any annotator
# that answers DIGITAL or PHYSICAL.
labels = read_digital_labels(fixture_path("digital_labels.csv"))
digital = digital_share(labels, occupations, domain)
print("\ndigital share per family (employment-weighted / unweighted):")
for row in digital.family_rows:
    print(f"  {row.label:40s} {row.digital_fraction:.1%} / "
          f"{row.digital_fraction_unweighted:.1%}")


class TinyClassifier:
    """Stand-in annotator: desk work is digital, physical verbs are not."""

    annotator_id = "demo-classifier"

    def annotate(self, instruction, taxonomy_text):
        physical = any(w in instruction for w in ("greet", "carry", "lift"))
        return "PHYSICAL in-person work." if physical else "DIGITAL screen work."


fresh = label_tasks_digital(
    [("43-4171", "greet visitors at the desk"), ("43-4171", "maintain the shared calendar")],
    TinyClassifier(),
)
print("\nfreshly labeled:",
      {l.task_text: l.label.value for l in fresh.labels},
      "unlabeled:", fresh.unlabeled)
assert fresh.labels[0].label is WorkMode.PHYSICAL

# Alignment: benchmark effort share versus employment/capital shares.
examples = read_examples(fixture_path("examples.jsonl"))
results = map_corpus(
    examples, domain, KeywordAnnotator.from_file(fixture_path("keyword_rules_domain.json")))
effort = effort_by_node(results, domain)
report = alignment_report(effort, family, digital)
print("\nalignment (effort share vs employment share; ratio > 1 means over-invested):")
for row in report.rows:
    print(f"  {row.label:40s} effort {row.effort_share:.1%}"
          f"  employment {row.employment_share:.1%}"
          f"  ratio {row.effort_to_employment_ratio:.2f}")
