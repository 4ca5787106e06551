"""
Coverage-aware sampling with a saturation stop
==============================================

Large homogeneous benchmarks waste annotation budget: after a while new
tasks stop reaching new taxonomy paths. The sampler consumes a shuffled
pool in batches of five and stops after the first batch that gains less
than 0.1 percentage points of coverage on both trees.

A permutation replay then shows how sensitive the stop point is to task
ordering, and a Chao1 estimate extrapolates how many distinct paths the
pool likely holds beyond the observed ones.
"""

from workatlas import (
    KeywordAnnotator,
    build_pool,
    chao1,
    load_taxonomy,
    map_corpus,
    permutation_sensitivity,
    sample_until_saturation,
)
from workatlas.io import fixture_path, read_examples
from workatlas.taxonomy import TaxonomyKind

domain = load_taxonomy(fixture_path("taxonomy_domain.json"))
skill = load_taxonomy(fixture_path("taxonomy_skill.json"))
examples = read_examples(fixture_path("examples.jsonl"))
results = map_corpus(
    examples, domain, KeywordAnnotator.from_file(fixture_path("keyword_rules_domain.json"))
) + map_corpus(
    examples, skill, KeywordAnnotator.from_file(fixture_path("keyword_rules_skill.json"))
)

# Results of both kinds fold into one pool, each example numbered once.
pool = build_pool(results)
print("pool of", len(pool.examples), "examples")

run = sample_until_saturation(pool, domain, skill, batch_size=5, delta=0.1, rng_seed=7)
print(f"stopped after batch {run.stop_batch_index} ({run.stopped_by}),"
      f" {run.stop_size} examples selected")
print("coverage trace per batch:")
for kind in (TaxonomyKind.DOMAIN, TaxonomyKind.SKILL):
    trace = ", ".join(f"{v:.2f}" for v in run.coverage_trace[kind])
    print(f"  {kind.value}: {trace}")

# Replay the rule over 500 random orderings of the same pool.
summary = permutation_sensitivity(pool, domain, skill, batch_size=5, delta=0.1,
                                  permutations=500, rng_seed=7)
stop = summary.stop_size
print(f"\nover {summary.permutations} permutations:"
      f" stop size median {stop.median:.1f},"
      f" 95% interval [{stop.ci_low:.1f}, {stop.ci_high:.1f}]")
for kind, stat in summary.coverage_at_stop.items():
    print(f"  {kind.value} coverage at stop: median {stat.median:.1%}"
          f" [{stat.ci_low:.1%}, {stat.ci_high:.1%}]")

# Chao1 extrapolates richness from how many paths were seen once or twice.
print("\nchao1-estimated distinct paths in the pool:")
for kind, estimate in summary.chao1_richness.items():
    observed = len(frozenset().union(*pool.by_kind[kind].sets))
    print(f"  {kind.value}: observed {observed}, estimated {estimate:.1f}")

# The estimator itself on a toy abundance table: 10 observed species with
# 4 singletons and 2 doubletons extrapolate to 14.
toy = {f"s{i}": 1 for i in range(4)}
toy.update({f"d{i}": 2 for i in range(2)})
toy.update({f"c{i}": 5 for i in range(4)})
print("\ntoy abundance table chao1:", chao1(toy))
