import os
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from workatlas.coverage import MISSING, ForeignPathError, MappingFolder, coverage
from workatlas.sampling import (
    SummaryStat,
    _Sampler,
    build_pool,
    chao1,
    permutation_sensitivity,
    sample_until_saturation,
)
from workatlas.taxonomy import TaxonomyKind

from conftest import fold_units, random_corpus, synthetic_result, synthetic_taxonomy

SRC = str(Path(__file__).resolve().parents[1] / "src")


class TestChao1:
    def test_no_singletons_returns_observed(self):
        assert chao1({"a": 3, "b": 2, "c": 5}) == 3.0

    def test_classic_branch(self):
        # S_obs 10, f1 4, f2 2 -> 10 + 16/4 = 14
        counts = {f"s{i}": 1 for i in range(4)}
        counts.update({f"d{i}": 2 for i in range(2)})
        counts.update({f"m{i}": 7 for i in range(4)})
        assert chao1(counts) == 14.0

    def test_bias_corrected_branch(self):
        # S_obs 5, f1 3, f2 0 -> 5 + 3*2/2 = 8
        counts = {"a": 1, "b": 1, "c": 1, "d": 3, "e": 4}
        assert chao1(counts) == 8.0

    def test_accepts_plain_count_sequence(self):
        assert chao1([1, 1, 1, 3, 4]) == 8.0

    def test_empty_input_is_error(self):
        with pytest.raises(ValueError, match="no observations"):
            chao1({})

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            chao1({"a": 0})

    def test_never_below_observed_richness(self):
        rng = random.Random(40)
        for _ in range(200):
            n = rng.randint(1, 30)
            counts = [rng.randint(1, 6) for _ in range(n)]
            assert chao1(counts) >= n
            if not any(c == 1 for c in counts):
                assert chao1(counts) == n


class TestBuildPool:
    def test_groups_results_by_example(self, domain_results, skill_results):
        pool = build_pool(list(domain_results) + list(skill_results))
        assert len(pool.examples) == 20
        assert set(pool.by_kind) == {TaxonomyKind.DOMAIN, TaxonomyKind.SKILL}
        assert all(fold.ids[0] != MISSING for fold in pool.by_kind.values())

    def test_order_follows_first_appearance(self, domain_results):
        pool = build_pool(domain_results)
        assert list(pool.examples) == [r.key for r in domain_results]


def constructed_pool(taxonomy, batches):
    """Pool whose i-th batch of 5 covers exactly the given leaf sets."""
    units = []
    counter = 0
    for batch in batches:
        leaves = list(batch)
        for i in range(5):
            indices = [leaves[i % len(leaves)]] if leaves else []
            units.append(synthetic_result(taxonomy, f"e{counter}", indices))
            counter += 1
    return units


class TestSampler:
    def test_pool_smaller_than_batch_stops_by_exhaustion(self):
        t = synthetic_taxonomy(10)
        pool = [synthetic_result(t, f"e{i}", [i]) for i in range(3)]
        run = sample_until_saturation(pool, t, None, batch_size=5, delta=0.1)
        assert run.stop_size == 3
        assert run.stopped_by == "exhausted"

    def test_constructed_two_batch_stop(self):
        # batch 1 covers 3 of 10 paths (gain 30 pp), batch 2 adds nothing
        t = synthetic_taxonomy(10)
        pool = constructed_pool(t, [[0, 1, 2], [0, 1, 2]])
        run = sample_until_saturation(pool, t, None, batch_size=5, delta=0.1)
        assert run.stop_batch_index == 2
        assert run.stop_size == 10
        assert run.stopped_by == "saturation"
        assert run.coverage_trace[TaxonomyKind.DOMAIN] == (0.3, 0.3)

    def test_always_consumes_at_least_one_batch(self):
        t = synthetic_taxonomy(10)
        pool = [synthetic_result(t, f"e{i}", []) for i in range(12)]
        run = sample_until_saturation(pool, t, None, batch_size=5, delta=0.1)
        assert run.stop_size == 5
        assert run.stop_batch_index == 1

    def test_stop_requires_both_kinds_below_delta(self):
        td = synthetic_taxonomy(10, kind="domain")
        ts = synthetic_taxonomy(10, kind="skill")
        # domain saturates immediately; skill keeps gaining in batch 2
        units = []
        for i in range(5):
            units.append((("synth", f"a{i}"), {
                TaxonomyKind.DOMAIN: frozenset([next(iter(td.path_index))]),
                TaxonomyKind.SKILL: frozenset(),
            }))
        skill_paths = sorted(ts.path_index, key=str)
        for i in range(5):
            units.append((("synth", f"b{i}"), {
                TaxonomyKind.DOMAIN: frozenset(),
                TaxonomyKind.SKILL: frozenset([skill_paths[i]]),
            }))
        run = sample_until_saturation(fold_units(units), td, ts, batch_size=5, delta=0.1)
        # batch 2 still gains skill coverage, so the rule cannot fire before it
        assert run.stop_size == 10

    def test_stopping_soundness_invariant(self):
        rng = random.Random(77)
        t = synthetic_taxonomy(20)
        for trial in range(20):
            pool = random_corpus(t, rng.randint(5, 60), rng)
            run = sample_until_saturation(pool, t, None, batch_size=5, delta=0.1)
            trace = run.coverage_trace[TaxonomyKind.DOMAIN]
            gains = [
                (trace[i] - (trace[i - 1] if i else 0.0)) * 100 for i in range(len(trace))
            ]
            for gain in gains[:-1]:
                assert gain >= 0.1
            if run.stopped_by == "saturation":
                assert gains[-1] < 0.1

    def test_trace_equals_prefix_coverage(self, domain_results, skill_results,
                                          domain_taxonomy, skill_taxonomy):
        pool = build_pool(list(domain_results) + list(skill_results))
        run = sample_until_saturation(pool, domain_taxonomy, skill_taxonomy,
                                      batch_size=5, delta=0.1)
        selected = list(run.selected)
        domain_by_key = {r.key: r for r in domain_results}
        for batch_end, value in enumerate(run.coverage_trace[TaxonomyKind.DOMAIN]):
            prefix_keys = selected[: (batch_end + 1) * 5]
            prefix = [domain_by_key[k] for k in prefix_keys if k in domain_by_key]
            assert value == coverage(prefix, domain_taxonomy).coverage

    def test_trace_non_decreasing(self, domain_results, domain_taxonomy):
        run = sample_until_saturation(build_pool(domain_results), domain_taxonomy, None)
        trace = run.coverage_trace[TaxonomyKind.DOMAIN]
        assert all(a <= b for a, b in zip(trace, trace[1:]))

    def test_determinism(self, domain_results, skill_results, domain_taxonomy, skill_taxonomy):
        pool = build_pool(list(domain_results) + list(skill_results))
        runs = [
            sample_until_saturation(pool, domain_taxonomy, skill_taxonomy, rng_seed=5)
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_stalled_kind_alone_does_not_stop(self):
        td = synthetic_taxonomy(10, kind="domain")
        ts = synthetic_taxonomy(10, kind="skill")
        skill_paths = sorted(ts.path_index, key=str)
        units = [
            (("synth", f"u{i}"), {
                TaxonomyKind.DOMAIN: frozenset(),
                TaxonomyKind.SKILL: frozenset([skill_paths[i]]),
            })
            for i in range(10)
        ]
        # domain coverage never moves, but skill still gains in both batches
        run = sample_until_saturation(fold_units(units), td, ts, batch_size=5, delta=0.1)
        assert run.stop_size == 10

    def test_parameter_validation(self, domain_taxonomy):
        pool = [synthetic_result(synthetic_taxonomy(3), "e0", [0])]
        with pytest.raises(ValueError, match="batch_size"):
            sample_until_saturation(pool, domain_taxonomy, None, batch_size=0)
        with pytest.raises(ValueError, match="delta"):
            sample_until_saturation(pool, domain_taxonomy, None, delta=0)
        with pytest.raises(ValueError, match="empty"):
            sample_until_saturation([], domain_taxonomy, None)
        with pytest.raises(ValueError, match="taxonomy"):
            sample_until_saturation(pool, None, None)

    @pytest.mark.parametrize("kind", ["domain", "skill"])
    def test_rejects_paths_outside_its_taxonomy(self, kind):
        # the 4-leaf tree holds the 40-leaf tree's first four paths, no other
        wide, narrow = synthetic_taxonomy(40, kind=kind), synthetic_taxonomy(4, kind=kind)
        other = synthetic_taxonomy(4, kind="skill" if kind == "domain" else "domain")
        pool = [synthetic_result(wide, f"e{i}", [i]) for i in range(20)]
        pool += [synthetic_result(other, f"e{i}", [0]) for i in range(20)]

        def pair(t):  # (t_domain, t_skill)
            return (t, other) if kind == "domain" else (other, t)

        named = re.escape(f"{wide.path_for_leaf('leaf-4')} from ('synth', 'e4')")
        for source in (pool, build_pool(pool)):
            with pytest.raises(ForeignPathError, match=named):
                sample_until_saturation(source, *pair(narrow))
            with pytest.raises(ForeignPathError, match=named):
                permutation_sensitivity(source, *pair(narrow), permutations=3, rng_seed=1)
        assert sample_until_saturation(pool, *pair(wide)).coverage_at_stop(wide.kind) <= 1.0


    def test_checks_every_benchmark_of_the_pool(self):
        # benchmark B's paths are outside the 4-leaf tree; A's are inside it
        wide, narrow = synthetic_taxonomy(10), synthetic_taxonomy(4)
        pool = [synthetic_result(wide, f"a{i}", [i], benchmark="A") for i in range(4)]
        pool += [synthetic_result(wide, "b0", [8], benchmark="B")]
        assert permutation_sensitivity(pool[:4], narrow, None, permutations=3,
                                       rng_seed=1, benchmark="A").pool_size == 4
        named = re.escape(f"{wide.path_for_leaf('leaf-8')} from ('B', 'b0')")
        with pytest.raises(ForeignPathError, match=named):
            permutation_sensitivity(pool, narrow, None, permutations=3, rng_seed=1,
                                    benchmark="A")


class TestSensitivity:
    def test_single_batch_pool_is_point_mass(self):
        t = synthetic_taxonomy(6)
        pool = [synthetic_result(t, f"e{i}", [i]) for i in range(4)]
        summary = permutation_sensitivity(pool, t, None, permutations=100, rng_seed=1)
        assert summary.stop_size.median == 4.0
        assert summary.stop_size.ci_low == 4.0
        assert summary.stop_size.ci_high == 4.0
        assert set(summary.stop_sizes) == {4}

    def test_double_run_determinism(self):
        rng = random.Random(9)
        t = synthetic_taxonomy(12)
        pool = random_corpus(t, 40, rng)
        first = permutation_sensitivity(pool, t, None, permutations=500, rng_seed=123)
        second = permutation_sensitivity(pool, t, None, permutations=500, rng_seed=123)
        assert first == second

    def test_different_seeds_usually_differ(self):
        rng = random.Random(10)
        t = synthetic_taxonomy(30)
        pool = random_corpus(t, 80, rng, max_paths=2)
        a = permutation_sensitivity(pool, t, None, permutations=50, rng_seed=1)
        b = permutation_sensitivity(pool, t, None, permutations=50, rng_seed=2)
        assert a.stop_sizes != b.stop_sizes

    def test_intervals_contain_median(self):
        rng = random.Random(12)
        t = synthetic_taxonomy(25)
        pool = random_corpus(t, 70, rng, max_paths=2)
        summary = permutation_sensitivity(pool, t, None, permutations=200, rng_seed=3)
        stat = summary.stop_size
        assert stat.ci_low <= stat.median <= stat.ci_high
        for table in (summary.coverage_at_stop, summary.chao1_coverage):
            for entry in table.values():
                assert entry.ci_low <= entry.median <= entry.ci_high

    def test_chao1_richness_matches_direct_computation(self, domain_results, domain_taxonomy):
        pool = build_pool(domain_results)
        summary = permutation_sensitivity(pool, domain_taxonomy, None,
                                          permutations=10, rng_seed=4)
        occurrence = {}
        fold = pool.by_kind[TaxonomyKind.DOMAIN]
        for set_id in fold.ids:
            for j in fold.sets[set_id] if set_id != MISSING else ():
                occurrence[fold.paths[j]] = occurrence.get(fold.paths[j], 0) + 1
        assert summary.chao1_richness[TaxonomyKind.DOMAIN] == chao1(occurrence)

    @pytest.mark.parametrize("seed", range(10))
    def test_chao1_richness_counts_repeated_pairs_per_unit(self, seed):
        """Units that repeat a (domain, skill) path-set pair, as equal and as
        separately built sets, each count once per path they hold."""
        rng = random.Random(seed)
        taxonomies = {TaxonomyKind.DOMAIN: synthetic_taxonomy(40, kind="domain"),
                      TaxonomyKind.SKILL: synthetic_taxonomy(8, kind="skill")}
        leaves = {kind: sorted(t.path_index, key=str) for kind, t in taxonomies.items()}
        pairs = [{kind: rng.sample(leaves[kind], rng.randint(0, 4)) for kind in taxonomies}
                 for _ in range(rng.randint(3, 12))]
        pool = [(("b", f"u{i}"), {
                    kind: frozenset(paths) for kind, paths in rng.choice(pairs).items()})
                for i in range(rng.randint(20, 120))]
        summary = permutation_sensitivity(fold_units(pool), *taxonomies.values(),
                                          permutations=3, rng_seed=seed)
        for kind in taxonomies:
            occurrence = {}
            for _, paths in pool:
                for path in paths[kind]:
                    occurrence[path] = occurrence.get(path, 0) + 1
            expected = chao1(occurrence) if occurrence else 0.0
            assert summary.chao1_richness[kind] == expected

    def test_benchmark_pool_is_its_examples_in_pool_order(self):
        rng = random.Random(13)
        t = synthetic_taxonomy(20)
        pool = [synthetic_result(t, f"e{i}", rng.sample(range(20), rng.randint(0, 3)),
                                 benchmark=rng.choice("ab")) for i in range(60)]
        for bench in "ab":
            own = [r for r in pool if r.benchmark == bench]
            summary = permutation_sensitivity(pool, t, None, permutations=30, rng_seed=6,
                                              benchmark=bench)
            assert summary == permutation_sensitivity(own, t, None, permutations=30,
                                                      rng_seed=6)
            assert summary.benchmark == bench and summary.pool_size == len(own)
        with pytest.raises(ValueError, match="empty"):
            permutation_sensitivity(pool, t, None, permutations=3, benchmark="c")

    def test_permutations_validated(self, domain_results, domain_taxonomy):
        with pytest.raises(ValueError, match="permutations"):
            permutation_sensitivity(build_pool(domain_results), domain_taxonomy, None,
                                    permutations=0)


def test_summary_stat_from_values():
    stat = SummaryStat.from_values([1.0, 2.0, 3.0, 4.0])
    assert stat.median == 2.5
    assert stat.mean == 2.5
    assert stat.ci_low <= stat.median <= stat.ci_high


def stop_sizes(n):
    return [float(5 * (1 + (i * 7919 + 13) % 23)) for i in range(n)]


def fractions(n):
    return [((i * 40503 + 101) % 5807) / 5806 for i in range(n)]


# (values, n, median, 2.5th percentile, 97.5th percentile), the last three
# computed with numpy's median and default ``linear`` percentile.
NUMPY_SUMMARIES = [
    (stop_sizes, 1, 70.0, 70.0, 70.0),
    (fractions, 1, 0.01739579745091285, 0.01739579745091285, 0.01739579745091285),
    (stop_sizes, 2, 87.5, 70.875, 104.125),
    (fractions, 2, 0.5049087151222873, 0.04177144333448157, 0.9680459869100929),
    (stop_sizes, 3, 70.0, 27.25, 103.25),
    (fractions, 3, 0.9672752325180848, 0.06488976920427145, 0.9911643127798828),
    (stop_sizes, 40, 60.0, 5.0, 110.125),
    (fractions, 40, 0.5020668274199104, 0.03637185669996555, 0.9679038925249742),
    (stop_sizes, 41, 60.0, 5.0, 110.0),
    (fractions, 41, 0.4894936272821219, 0.01739579745091285, 0.9672752325180848),
    (stop_sizes, 500, 60.0, 5.0, 115.0),
    (fractions, 500, 0.51584567688598, 0.02503875301412332, 0.9749612469858766),
]


@pytest.mark.parametrize("values, n, median, ci_low, ci_high", NUMPY_SUMMARIES)
def test_summary_stat_matches_numpy_literals(values, n, median, ci_low, ci_high):
    data = values(n)
    stat = SummaryStat.from_values(data)
    assert (stat.median, stat.ci_low, stat.ci_high) == (median, ci_low, ci_high)
    assert stat.mean == pytest.approx(sum(data) / n, rel=1e-12)


def test_summary_stat_matches_numpy_on_random_values():
    np = pytest.importorskip("numpy")
    rng = random.Random(31)
    for _ in range(2_000):
        n = rng.randint(1, 600)
        if rng.random() < 0.5:
            data = [float(rng.randint(5, 300)) for _ in range(n)]
        else:
            data = [rng.randint(0, 5806) / 5806 for _ in range(n)]
        stat = SummaryStat.from_values(data)
        arr = np.asarray(data)
        assert (stat.median, stat.ci_low, stat.ci_high) == (
            float(np.median(arr)), float(np.percentile(arr, 2.5)),
            float(np.percentile(arr, 97.5)))


def test_summary_stat_rejects_empty_values():
    with pytest.raises(ValueError, match="no values"):
        SummaryStat.from_values([])


def test_cli_import_leaves_numpy_unloaded():
    code = "import sys, workatlas.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": SRC})
    assert out.stdout.strip() == "False"


def eager_replay(units, kinds, leaf_counts, sub_seed, batch_size, delta):
    """Reference over ``(key, {kind: paths})`` units: a full forward
    Fisher-Yates shuffle from ``sub_seed``, then the stopping rule recomputed
    from scratch on every batch prefix. Returns (selected keys, coverage at
    stop, distinct paths at stop) per kind."""
    order = list(units)
    rng = random.Random(sub_seed)
    for i in range(len(order)):
        j = rng.randrange(i, len(order))
        order[i], order[j] = order[j], order[i]
    previous = {kind: 0.0 for kind in kinds}
    for end in range(batch_size, len(order) + batch_size, batch_size):
        prefix = order[:end]
        covered = {kind: set().union(*(paths.get(kind, frozenset()) for _, paths in prefix))
                   for kind in kinds}
        current = {kind: len(covered[kind]) / leaf_counts[kind] for kind in kinds}
        below = [(current[k] - previous[k]) * 100.0 < delta for k in kinds]
        previous = current
        if all(below) or end >= len(order):
            return ([key for key, _ in prefix], current,
                    {kind: float(len(covered[kind])) for kind in kinds})


def skewed_pool(rng, taxonomies, n_units):
    """Units whose paths concentrate on a few leaves, so the rule stops long
    before the pool runs out."""
    units = []
    for i in range(n_units):
        paths = {}
        for kind, t in taxonomies.items():
            leaves = sorted(t.path_index, key=str)
            k = rng.randint(0, 2)
            paths[kind] = frozenset(leaves[min(int(rng.expovariate(0.4)), len(leaves) - 1)]
                                    for _ in range(k))
        units.append(((f"b{i % 3}", f"u{i}"), paths))
    return units


class TestLazyDrawEquivalence:
    def pools(self):
        rng = random.Random(2_024)
        d30 = synthetic_taxonomy(30, kind="domain")
        d200 = synthetic_taxonomy(200, kind="domain")
        s8 = synthetic_taxonomy(8, kind="skill")
        return [
            ({TaxonomyKind.DOMAIN: d30}, skewed_pool(rng, {TaxonomyKind.DOMAIN: d30}, 300)),
            ({TaxonomyKind.DOMAIN: d200, TaxonomyKind.SKILL: s8},
             skewed_pool(rng, {TaxonomyKind.DOMAIN: d200, TaxonomyKind.SKILL: s8}, 400)),
            ({TaxonomyKind.SKILL: s8}, skewed_pool(rng, {TaxonomyKind.SKILL: s8}, 150)),
        ]

    def test_matches_eager_full_shuffle(self):
        for taxonomies, units in self.pools():
            kinds = list(taxonomies)
            leaf_counts = {kind: t.leaf_count for kind, t in taxonomies.items()}
            t_domain = taxonomies.get(TaxonomyKind.DOMAIN)
            t_skill = taxonomies.get(TaxonomyKind.SKILL)
            pool = fold_units(units)
            summary = permutation_sensitivity(pool, t_domain, t_skill, batch_size=5,
                                              delta=0.1, permutations=60, rng_seed=17)
            seed_source = random.Random(17)
            sub_seeds = [seed_source.getrandbits(64) for _ in range(60)]
            reference = [eager_replay(units, kinds, leaf_counts, s, 5, 0.1) for s in sub_seeds]
            # non-degenerate: every permutation stops before the pool runs out
            assert max(len(ref[0]) for ref in reference) < len(units)
            assert summary.stop_sizes == tuple(len(ref[0]) for ref in reference)
            for kind in kinds:
                assert summary.coverage_at_stop[kind] == SummaryStat.from_values(
                    [ref[1][kind] for ref in reference])
                assert summary.paths_at_stop[kind] == SummaryStat.from_values(
                    [ref[2][kind] for ref in reference])
            for sub_seed, (keys, cov, _) in zip(sub_seeds[:10], reference):
                run = sample_until_saturation(pool, t_domain, t_skill, batch_size=5,
                                              delta=0.1, rng_seed=sub_seed)
                assert list(run.selected) == keys
                assert {kind: run.coverage_at_stop(kind) for kind in kinds} == cov

    def test_same_seed_same_summary(self):
        for taxonomies, units in self.pools():
            args = (fold_units(units), taxonomies.get(TaxonomyKind.DOMAIN),
                    taxonomies.get(TaxonomyKind.SKILL))
            first = permutation_sensitivity(*args, permutations=100, rng_seed=8)
            second = permutation_sensitivity(*args, permutations=100, rng_seed=8)
            assert first == second
            assert repr(first) == repr(second)


class TestSparseDraw:
    """A permutation costs its stop size: the replay keeps the consumed
    prefix and the displaced positions, never a pool-sized order."""

    def test_large_pool_replay_allocates_no_pool_sized_order(self):
        t = synthetic_taxonomy(8, kind="skill")
        singletons = [frozenset([p]) for p in sorted(t.path_index, key=str)]
        n = 200_000
        units = [(("big", f"u{i}"), {TaxonomyKind.SKILL: singletons[i % 8]}) for i in range(n)]
        sampler = _Sampler(fold_units(units), None, t, batch_size=5, delta=0.1)
        full_order = sys.getsizeof(list(range(n)))  # the list alone, not its ints
        for seed in (1, 2, 3):
            tracemalloc.start()
            try:
                run = sampler.replay(random.Random(seed))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert run.stopped_by == "saturation"
            assert len(run.order) == run.stop_size < 100
            assert len(set(run.order)) == run.stop_size
            assert peak < full_order / 100, (peak, full_order)

    def test_sampler_memory_bounded_by_distinct_sets(self):
        # 20,000 examples over 50 path sets: building the sampler from the
        # fold and replaying it holds one shared unit per distinct pair of
        # sets and one pointer per example, never an object per example.
        td = synthetic_taxonomy(40, kind="domain")
        ts = synthetic_taxonomy(12, kind="skill")
        rng, n = random.Random(21), 20_000
        sets = {}
        for kind, t, count in ((TaxonomyKind.DOMAIN, td, 30), (TaxonomyKind.SKILL, ts, 20)):
            paths, distinct = sorted(t.path_index, key=str), set()
            while len(distinct) < count:
                distinct.add(frozenset(rng.sample(paths, rng.randint(1, 3))))
            sets[kind] = list(distinct)
        folder = MappingFolder(dict.fromkeys(TaxonomyKind))
        for i in range(n):
            for kind, kind_sets in sets.items():
                folder.add(kind, ("b", f"e{i}"), kind_sets[i % len(kind_sets)])
        folded = folder.folded()
        # a first run fills the interpreter's free lists, which keep a fixed
        # number of freed tuples whatever the pool size
        permutation_sensitivity(folded, td, ts, permutations=20, rng_seed=3)
        tracemalloc.start()
        try:
            summary = permutation_sensitivity(folded, td, ts, permutations=20, rng_seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert summary.pool_size == n
        assert peak < 16 * n + 1024 * 50, peak

    def test_identity_order_without_rng(self):
        t = synthetic_taxonomy(4, kind="skill")
        units = [(("b", f"u{i}"), {}) for i in range(12)]
        run = _Sampler(fold_units(units), None, t, batch_size=5, delta=0.1).replay(None)
        assert run.order == [0, 1, 2, 3, 4] == list(range(run.stop_size))

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 17, 255, 256, 257, 4_097])
    def test_inline_draw_equals_randrange(self, n):
        # With no paths the rule stops after one batch, so a batch as large
        # as the pool draws a whole permutation.
        t = synthetic_taxonomy(4, kind="skill")
        units = [(("b", f"u{i}"), {}) for i in range(n)]
        sampler = _Sampler(fold_units(units), None, t, batch_size=n, delta=0.1)
        for seed in (0, 7, 2**63 + 5):
            rng = random.Random(seed)
            run = sampler.replay(rng)
            reference = random.Random(seed)
            order = list(range(n))
            for i in range(n):
                j = reference.randrange(i, n)
                order[i], order[j] = order[j], order[i]
            assert run.order == order
            # the same random stream was consumed, draw for draw
            assert rng.getstate() == reference.getstate()
