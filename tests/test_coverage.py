import importlib
import random
import re
import tracemalloc
from collections import Counter

import pytest

from workatlas.coverage import (
    CheckedResults,
    CoverageAccumulator,
    ForeignPathError,
    GroupLevel,
    MappingFolder,
    breadth,
    build_pool,
    check_results,
    coverage,
    effort_by_node,
    node_at_level,
    node_sets,
)
from workatlas.mapping import MappingStatus
from workatlas.reporting import ReportBundle, coverage_suite
from workatlas.taxonomy import TaxonomyKind

from conftest import random_corpus, synthetic_result, synthetic_taxonomy

# The package re-exports the function ``coverage`` under the module's name.
coverage_module = importlib.import_module("workatlas.coverage")
reporting_module = importlib.import_module("workatlas.reporting")


def count_checks(monkeypatch) -> list:
    """Record the taxonomy of every :func:`check_results` call, where
    ``coverage`` and ``reporting`` look it up, that returns a fold other
    than the one it was given: a call that checks rather than passes a fold
    already made for its taxonomy."""
    checks = []

    def counted(results, t):
        checked = check_results(results, t)
        if checked is not results:
            checks.append(t)
        return checked

    monkeypatch.setattr(coverage_module, "check_results", counted)
    monkeypatch.setattr(reporting_module, "check_results", counted)
    return checks


class TestCoverage:
    def test_no_mapped_results_is_zero(self):
        t = synthetic_taxonomy(10)
        results = [synthetic_result(t, "e0", [])]
        assert coverage(results, t).coverage == 0.0

    def test_fixture_unique_paths(self):
        # paths {1, 2, 2, 4, 7} over a 10-path taxonomy -> 4 unique -> 0.4
        t = synthetic_taxonomy(10)
        results = [
            synthetic_result(t, "a", [1]),
            synthetic_result(t, "b", [2]),
            synthetic_result(t, "c", [2, 4]),
            synthetic_result(t, "d", [7]),
        ]
        report = coverage(results, t)
        assert report.coverage == 0.4
        assert len(report.covered_paths) == 4

    def test_brute_force_union_oracle(self):
        rng = random.Random(11)
        t = synthetic_taxonomy(15)
        results = random_corpus(t, 40, rng)
        report = coverage(results, t)
        expected = set()
        for r in results:
            if r.status is MappingStatus.MAPPED:
                expected |= set(r.paths)
        assert report.covered_paths == frozenset(expected)
        assert report.coverage == len(expected) / 15

    def test_bundled_corpus_coverage(self, domain_results, domain_taxonomy,
                                     skill_results, skill_taxonomy):
        assert coverage(domain_results, domain_taxonomy).coverage == pytest.approx(11 / 12)
        assert coverage(skill_results, skill_taxonomy).coverage == pytest.approx(8 / 10)

    def test_per_benchmark_uses_full_denominator(self, domain_results, domain_taxonomy):
        report = coverage(domain_results, domain_taxonomy)
        # each benchmark's covered count over the full 12-path denominator
        assert report.per_benchmark["codebench"] == 6 / 12
        assert report.per_benchmark["deskbench"] == 6 / 12
        assert report.per_benchmark["webbench"] == 6 / 12
        for fraction in report.per_benchmark.values():
            assert fraction <= report.coverage

    def test_foreign_kind_rejected(self, skill_results, domain_taxonomy):
        with pytest.raises(ForeignPathError):
            coverage(skill_results, domain_taxonomy)

    def test_monotone_under_additional_mappings(self):
        rng = random.Random(5)
        t = synthetic_taxonomy(12)
        part_a = random_corpus(t, 10, rng)
        part_b = [
            synthetic_result(t, f"x{i}", [rng.randrange(12)]) for i in range(10)
        ]
        cov_a = coverage(part_a, t).coverage
        cov_union = coverage(part_a + part_b, t).coverage
        assert cov_union >= cov_a

    def test_permutation_invariance(self):
        rng = random.Random(6)
        t = synthetic_taxonomy(9)
        results = random_corpus(t, 25, rng)
        shuffled = list(results)
        rng.shuffle(shuffled)
        assert coverage(results, t) == coverage(shuffled, t)


class TestAccumulator:
    def test_incremental_equals_scratch_on_every_prefix(self):
        rng = random.Random(21)
        t = synthetic_taxonomy(14)
        results = random_corpus(t, 30, rng)
        acc = CoverageAccumulator(t)
        for i, result in enumerate(results, start=1):
            acc.add(result)
            assert acc.coverage == coverage(results[:i], t).coverage
            assert acc.covered == set(coverage(results[:i], t).covered_paths)

    def test_kind_mismatch(self, skill_results):
        t = synthetic_taxonomy(4, kind="domain")
        acc = CoverageAccumulator(t)
        with pytest.raises(ForeignPathError):
            acc.add(skill_results[0])


class TestEffort:
    def test_two_paths_same_family_count_once(self):
        t = synthetic_taxonomy(8)
        results = [synthetic_result(t, "e0", [0, 3])]  # same family f0
        dist = effort_by_node(results, t)
        assert dist.counts == {"f0": 1}
        assert dist.total_incidences == 1

    def test_two_families_both_counted(self, domain_results, domain_taxonomy):
        dist = effort_by_node(domain_results, domain_taxonomy)
        # c05 reaches business and office; every count checked by hand
        assert dist.counts == {"fam-business": 6, "fam-computer": 7, "fam-office": 5}
        assert dist.total_examples == 20

    def test_skill_leaf_level(self, skill_results, skill_taxonomy):
        dist = effort_by_node(skill_results, skill_taxonomy)
        assert dist.group_level is GroupLevel.SKILL_LEAF
        assert sum(dist.counts.values()) == dist.total_incidences

    def test_effort_conservation(self, domain_results, domain_taxonomy):
        dist = effort_by_node(domain_results, domain_taxonomy)
        stats = breadth(domain_results, domain_taxonomy)
        assert dist.total_incidences == sum(stats.per_example.values())

    def test_shares_sum_to_one(self, domain_results, domain_taxonomy):
        dist = effort_by_node(domain_results, domain_taxonomy)
        assert abs(sum(dist.shares().values()) - 1.0) < 1e-9


class TestBreadth:
    def test_single_path_breadth_one(self):
        t = synthetic_taxonomy(5)
        stats = breadth([synthetic_result(t, "e0", [2])], t)
        assert stats.per_example[("synth", "e0")] == 1
        assert stats.share_exactly_one == 1.0

    def test_fixture_two_families(self, domain_results, domain_taxonomy):
        stats = breadth(domain_results, domain_taxonomy)
        # c05 reconciles (business) and refunds (office)
        assert stats.per_example[("codebench", "c05")] == 2
        assert stats.histogram == {0: 3, 1: 16, 2: 1}

    def test_zero_breadth_kept_in_denominator(self, domain_results, domain_taxonomy):
        stats = breadth(domain_results, domain_taxonomy)
        assert stats.share_zero == 3 / 20
        assert abs(
            stats.share_zero + stats.share_exactly_one + stats.share_more_than_one - 1.0
        ) < 1e-9

    def test_histogram_sums_to_examples(self, skill_results, skill_taxonomy):
        stats = breadth(skill_results, skill_taxonomy)
        assert sum(stats.histogram.values()) == len(stats.per_example) == 20

    def test_permutation_invariance(self, domain_results, domain_taxonomy):
        shuffled = list(domain_results)
        random.Random(1).shuffle(shuffled)
        assert (
            breadth(shuffled, domain_taxonomy)
            == breadth(domain_results, domain_taxonomy)
        )


class TestCheckOncePerKind:
    def test_checked_results_are_not_checked_again(self, domain_results, domain_taxonomy,
                                                   monkeypatch):
        checked = check_results(domain_results, domain_taxonomy)
        assert check_results(checked, domain_taxonomy) is checked
        expected = (
            coverage(domain_results, domain_taxonomy),
            effort_by_node(domain_results, domain_taxonomy),
            breadth(domain_results, domain_taxonomy),
        )
        checks = count_checks(monkeypatch)
        assert (
            coverage(checked, domain_taxonomy),
            effort_by_node(checked, domain_taxonomy),
            breadth(checked, domain_taxonomy),
        ) == expected
        assert checks == []

    def test_checked_against_another_taxonomy_is_checked(self, domain_results,
                                                         domain_taxonomy):
        checked = check_results(domain_results, domain_taxonomy)
        with pytest.raises(ForeignPathError):
            coverage(checked, synthetic_taxonomy(10))

    def test_pool_fold_is_read_like_its_results(self, domain_results, skill_results,
                                                domain_taxonomy, skill_taxonomy):
        # build_pool folds without a taxonomy: the tables check its folds by kind
        pool = build_pool(list(domain_results) + list(skill_results))
        for results, t, other in ((domain_results, domain_taxonomy, skill_taxonomy),
                                  (skill_results, skill_taxonomy, domain_taxonomy)):
            fold = pool.by_kind[t.kind]
            assert coverage(fold, t) == coverage(results, t)
            assert effort_by_node(fold, t) == effort_by_node(results, t)
            assert breadth(fold, t) == breadth(results, t)
            with pytest.raises(ForeignPathError, match=f"has kind {t.kind.value}"):
                coverage(fold, other)

    def test_checking_a_pool_fold_shares_it(self, domain_results, skill_results,
                                            domain_taxonomy, skill_taxonomy):
        pool = build_pool(list(domain_results) + list(skill_results))
        for t in (domain_taxonomy, skill_taxonomy):
            fold = pool.by_kind[t.kind]
            checked = check_results(fold, t)
            assert (checked.taxonomy, checked.kind) == (t, t.kind)
            assert checked.keys is fold.keys
            assert checked.ids is fold.ids
            # the sets are renumbered into the taxonomy's numbers, in order
            assert checked.paths is t.paths
            assert [frozenset(checked.paths[j] for j in s) for s in checked.sets] == [
                frozenset(fold.paths[j] for j in s) for s in fold.sets]
            assert all(list(s) == sorted(s) for s in checked.sets)
            assert check_results(checked, t) is checked

    def test_error_names_first_example_holding_a_foreign_path(self):
        # the 4-leaf tree holds the 10-leaf tree's first four paths, no other;
        # e0's second record, the last in record order, makes e0's set foreign
        wide, narrow = synthetic_taxonomy(10), synthetic_taxonomy(4)
        results = [synthetic_result(wide, "e0", [0]), synthetic_result(wide, "e1", [1]),
                   synthetic_result(wide, "e2", [7]), synthetic_result(wide, "e0", [9, 5])]
        named = re.escape(f"path {wide.path_for_leaf('leaf-5')} from ('synth', 'e0')"
                          " is not in the domain taxonomy")
        for source in (results, build_pool(results).by_kind[TaxonomyKind.DOMAIN],
                       check_results(results, wide)):
            with pytest.raises(ForeignPathError, match=named):
                check_results(source, narrow)

    def test_fold_for_a_taxonomy_refuses_a_path_outside_it(self):
        # the 4-leaf tree holds the 8-leaf tree's first four paths, no other
        narrow, wide = synthetic_taxonomy(4), synthetic_taxonomy(8)
        folder = MappingFolder({TaxonomyKind.DOMAIN: narrow})
        folder.add(TaxonomyKind.DOMAIN, ("synth", "e0"),
                   synthetic_result(wide, "e0", [0, 3]).paths)
        named = re.escape(f"path {wide.path_for_leaf('leaf-4')} from ('synth', 'e1')"
                          " is not in the domain taxonomy")
        with pytest.raises(ForeignPathError, match=named):
            folder.add(TaxonomyKind.DOMAIN, ("synth", "e1"),
                       synthetic_result(wide, "e1", range(8)).paths)
        fold = folder.folded().by_kind[TaxonomyKind.DOMAIN]
        assert fold.keys == (("synth", "e0"),)  # the refused record left nothing
        assert coverage(fold, narrow).coverage == 0.5

    def test_fold_for_a_wider_tree_checks_only_the_paths_it_uses(self):
        # every example maps into the 10-leaf tree's first four paths, which
        # the 4-leaf tree holds; the wider tree's other six are never used
        wide, narrow = synthetic_taxonomy(10), synthetic_taxonomy(4)
        results = [synthetic_result(wide, "e0", [3, 1]), synthetic_result(wide, "e1", [0]),
                   synthetic_result(wide, "e2", []), synthetic_result(wide, "e0", [2])]
        folder = MappingFolder({TaxonomyKind.DOMAIN: wide})
        for r in results:
            folder.add(r.taxonomy_kind, r.key, r.paths)
        fold = folder.folded().by_kind[TaxonomyKind.DOMAIN]
        checked = check_results(fold, narrow)
        assert checked.paths is narrow.paths
        assert coverage(fold, narrow) == coverage(results, narrow)
        assert coverage(fold, narrow).coverage == 1.0
        assert (effort_by_node(fold, narrow)
                == effort_by_node(results, narrow))

    def test_suite_checks_each_kind_once(self, tmp_path, domain_results, skill_results,
                                         domain_taxonomy, skill_taxonomy, monkeypatch):
        taxonomies = {TaxonomyKind.DOMAIN: domain_taxonomy, TaxonomyKind.SKILL: skill_taxonomy}
        results = {TaxonomyKind.DOMAIN: domain_results, TaxonomyKind.SKILL: skill_results}
        checks = count_checks(monkeypatch)
        coverage_suite(ReportBundle(run_dir=tmp_path), results, taxonomies)
        assert checks == [domain_taxonomy, skill_taxonomy]

    def test_effort_and_breadth_share_node_sets(self, domain_results, skill_results,
                                                domain_taxonomy, skill_taxonomy):
        t = synthetic_taxonomy(30)
        synthetic = random_corpus(t, 60, random.Random(5)) + [synthetic_result(t, "e0", [7])]
        cases = [(domain_results, domain_taxonomy), (skill_results, skill_taxonomy),
                 (synthetic, t)]
        for results, taxonomy in cases:
            per_example = {}
            for r in results:
                nodes = per_example.setdefault(r.key, set())
                if r.status is MappingStatus.MAPPED:
                    nodes.update(node_at_level(p) for p in r.paths)
            counts = Counter(node_id for nodes in per_example.values() for node_id, _ in nodes)

            checked = check_results(results, taxonomy)
            stats = breadth(checked, taxonomy)
            effort = effort_by_node(checked, taxonomy)
            assert effort.counts == dict(sorted(counts.items()))
            assert effort.total_examples == len(per_example)
            assert stats.per_example == {k: len(v) for k, v in per_example.items()}
            assert (effort, stats) == (effort_by_node(list(results), taxonomy),
                                       breadth(list(results), taxonomy))

    def test_suite_builds_node_sets_once_per_kind(self, tmp_path, domain_results,
                                                  skill_results, domain_taxonomy,
                                                  skill_taxonomy, monkeypatch):
        taxonomies = {TaxonomyKind.DOMAIN: domain_taxonomy, TaxonomyKind.SKILL: skill_taxonomy}
        results = {TaxonomyKind.DOMAIN: domain_results, TaxonomyKind.SKILL: skill_results}
        # one node per path of each kind's taxonomy, found once for effort
        # and breadth together and for every example that holds the path
        calls = []
        monkeypatch.setattr(coverage_module, "node_at_level",
                            lambda p: calls.append(p) or node_at_level(p))
        coverage_suite(ReportBundle(run_dir=tmp_path), results, taxonomies)
        assert calls == list(domain_taxonomy.paths) + list(skill_taxonomy.paths)

    def test_suite_rejects_foreign_paths(self, tmp_path, domain_results, skill_taxonomy):
        with pytest.raises(ForeignPathError):
            coverage_suite(ReportBundle(run_dir=tmp_path),
                           {TaxonomyKind.SKILL: domain_results},
                           {TaxonomyKind.SKILL: skill_taxonomy})


class TestDistinctPathSets:
    """Effort and breadth count each distinct path set once, weighted by
    its examples, and equal a per-example count from scratch."""

    @staticmethod
    def random_fold(t, rng, n_examples):
        """A fold whose examples share path-set objects, hold equal sets
        built separately or empty sets, and are sometimes folded twice;
        also the per-example unions, built independently."""
        paths = sorted(t.path_index, key=lambda p: p.node_ids)
        shared = [frozenset(rng.sample(paths, rng.randint(1, 4))) for _ in range(5)]
        shared.append(frozenset())
        fold, unions = CheckedResults(t), {}
        for i in range(n_examples):
            key = ("b" + str(i % 3), f"e{i}")
            for _ in range(1 if rng.random() < 0.8 else 2):  # a second fold is a union
                choice = rng.randrange(4)
                if choice == 0:
                    added = rng.choice(shared)
                elif choice == 1:
                    added = frozenset(list(rng.choice(shared)))  # equal, not the same
                elif choice == 2:
                    added = frozenset()
                else:
                    added = frozenset(rng.sample(paths, rng.randint(1, 3)))
                fold.add(key, added)
                unions.setdefault(key, set()).update(added)
        return fold, unions

    @pytest.mark.parametrize("seed", range(6))
    def test_equals_per_example_count(self, domain_taxonomy, skill_taxonomy, seed):
        rng = random.Random(seed)
        for t in (domain_taxonomy, skill_taxonomy):
            fold, unions = self.random_fold(t, rng, rng.randint(1, 120))
            nodes = {key: {node_at_level(p) for p in paths}
                     for key, paths in unions.items()}
            counts = Counter(node_id for ns in nodes.values() for node_id, _ in ns)
            labels = dict(node for ns in nodes.values() for node in ns)
            widths = {key: len(ns) for key, ns in nodes.items()}
            n = len(widths)

            for source in (fold, node_sets(fold, t)):
                effort = effort_by_node(source, t)
                assert effort.counts == dict(sorted(counts.items()))
                assert effort.labels == labels
                assert effort.total_examples == n
                stats = breadth(source, t)
                assert stats.per_example == widths
                assert list(stats.per_example) == list(unions)
                assert stats.histogram == dict(sorted(Counter(widths.values()).items()))
                assert stats.share_zero == sum(w == 0 for w in widths.values()) / n
                assert stats.share_exactly_one == sum(w == 1 for w in widths.values()) / n
                assert stats.share_more_than_one == sum(w > 1 for w in widths.values()) / n
                assert stats.share_more_than_three == sum(w > 3 for w in widths.values()) / n
                assert stats.share_four_or_more == sum(w >= 4 for w in widths.values()) / n
                assert stats.mean_breadth == sum(widths.values()) / n

    def test_effort_memory_bounded_by_distinct_sets(self, domain_taxonomy):
        # 20,000 examples over 50 path sets: effort's working memory follows
        # the 50 sets; a table with one entry per example would exceed it.
        t, distinct = domain_taxonomy, 50
        paths = sorted(t.path_index, key=lambda p: p.node_ids)
        rng, sets = random.Random(20), set()
        while len(sets) < distinct:
            sets.add(frozenset(rng.sample(paths, rng.randint(1, 4))))
        sets = list(sets)
        fold = CheckedResults(t)
        for i in range(20_000):
            fold.add(("b", f"e{i}"), sets[i % distinct])
        tracemalloc.start()
        try:
            effort = effort_by_node(fold, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert effort.total_examples == 20_000
        assert peak < 1024 * distinct
