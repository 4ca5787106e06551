"""Taxonomy coverage, per-node effort, and per-example breadth.

Coverage is the fraction of a taxonomy's root-to-leaf paths touched by at
least one mapped example. Effort counts (example, node) incidences at a
grouping level: an example increments each distinct node it reaches once,
however many of its paths land there. Breadth is the per-example count of
distinct nodes at that level.

All three read one kind's results as a per-example fold,
:class:`CheckedResults`: each example's key and the union of its mapped
paths. :func:`check_results` builds the fold from results. A
:class:`MappingFolder` builds one fold per kind, one result at a time, into
:class:`FoldedMappings`: ``io.read_mapping_folds`` from a mappings file
line by line, and the CLI from each result as it is mapped.

All operations are pure functions of their inputs and invariant to input
order; :class:`CoverageAccumulator` provides an incremental form, which is
exactly equivalent to a from-scratch set union.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping

from .mapping import MappingResult, MappingStatus
from .taxonomy import Taxonomy, TaxonomyKind, TaxonomyPath


class ForeignPathError(ValueError):
    """A mapping's paths belong to a different taxonomy than the one given."""


class GroupLevel(str, Enum):
    DOMAIN_FAMILY = "domain_family"
    SKILL_LEAF = "skill_leaf"


_LEVEL_KIND = {
    GroupLevel.DOMAIN_FAMILY: TaxonomyKind.DOMAIN,
    GroupLevel.SKILL_LEAF: TaxonomyKind.SKILL,
}


def node_at_level(path: TaxonomyPath, level: GroupLevel) -> tuple[str, str]:
    """(node id, label) of the path's node at the grouping level."""
    if level is GroupLevel.DOMAIN_FAMILY:
        return path.node_ids[0], path.labels[0]
    return path.node_ids[-1], path.labels[-1]


_NO_PATHS: frozenset[TaxonomyPath] = frozenset()


class CheckedResults:
    """One kind's mapping results checked against ``taxonomy`` and folded
    per example.

    ``paths`` maps each example key, in the order the example first
    appears, to the union of the paths its ``mapped`` results hold, or to
    an empty frozenset when it has none. That is all :func:`coverage`,
    :func:`effort_by_node` and :func:`breadth` read, so they accept a fold
    for its taxonomy without checking any path again, and no result object,
    raw annotator output or annotator id is kept.
    """

    __slots__ = ("taxonomy", "paths", "_nodes_by_level")

    def __init__(self, taxonomy: Taxonomy):
        self.taxonomy = taxonomy
        self.paths: dict[tuple[str, str], frozenset[TaxonomyPath]] = {}
        self._nodes_by_level: dict[GroupLevel, dict] = {}

    def add(self, key: tuple[str, str], paths: frozenset[TaxonomyPath]) -> None:
        """Fold one result's mapped paths (empty for one not mapped) into
        its example's union; a union equal to one side is that side's set,
        so equal path sets stay shared. A fold is complete before its first
        :meth:`nodes_per_example`."""
        earlier = self.paths.get(key, _NO_PATHS)
        if paths <= earlier:
            paths = earlier
        elif not earlier <= paths:
            paths = earlier | paths
        self.paths[key] = paths

    def nodes_per_example(
        self, level: GroupLevel
    ) -> dict[tuple[str, str], frozenset[tuple[str, str]]]:
        """Each example's distinct (node id, label) pairs at ``level``,
        built on first use and shared. A node set is built once per distinct
        path set and shared by every example with that path set, and each
        distinct node is one tuple."""
        per_example = self._nodes_by_level.get(level)
        if per_example is None:
            node_sets: dict[frozenset[TaxonomyPath], frozenset[tuple[str, str]]] = {}
            nodes: dict[tuple[str, str], tuple[str, str]] = {}
            for paths in self.paths.values():
                if paths not in node_sets:
                    node_sets[paths] = frozenset(
                        nodes.setdefault(node, node)
                        for node in (node_at_level(p, level) for p in paths)
                    )
            per_example = self._nodes_by_level[level] = {
                key: node_sets[paths] for key, paths in self.paths.items()
            }
        return per_example


@dataclass(frozen=True)
class FoldedMappings:
    """Mapping results folded per example, with no result object kept.

    ``examples`` lists every example key once, in the order the example
    first appears; ``by_kind`` holds one fold per taxonomy kind that has at
    least one result. The folds and ``examples`` share one key tuple per
    example.
    """

    examples: tuple[tuple[str, str], ...]
    by_kind: dict[TaxonomyKind, CheckedResults]


class MappingFolder:
    """Builds a :class:`FoldedMappings` one result at a time.

    Each kind's fold is made for its entry in ``taxonomies``. A result's
    paths are added as they are, unchecked, so they must come from that
    taxonomy. :func:`~workatlas.sampling.build_pool`, which reads only the
    paths, folds with ``None`` in place of each taxonomy.
    """

    __slots__ = ("_taxonomies", "_keys", "_folds")

    def __init__(self, taxonomies: Mapping[TaxonomyKind, Taxonomy | None]):
        self._taxonomies = taxonomies
        self._keys: dict[tuple[str, str], tuple[str, str]] = {}
        self._folds: dict[TaxonomyKind, CheckedResults] = {}

    def add(self, kind: TaxonomyKind, key: tuple[str, str],
            paths: frozenset[TaxonomyPath]) -> None:
        """Fold one result: its kind, its example's key, and its paths
        (empty unless it is mapped)."""
        key = self._keys.setdefault(key, key)
        fold = self._folds.get(kind)
        if fold is None:
            fold = self._folds[kind] = CheckedResults(self._taxonomies[kind])
        fold.add(key, paths)

    def folded(self) -> FoldedMappings:
        return FoldedMappings(tuple(self._keys), self._folds)


def check_results(results: Iterable[MappingResult] | CheckedResults,
                  t: Taxonomy) -> CheckedResults:
    """Check that every result is of ``t``'s kind and every path is in
    ``t``, and fold the results per example.

    Raises :class:`ForeignPathError` otherwise. A fold made for ``t`` is
    returned as it is; one made for another taxonomy is checked again.
    """
    if isinstance(results, CheckedResults):
        if results.taxonomy is t:
            return results
        kind = results.taxonomy.kind
        records = ((kind, key, paths) for key, paths in results.paths.items())
    else:
        # a result holds paths exactly when it is mapped
        records = ((r.taxonomy_kind, r.key, r.paths) for r in results)
    checked = CheckedResults(t)
    for kind, key, paths in records:
        if kind is not t.kind:
            raise ForeignPathError(
                f"result for {key} has kind {kind.value}, taxonomy is {t.kind.value}"
            )
        for p in paths:
            if not t.contains_path(p):
                raise ForeignPathError(f"path {p} from {key} is not in the taxonomy")
        checked.add(key, paths)
    return checked


class CoverageAccumulator:
    """Incremental covered-path set; equivalent to unioning from scratch."""

    def __init__(self, t: Taxonomy):
        self.taxonomy = t
        self.covered: set[TaxonomyPath] = set()

    def add(self, result: MappingResult) -> None:
        if result.taxonomy_kind is not self.taxonomy.kind:
            raise ForeignPathError(
                f"result kind {result.taxonomy_kind.value} != {self.taxonomy.kind.value}"
            )
        if result.status is MappingStatus.MAPPED:
            self.covered.update(result.paths)

    @property
    def coverage(self) -> float:
        return len(self.covered) / self.taxonomy.leaf_count


@dataclass(frozen=True)
class CoverageReport:
    taxonomy_kind: TaxonomyKind
    covered_paths: frozenset[TaxonomyPath]
    total_paths: int
    coverage: float
    per_benchmark: dict[str, float]
    per_benchmark_covered: dict[str, int]  # benchmark -> covered-path count


def coverage(results: Iterable[MappingResult] | CheckedResults, t: Taxonomy) -> CoverageReport:
    """Pooled and per-benchmark path coverage of ``t``.

    Only ``mapped`` results contribute; empty and invalid ones count for
    nothing. Every per-benchmark fraction uses the full taxonomy as its
    denominator.
    """
    covered: set[TaxonomyPath] = set()
    by_benchmark: dict[str, set[TaxonomyPath]] = {}
    for (benchmark, _), paths in check_results(results, t).paths.items():
        bench = by_benchmark.setdefault(benchmark, set())
        covered.update(paths)
        bench.update(paths)
    total = t.leaf_count
    return CoverageReport(
        taxonomy_kind=t.kind,
        covered_paths=frozenset(covered),
        total_paths=total,
        coverage=len(covered) / total,
        per_benchmark={b: len(s) / total for b, s in sorted(by_benchmark.items())},
        per_benchmark_covered={b: len(s) for b, s in sorted(by_benchmark.items())},
    )


@dataclass(frozen=True)
class EffortDistribution:
    """(example, node) incidence counts at a grouping level."""

    group_level: GroupLevel
    counts: dict[str, int]  # node id -> incidences
    labels: dict[str, str]  # node id -> label
    total_examples: int

    @property
    def total_incidences(self) -> int:
        return sum(self.counts.values())

    def shares(self) -> dict[str, float]:
        total = self.total_incidences
        return {node: c / total for node, c in self.counts.items()} if total else {}


def _validate_level(t: Taxonomy, level: GroupLevel) -> None:
    if _LEVEL_KIND[level] is not t.kind:
        raise ValueError(f"grouping level {level.value} is invalid for a {t.kind.value} taxonomy")


def effort_by_node(
    results: Iterable[MappingResult] | CheckedResults, t: Taxonomy, level: GroupLevel
) -> EffortDistribution:
    """Benchmark effort per node: each example counts once per distinct node
    it reaches at the grouping level (family for domains, leaf activity for
    skills), never once per path."""
    _validate_level(t, level)
    per_example = check_results(results, t).nodes_per_example(level)
    counts: Counter[str] = Counter()
    labels: dict[str, str] = {}
    for nodes in per_example.values():
        for node_id, label in nodes:
            counts[node_id] += 1
            labels[node_id] = label
    return EffortDistribution(
        group_level=level,
        counts=dict(sorted(counts.items())),
        labels=labels,
        total_examples=len(per_example),
    )


@dataclass(frozen=True)
class BreadthStats:
    """Distinct-node counts per example at a grouping level.

    Examples whose mappings are empty or invalid stay in the denominator
    with breadth 0; their share is reported explicitly.
    """

    group_level: GroupLevel
    per_example: dict[tuple[str, str], int]
    histogram: dict[int, int]
    share_zero: float
    share_exactly_one: float
    share_more_than_one: float
    share_more_than_three: float
    share_four_or_more: float
    mean_breadth: float


def breadth(
    results: Iterable[MappingResult] | CheckedResults, t: Taxonomy, level: GroupLevel
) -> BreadthStats:
    """Per-example breadth (distinct nodes at the grouping level) plus its
    histogram and summary shares."""
    _validate_level(t, level)
    nodes = check_results(results, t).nodes_per_example(level)
    per_example = {k: len(v) for k, v in nodes.items()}
    n = len(per_example)
    histogram = dict(sorted(Counter(per_example.values()).items()))

    def share(pred) -> float:
        return sum(1 for v in per_example.values() if pred(v)) / n if n else 0.0

    return BreadthStats(
        group_level=level,
        per_example=per_example,
        histogram=histogram,
        share_zero=share(lambda v: v == 0),
        share_exactly_one=share(lambda v: v == 1),
        share_more_than_one=share(lambda v: v > 1),
        share_more_than_three=share(lambda v: v > 3),
        share_four_or_more=share(lambda v: v >= 4),
        mean_breadth=(sum(per_example.values()) / n) if n else 0.0,
    )
