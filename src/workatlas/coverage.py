"""Taxonomy coverage, per-node effort, and per-example breadth.

Coverage is the fraction of a taxonomy's root-to-leaf paths touched by at
least one mapped example. Effort counts (example, node) incidences at a
grouping level: an example increments each distinct node it reaches once,
however many of its paths land there. Breadth is the per-example count of
distinct nodes at that level.

All operations are pure functions of their inputs and invariant to input
order; :class:`CoverageAccumulator` provides an incremental form, which is
exactly equivalent to a from-scratch set union.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

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


_NO_NODES: frozenset[tuple[str, str]] = frozenset()


class CheckedResults(tuple):
    """Mapping results already checked against ``taxonomy``.

    :func:`coverage`, :func:`effort_by_node` and :func:`breadth` accept them
    for that taxonomy without checking every path again, and the last two
    share the per-example node sets they build at a grouping level.
    """

    def __new__(cls, results: Iterable[MappingResult], taxonomy: Taxonomy):
        checked = super().__new__(cls, results)
        checked.taxonomy = taxonomy
        checked._nodes_by_level = {}
        return checked

    def nodes_per_example(
        self, level: GroupLevel
    ) -> dict[tuple[str, str], frozenset[tuple[str, str]]]:
        """Each example's distinct (node id, label) pairs at ``level``,
        built on first use and shared; empty for examples not mapped.
        A node set is built once per distinct path set, and examples with
        equal path sets share it."""
        per_example = self._nodes_by_level.get(level)
        if per_example is None:
            per_example = self._nodes_by_level[level] = {}
            by_paths: dict[frozenset[TaxonomyPath], frozenset[tuple[str, str]]] = {}
            for r in self:
                nodes = _NO_NODES
                if r.status is MappingStatus.MAPPED:
                    nodes = by_paths.get(r.paths)
                    if nodes is None:
                        nodes = frozenset(node_at_level(p, level) for p in r.paths)
                        by_paths[r.paths] = nodes
                earlier = per_example.get(r.key)
                per_example[r.key] = nodes if earlier is None else earlier | nodes
        return per_example


def check_results(results: Iterable[MappingResult], t: Taxonomy) -> CheckedResults:
    """Check that every result is of ``t``'s kind and every path is in ``t``.

    Raises :class:`ForeignPathError` otherwise. Results checked against the
    same taxonomy before are returned as they are.
    """
    if isinstance(results, CheckedResults) and results.taxonomy is t:
        return results
    checked = []
    for r in results:
        if r.taxonomy_kind is not t.kind:
            raise ForeignPathError(
                f"result for {r.key} has kind {r.taxonomy_kind.value}, "
                f"taxonomy is {t.kind.value}"
            )
        for p in r.paths:
            if not t.contains_path(p):
                raise ForeignPathError(f"path {p} from {r.key} is not in the taxonomy")
        checked.append(r)
    return CheckedResults(checked, t)


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


def coverage(results: Sequence[MappingResult], t: Taxonomy) -> CoverageReport:
    """Pooled and per-benchmark path coverage of ``t``.

    Only ``mapped`` results contribute; empty and invalid ones count for
    nothing. Every per-benchmark fraction uses the full taxonomy as its
    denominator.
    """
    checked = check_results(results, t)
    covered: set[TaxonomyPath] = set()
    by_benchmark: dict[str, set[TaxonomyPath]] = {}
    for r in checked:
        bench = by_benchmark.setdefault(r.benchmark, set())
        if r.status is MappingStatus.MAPPED:
            covered.update(r.paths)
            bench.update(r.paths)
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
    results: Sequence[MappingResult], t: Taxonomy, level: GroupLevel
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
    results: Sequence[MappingResult], t: Taxonomy, level: GroupLevel
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
