"""Taxonomy coverage, per-node effort, and per-example breadth.

Coverage is the fraction of a taxonomy's root-to-leaf paths touched by at
least one mapped example. Effort counts (example, node) incidences at a
grouping level: an example increments each distinct node it reaches once,
however many of its paths land there. Breadth is the per-example count of
distinct nodes at that level.

All three, and the sampler, read one kind's results as a per-example fold,
:class:`CheckedResults`: the one place where examples are numbered and each
distinct path set is stored once, as a sorted tuple of path numbers. A fold
made for a taxonomy numbers paths as the taxonomy does (``Taxonomy.paths``
and ``Taxonomy.path_index``) and refuses a path outside it; only a fold
made with no taxonomy numbers its paths itself. A :class:`MappingFolder`
numbers the examples once for every kind and builds one fold per kind, one
result at a time (from a mappings file in ``io.read_mapping_folds``, by
the path numbers that each line resolves to, as the CLI maps each result,
and in :func:`build_pool`, which folds results with no taxonomy).
:func:`check_results` is the one check of mapped paths against a taxonomy:
a fold made for that taxonomy passes as it is, and any other fold is
checked once per path number its sets use and renumbered into the
taxonomy's numbers, never re-folded. Coverage collects path
numbers per benchmark. Effort and breadth read a fold through
:class:`NodeSets`, which finds each path's node at the grouping level once
and builds the node set once per set id, so no per-example node table is
built: breadth's ``per_example`` holds one width per example.

All operations are pure functions of their inputs and invariant to input
order; :class:`CoverageAccumulator` provides an incremental form, which is
exactly equivalent to a from-scratch set union.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Sequence

from .mapping import MappingResult, MappingStatus
from .taxonomy import Taxonomy, TaxonomyKind, TaxonomyPath


class ForeignPathError(ValueError):
    """A mapping's paths belong to a different taxonomy than the one given."""


class GroupLevel(str, Enum):
    DOMAIN_FAMILY = "domain_family"
    SKILL_LEAF = "skill_leaf"


#: The level each kind's effort and breadth are reported at, and the only
#: level they may be grouped at.
REPORT_LEVEL = {
    TaxonomyKind.DOMAIN: GroupLevel.DOMAIN_FAMILY,
    TaxonomyKind.SKILL: GroupLevel.SKILL_LEAF,
}


def node_at_level(path: TaxonomyPath, level: GroupLevel) -> tuple[str, str]:
    """(node id, label) of the path's node at the grouping level."""
    if level is GroupLevel.DOMAIN_FAMILY:
        return path.node_ids[0], path.labels[0]
    return path.node_ids[-1], path.labels[-1]


MISSING = -1  # the set id of an example without a result of a fold's kind


class CheckedResults:
    """One ``kind`` of mapping results (by default ``taxonomy``'s) folded
    per example for ``taxonomy`` (``None`` for :func:`build_pool`'s folds,
    which :func:`check_results` checks as they are read): ``keys`` numbers
    the examples in first-seen order (shared by a :class:`MappingFolder`'s
    folds, which end with the tuple of keys), ``paths`` maps path numbers
    to paths, ``sets`` holds each distinct union of an example's mapped
    paths once, as the strictly increasing tuple of its path numbers, and
    ``ids`` each example's set id, :data:`MISSING` without a result of this
    kind. The tables and the sampler read only these.

    A fold for a taxonomy has no path table of its own: ``paths`` is the
    taxonomy's ``paths``, and :meth:`add` numbers a path by the taxonomy's
    ``path_index``. A fold with no taxonomy numbers each distinct mapped
    path in first-seen order, in a ``paths`` list of its own.
    """

    __slots__ = ("kind", "taxonomy", "keys", "paths", "sets", "ids", "_numbers", "_set_ids")

    def __init__(self, taxonomy: Taxonomy | None, keys: dict | None = None,
                 kind: TaxonomyKind | None = None):
        self.kind = taxonomy.kind if kind is None else kind
        self.taxonomy = taxonomy
        self.keys = {} if keys is None else keys
        self.paths: Sequence[TaxonomyPath] = [] if taxonomy is None else taxonomy.paths
        self.sets: list[tuple[int, ...]] = []
        self.ids = array("i")
        # path -> its index in ``paths``
        self._numbers: dict[TaxonomyPath, int] = {} if taxonomy is None else taxonomy.path_index
        self._set_ids: dict[tuple[int, ...], int] = {}

    def add(self, key: tuple[str, str], paths: frozenset[TaxonomyPath]) -> None:
        """Fold one result's mapped paths (empty for one not mapped) into
        its example's union, by their numbers (:meth:`add_numbers`). Raises
        :class:`ForeignPathError` for a path outside the fold's taxonomy."""
        numbers = self._numbers
        try:
            added = [numbers[path] for path in paths]
        except KeyError:  # a path this fold has not numbered yet
            if self.taxonomy is not None:
                path = min((p for p in paths if p not in numbers), key=str)
                raise ForeignPathError(f"path {path} from {key} is not in the "
                                       f"{self.taxonomy.kind.value} taxonomy") from None
            for path in paths:
                if path not in numbers:
                    numbers[path] = len(self.paths)
                    self.paths.append(path)
            added = [numbers[path] for path in paths]
        added.sort()
        self.add_numbers(key, tuple(added))

    def add_numbers(self, key: tuple[str, str], numbers: tuple[int, ...]) -> None:
        """Fold one result's path numbers, a strictly increasing tuple
        (empty for a result not mapped), into its example's union. The
        numbers are taken unchecked: a fold for a taxonomy reads them as
        that taxonomy's path numbers, which ``io.read_mapping_folds``
        resolves each line's label lists to."""
        number, ids, sets = self.keys.setdefault(key, len(self.keys)), self.ids, self.sets
        seen = number < len(ids)
        if seen and ids[number] != MISSING:
            numbers = tuple(sorted(set(sets[ids[number]]).union(numbers)))
        set_id = self._set_ids.setdefault(numbers, len(sets))
        if set_id == len(sets):
            sets.append(numbers)
        if seen:
            ids[number] = set_id
            return
        if number > len(ids):  # examples that only other kinds have results for
            ids.extend([MISSING] * (number - len(ids)))
        ids.append(set_id)


@dataclass(frozen=True)
class FoldedMappings:
    """Mapping results folded per example, with no result object kept.

    ``examples`` lists every example key once, by number; ``by_kind`` holds
    one fold per kind that has a result, with a set id for every example.
    The folds share one numbering, so only :meth:`MappingFolder.folded`
    builds one.
    """

    examples: tuple[tuple[str, str], ...]
    by_kind: dict[TaxonomyKind, CheckedResults]


class MappingFolder:
    """Builds a :class:`FoldedMappings` one result at a time.

    Each kind's fold is made for its entry in ``taxonomies`` and numbers a
    result's paths by that taxonomy's ``path_index``, so a path outside it
    raises :class:`ForeignPathError` and the taxonomy takes the fold without
    a further check; :meth:`add_numbers` takes numbers already resolved in
    that taxonomy. :func:`build_pool` folds with ``None`` in place of
    each taxonomy, so each fold numbers its paths itself, and
    :func:`check_results` checks and renumbers such a fold wherever it is
    read. A set is interned through a set to id dict, which :meth:`folded`
    drops.
    """

    __slots__ = ("_taxonomies", "_keys", "_folds")

    def __init__(self, taxonomies: Mapping[TaxonomyKind, Taxonomy | None]):
        self._taxonomies = taxonomies
        self._keys: dict[tuple[str, str], int] = {}  # example key -> number
        self._folds: dict[TaxonomyKind, CheckedResults] = {}

    def add(self, kind: TaxonomyKind, key: tuple[str, str],
            paths: frozenset[TaxonomyPath]) -> None:
        """Fold one result: its kind, its example's key, and its paths
        (empty unless it is mapped)."""
        self._fold(kind).add(key, paths)

    def add_numbers(self, kind: TaxonomyKind, key: tuple[str, str],
                    numbers: tuple[int, ...]) -> None:
        """Fold one result by its paths' numbers in its kind's taxonomy
        (:meth:`CheckedResults.add_numbers`); only for a folder made with a
        taxonomy of that kind."""
        self._fold(kind).add_numbers(key, numbers)

    def _fold(self, kind: TaxonomyKind) -> CheckedResults:
        fold = self._folds.get(kind)
        if fold is None:
            fold = self._folds[kind] = CheckedResults(self._taxonomies[kind], self._keys, kind)
        return fold

    def folded(self) -> FoldedMappings:
        """The folds, each with a set id for every example; they drop their
        lookup tables (path to number, set to id), so no result can be
        added to them.

        A repeated record replaces its example's set with a union, which
        may leave the old set unused. Each fold keeps only the sets that
        some example uses, renumbered in the order they were first added.
        """
        examples = tuple(self._keys)
        for fold in self._folds.values():
            fold.ids.extend([MISSING] * (len(examples) - len(fold.ids)))
            fold.keys, fold._numbers, fold._set_ids = examples, None, None
            in_use = sorted(set(fold.ids) - {MISSING})
            if len(in_use) < len(fold.sets):
                renumber = {old: new for new, old in enumerate(in_use)}
                fold.sets = [fold.sets[old] for old in in_use]
                fold.ids = array("i", [renumber.get(i, MISSING) for i in fold.ids])
        return FoldedMappings(examples, self._folds)


def build_pool(results: Iterable[MappingResult] | FoldedMappings) -> FoldedMappings:
    """Fold mapping results per example, each kind's paths into one set
    (:data:`MISSING`, read as no paths, for a kind without a result), with
    no taxonomy; a fold is returned as it is.

    Examples are numbered by first appearance in ``results``; that order
    is the sampling order unless the caller gives a seed.
    """
    if isinstance(results, FoldedMappings):
        return results
    folder = MappingFolder(dict.fromkeys(TaxonomyKind))
    for r in results:
        folder.add(r.taxonomy_kind, r.key, r.paths)
    return folder.folded()


def check_results(results: Iterable[MappingResult] | CheckedResults,
                  t: Taxonomy) -> CheckedResults:
    """The one check of mapped paths: every result must be of ``t``'s kind
    and every path in ``t``; returns the results' fold for ``t``.

    A fold made for ``t`` is returned as it is. Any other fold is checked
    once per path number that its sets use; the fold returned shares its
    ``keys`` and ``ids``, has ``t.paths`` as its ``paths``, and holds its
    ``sets`` renumbered into ``t``'s numbers. Results are folded by
    :func:`build_pool` first. Raises :class:`ForeignPathError` naming the
    first example, in first-seen order, that holds a foreign path.
    """
    if isinstance(results, CheckedResults):
        if results.taxonomy is t:
            return results
        folds = [results]
    else:  # a fold of another kind fails its check, so at most one passes
        folds = list(build_pool(results).by_kind.values()) or [CheckedResults(None, (), t.kind)]
    for fold in folds:
        examples = ((key, i) for key, i in zip(fold.keys, fold.ids) if i != MISSING)
        if fold.kind is not t.kind:
            for key, _ in examples:  # the first example with a result
                raise ForeignPathError(
                    f"result for {key} has kind {fold.kind.value}, taxonomy is {t.kind.value}")
        # each number the sets use, mapped to ``t``'s number for its path
        renumber = {j: t.path_index.get(fold.paths[j]) for j in set().union(*fold.sets)}
        foreign = {j for j, number in renumber.items() if number is None}
        if foreign:  # every set of a fold is some example's
            key, i = next((key, i) for key, i in examples if not foreign.isdisjoint(fold.sets[i]))
            path = min((fold.paths[j] for j in foreign.intersection(fold.sets[i])), key=str)
            raise ForeignPathError(f"path {path} from {key} is not in the {t.kind.value} taxonomy")
    checked = CheckedResults(t, fold.keys)
    checked.sets = [tuple(sorted(renumber[j] for j in s)) for s in fold.sets]
    checked.ids = fold.ids
    checked._numbers = checked._set_ids = None
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
    fold = check_results(results, t)
    by_benchmark: dict[str, set[int]] = {}  # benchmark -> the path numbers it covers
    for (benchmark, _), i in zip(fold.keys, fold.ids):
        if i != MISSING:
            by_benchmark.setdefault(benchmark, set()).update(fold.sets[i])
    covered = set().union(*by_benchmark.values())
    total = t.leaf_count
    return CoverageReport(
        taxonomy_kind=t.kind,
        covered_paths=frozenset(fold.paths[j] for j in covered),
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
    if REPORT_LEVEL[t.kind] is not level:
        raise ValueError(f"grouping level {level.value} is invalid for a {t.kind.value} taxonomy")


class NodeSets:
    """A fold's node sets at a grouping level, each built once.

    A node set is the sorted tuple of the distinct (node id, label) pairs
    that a path set reaches at ``level``; equal ones, and equal nodes, are
    one object. The fold is checked, so its numbers are its taxonomy's, and
    each of the taxonomy's paths has its node found once, in a list by path
    number. ``of_ids`` holds each set id's node set (``None`` if unused)
    and ``examples`` counts the examples per node set, which effort and
    breadth read, so each distinct set is counted once. Build it with
    :func:`node_sets` and pass it to :func:`effort_by_node` and
    :func:`breadth` in place of results to count both from one table.
    """

    __slots__ = ("fold", "of_ids", "examples")

    def __init__(self, fold: CheckedResults, level: GroupLevel):
        self.fold = fold
        self.of_ids: list[tuple[tuple[str, str], ...] | None] = [None] * len(fold.sets)
        self.examples: Counter[tuple[tuple[str, str], ...]] = Counter()
        shared: dict = {}  # each distinct node and node set once
        nodes_of = [shared.setdefault(node, node) for node in
                    (node_at_level(p, level) for p in fold.paths)]  # by path number
        for set_id in fold.ids:
            if set_id != MISSING:
                if self.of_ids[set_id] is None:
                    nodes = tuple(sorted({nodes_of[j] for j in fold.sets[set_id]}))
                    self.of_ids[set_id] = shared.setdefault(nodes, nodes)
                self.examples[self.of_ids[set_id]] += 1


def node_sets(results: Iterable[MappingResult] | CheckedResults | NodeSets,
              t: Taxonomy, level: GroupLevel) -> NodeSets:
    """The results' :class:`NodeSets` at ``level``, checked against ``t``
    as :func:`check_results` does. Node sets already built from a fold for
    ``t`` are returned as they are."""
    _validate_level(t, level)
    if isinstance(results, NodeSets):
        if results.fold.taxonomy is t:
            return results
        results = results.fold
    return NodeSets(check_results(results, t), level)


def effort_by_node(
    results: Iterable[MappingResult] | CheckedResults | NodeSets,
    t: Taxonomy,
    level: GroupLevel,
) -> EffortDistribution:
    """Benchmark effort per node: each example counts once per distinct node
    it reaches at the grouping level (family for domains, leaf activity for
    skills), never once per path. Each distinct node set is counted once,
    weighted by the number of examples that reach it."""
    sets = node_sets(results, t, level)
    counts: Counter[str] = Counter()
    labels: dict[str, str] = {}
    for nodes, examples in sets.examples.items():
        for node_id, label in nodes:
            counts[node_id] += examples
            labels[node_id] = label
    return EffortDistribution(
        group_level=level,
        counts=dict(sorted(counts.items())),
        labels=labels,
        total_examples=sum(sets.examples.values()),
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
    results: Iterable[MappingResult] | CheckedResults | NodeSets,
    t: Taxonomy,
    level: GroupLevel,
) -> BreadthStats:
    """Per-example breadth (distinct nodes at the grouping level) plus its
    histogram and summary shares. The histogram and shares count each
    distinct node set once, weighted by the number of examples that reach
    it; ``per_example`` maps each example to its node set's width."""
    sets = node_sets(results, t, level)
    per_example = {key: len(sets.of_ids[i]) for key, i in zip(sets.fold.keys, sets.fold.ids)
                   if i != MISSING}
    histogram: Counter[int] = Counter()
    for nodes, examples in sets.examples.items():
        histogram[len(nodes)] += examples
    n = len(per_example)

    def share(pred) -> float:
        return sum(c for width, c in histogram.items() if pred(width)) / n if n else 0.0

    return BreadthStats(
        group_level=level,
        per_example=per_example,
        histogram=dict(sorted(histogram.items())),
        share_zero=share(lambda v: v == 0),
        share_exactly_one=share(lambda v: v == 1),
        share_more_than_one=share(lambda v: v > 1),
        share_more_than_three=share(lambda v: v > 3),
        share_four_or_more=share(lambda v: v >= 4),
        mean_breadth=(sum(width * c for width, c in histogram.items()) / n) if n else 0.0,
    )
