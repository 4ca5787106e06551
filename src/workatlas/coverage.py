"""Taxonomy coverage, per-node effort, and per-example breadth.

Coverage is the fraction of a taxonomy's root-to-leaf paths touched by at
least one mapped example. Effort counts (example, node) incidences at the
taxonomy kind's grouping level (:data:`REPORT_LEVEL`: the family for
domains, the leaf for skills): an example increments each distinct node it
reaches once, however many of its paths land there. Breadth is the
per-example count of distinct nodes at that level.

All three, and the sampler, read one kind's results as a per-example fold,
:class:`CheckedResults`, which is plain columns: its examples by number
and each distinct path set once, as a sorted tuple of path numbers. A fold
made for a taxonomy numbers paths as the taxonomy does (``Taxonomy.paths``
and ``Taxonomy.path_index``) and refuses a path outside it; only a fold
made with no taxonomy numbers its paths itself. A :class:`MappingFolder`
is the one fold builder and alone holds the lookup tables that folding
needs (each example's number, and each kind's path and set numbers). It
numbers the examples once for every kind and builds one fold per kind, one
result at a time (from a mappings file in ``io.read_mapping_folds``, by
the path numbers that each line resolves to, as the CLI maps each result,
and in :func:`build_pool`, which folds results with no taxonomy), and it
drops those tables when it hands the folds out. The folds share one
:class:`ExampleKeys`, which holds the example keys as columns (a tuple of
benchmark names, an int per example into it, and the id strings) and
builds a ``(benchmark, example_id)`` tuple only when indexed or iterated.
:func:`check_results` is the one check of mapped paths against a taxonomy:
a fold made for that taxonomy passes as it is, and any other fold is
checked once per path number its sets use and renumbered into the
taxonomy's numbers, never re-folded. Coverage collects path numbers per
benchmark code, read from the benchmark column. Effort and breadth read a
fold through :class:`NodeSets`, which finds each path's node at the
grouping level once and builds the node set once per set id, so no
per-example table is built: breadth keeps its histogram and shares, and
builds its ``per_example`` widths only when they are read.

All operations are pure functions of their inputs and invariant to input
order; :class:`CoverageAccumulator` provides an incremental form, which is
exactly equivalent to a from-scratch set union.
"""

from __future__ import annotations

from array import array
from collections import Counter, abc
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Iterable, Mapping, Sequence

from .mapping import MappingResult, MappingStatus
from .taxonomy import Taxonomy, TaxonomyKind, TaxonomyPath


class ForeignPathError(ValueError):
    """A mapping's paths belong to a different taxonomy than the one given."""


class GroupLevel(str, Enum):
    DOMAIN_FAMILY = "domain_family"
    SKILL_LEAF = "skill_leaf"


#: The level each kind's effort and breadth are grouped and reported at.
REPORT_LEVEL = {
    TaxonomyKind.DOMAIN: GroupLevel.DOMAIN_FAMILY,
    TaxonomyKind.SKILL: GroupLevel.SKILL_LEAF,
}


def node_at_level(path: TaxonomyPath) -> tuple[str, str]:
    """(node id, label) of the path's node at its kind's grouping level."""
    if REPORT_LEVEL[path.taxonomy_kind] is GroupLevel.DOMAIN_FAMILY:
        return path.node_ids[0], path.labels[0]
    return path.node_ids[-1], path.labels[-1]


MISSING = -1  # the set id of an example without a result of a fold's kind


class ExampleKeys(abc.Sequence):
    """The ``(benchmark, example_id)`` keys of a fold's examples, by number,
    held as columns: ``benchmarks``, the tuple of benchmark names in
    first-seen order; ``codes``, an ``array("I")`` with one int per
    example, its benchmark's index in ``benchmarks``; and ``ids``, the
    example id strings. Indexing or iterating builds key tuples on demand
    (a slice gives a list of them); readers that need only the benchmark
    read ``codes``.
    """

    __slots__ = ("benchmarks", "codes", "ids")

    def __init__(self, benchmarks: tuple[str, ...], codes: array, ids: list[str]):
        self.benchmarks = benchmarks
        self.codes = codes
        self.ids = ids

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, n: int | slice) -> tuple[str, str] | list[tuple[str, str]]:
        if isinstance(n, slice):
            return list(zip(map(self.benchmarks.__getitem__, self.codes[n]), self.ids[n]))
        return self.benchmarks[self.codes[n]], self.ids[n]

    def __iter__(self):
        return zip(map(self.benchmarks.__getitem__, self.codes), self.ids)


class CheckedResults:
    """One ``kind`` of mapping results folded per example for ``taxonomy``
    (``None`` for :func:`build_pool`'s folds, which :func:`check_results`
    checks as they are read): ``keys`` numbers the examples in first-seen
    order (one :class:`ExampleKeys`, shared by a :class:`MappingFolder`'s
    folds), ``paths`` maps path numbers to paths (``taxonomy.paths`` for a
    fold with a taxonomy), ``sets`` holds each distinct union of an
    example's mapped paths once, as the strictly increasing tuple of its
    path numbers, and ``ids`` each example's set id, :data:`MISSING`
    without a result of this kind. The tables and the sampler read only
    these; only :meth:`MappingFolder.folded` and :func:`check_results`
    build one.
    """

    __slots__ = ("kind", "taxonomy", "keys", "paths", "sets", "ids")

    def __init__(self, kind: TaxonomyKind, taxonomy: Taxonomy | None, keys: ExampleKeys,
                 paths: Sequence[TaxonomyPath], sets: list[tuple[int, ...]], ids: array):
        self.kind = kind
        self.taxonomy = taxonomy
        self.keys = keys
        self.paths = paths
        self.sets = sets
        self.ids = ids


@dataclass(frozen=True)
class FoldedMappings:
    """Mapping results folded per example, with no result object kept.

    ``examples`` lists every example key once, by number, as the columns
    of one :class:`ExampleKeys`; ``by_kind`` holds one fold per kind that
    has a result, with a set id for every example. The folds share that
    numbering (each fold's ``keys`` is ``examples``), so only
    :meth:`MappingFolder.folded` builds one.
    """

    examples: ExampleKeys
    by_kind: dict[TaxonomyKind, CheckedResults]


class MappingFolder:
    """Builds a :class:`FoldedMappings` one result at a time, and alone
    holds the lookup tables that folding needs: a per-benchmark
    ``{example_id: number}`` index, which numbers the examples in
    first-seen order for every kind, and for each kind a path to number
    dict and a set to id dict.

    Each kind's fold is made for its entry in ``taxonomies`` and numbers a
    result's paths by that taxonomy's ``path_index``, so a path outside it
    raises :class:`ForeignPathError` and the taxonomy takes the fold without
    a further check; :meth:`add_numbers` takes numbers already resolved in
    that taxonomy. :func:`build_pool` folds with ``None`` in place of
    each taxonomy, so each fold numbers its paths itself, in first-seen
    order, and :func:`check_results` checks and renumbers such a fold
    wherever it is read. :meth:`folded` drops every lookup table.
    """

    __slots__ = ("_taxonomies", "_index", "_codes", "_ids", "_folds")

    def __init__(self, taxonomies: Mapping[TaxonomyKind, Taxonomy | None]):
        self._taxonomies = taxonomies
        # benchmark -> (its code, example id -> number)
        self._index: dict[str, tuple[int, dict[str, int]]] = {}
        self._codes, self._ids = array("I"), []
        # kind -> (path -> number, paths by number, sets, set id by example, set -> id)
        self._folds: dict[TaxonomyKind, tuple[dict, Sequence, list, array, dict]] = {}

    def add(self, kind: TaxonomyKind, key: tuple[str, str],
            paths: frozenset[TaxonomyPath]) -> None:
        """Fold one result: its kind, its example's key, and its paths
        (empty unless it is mapped), by their numbers (:meth:`add_numbers`).
        Raises :class:`ForeignPathError` for a path outside the kind's
        taxonomy, and then numbers no example."""
        numbers, by_number = self._fold(kind)[:2]
        try:
            added = [numbers[path] for path in paths]
        except KeyError:  # a path this fold has not numbered yet
            taxonomy = self._taxonomies[kind]
            if taxonomy is not None:
                path = min((p for p in paths if p not in numbers), key=str)
                raise ForeignPathError(f"path {path} from {key} is not in the "
                                       f"{taxonomy.kind.value} taxonomy") from None
            for path in paths:
                if path not in numbers:
                    numbers[path] = len(by_number)
                    by_number.append(path)
            added = [numbers[path] for path in paths]
        added.sort()
        self.add_numbers(kind, *key, tuple(added))

    def add_numbers(self, kind: TaxonomyKind, benchmark: str, example_id: str,
                    numbers: tuple[int, ...]) -> None:
        """Fold one result of example ``(benchmark, example_id)``, numbered
        at its first sight, by its paths' numbers, a strictly increasing
        tuple (empty for a result not mapped), into that example's union,
        building no key tuple. The numbers are taken unchecked: a fold for
        a taxonomy reads them as that taxonomy's path numbers, which
        ``io.read_mapping_folds`` resolves each line's label lists to."""
        entry = self._index.get(benchmark)
        if entry is None:
            entry = self._index[benchmark] = (len(self._index), {})
        code, numbered = entry
        number = numbered.get(example_id)
        if number is None:
            number = numbered[example_id] = len(self._ids)
            self._codes.append(code)
            self._ids.append(example_id)
        _, _, sets, ids, set_ids = self._fold(kind)
        seen = number < len(ids)
        if seen and ids[number] != MISSING:
            numbers = tuple(sorted(set(sets[ids[number]]).union(numbers)))
        set_id = set_ids.setdefault(numbers, len(sets))
        if set_id == len(sets):
            sets.append(numbers)
        if seen:
            ids[number] = set_id
            return
        if number > len(ids):  # examples that only other kinds have results for
            ids.extend(array("i", [MISSING]) * (number - len(ids)))
        ids.append(set_id)

    def _fold(self, kind: TaxonomyKind) -> tuple[dict, Sequence, list, array, dict]:
        fold = self._folds.get(kind)
        if fold is None:
            taxonomy = self._taxonomies[kind]
            numbering = ({}, []) if taxonomy is None else (taxonomy.path_index, taxonomy.paths)
            fold = self._folds[kind] = (*numbering, [], array("i"), {})
        return fold

    def folded(self) -> FoldedMappings:
        """The folds, each with a set id for every example. The folder
        drops its lookup tables before it scans the folds, so the scan's
        memory does not stack on theirs, and no result can be added after.

        A repeated record replaces its example's set with a union, which
        may leave the old set unused. Each fold keeps only the sets that
        some example uses, renumbered in the order they were first added.
        """
        keys = ExampleKeys(tuple(self._index), self._codes, self._ids)
        folds = [(kind, paths, sets, ids) for kind, (_, paths, sets, ids, _) in self._folds.items()]
        self._index = self._folds = None
        by_kind = {}
        for kind, paths, sets, ids in folds:
            ids.extend(array("i", [MISSING]) * (len(keys) - len(ids)))
            in_use = sorted(set(ids) - {MISSING})
            if len(in_use) < len(sets):
                renumber = {old: new for new, old in enumerate(in_use)}
                sets[:] = [sets[old] for old in in_use]
                ids[:] = array("i", [renumber.get(i, MISSING) for i in ids])
            by_kind[kind] = CheckedResults(kind, self._taxonomies[kind], keys, paths, sets, ids)
        return FoldedMappings(keys, by_kind)


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
        folds = list(build_pool(results).by_kind.values()) or [
            CheckedResults(t.kind, None, ExampleKeys((), array("I"), []), [], [], array("i"))]
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
    return CheckedResults(t.kind, t, fold.keys, t.paths,
                          [tuple(sorted(renumber[j] for j in s)) for s in fold.sets], fold.ids)


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
    by_code: dict[int, set[int]] = {}  # benchmark code -> the path numbers it covers
    for code, i in zip(fold.keys.codes, fold.ids):
        if i != MISSING:
            by_code.setdefault(code, set()).update(fold.sets[i])
    by_benchmark = {fold.keys.benchmarks[code]: s for code, s in by_code.items()}
    covered = set().union(*by_code.values())
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


class NodeSets:
    """A fold's node sets at its kind's grouping level, each built once.

    A node set is the sorted tuple of the distinct (node id, label) pairs
    that a path set reaches at that level; equal ones, and equal nodes, are
    one object. The fold is checked, so its numbers are its taxonomy's, and
    each of the taxonomy's paths has its node found once, in a list by path
    number. ``of_ids`` holds each set id's node set (``None`` if unused)
    and ``examples`` counts the examples per node set, which effort and
    breadth read, so each distinct set is counted once. Build it with
    :func:`node_sets` and pass it to :func:`effort_by_node` and
    :func:`breadth` in place of results to count both from one table.
    """

    __slots__ = ("fold", "of_ids", "examples")

    def __init__(self, fold: CheckedResults):
        self.fold = fold
        self.of_ids: list[tuple[tuple[str, str], ...] | None] = [None] * len(fold.sets)
        self.examples: Counter[tuple[tuple[str, str], ...]] = Counter()
        shared: dict = {}  # each distinct node and node set once
        nodes_of = [shared.setdefault(node, node) for node in
                    (node_at_level(p) for p in fold.paths)]  # by path number
        for set_id in fold.ids:
            if set_id != MISSING:
                if self.of_ids[set_id] is None:
                    nodes = tuple(sorted({nodes_of[j] for j in fold.sets[set_id]}))
                    self.of_ids[set_id] = shared.setdefault(nodes, nodes)
                self.examples[self.of_ids[set_id]] += 1


def node_sets(results: Iterable[MappingResult] | CheckedResults | NodeSets,
              t: Taxonomy) -> NodeSets:
    """The results' :class:`NodeSets`, checked against ``t`` as
    :func:`check_results` does. Node sets already built from a fold for
    ``t`` are returned as they are."""
    if isinstance(results, NodeSets):
        if results.fold.taxonomy is t:
            return results
        results = results.fold
    return NodeSets(check_results(results, t))


def effort_by_node(
    results: Iterable[MappingResult] | CheckedResults | NodeSets, t: Taxonomy
) -> EffortDistribution:
    """Benchmark effort per node: each example counts once per distinct node
    it reaches at ``t``'s grouping level (family for domains, leaf activity
    for skills), never once per path. Each distinct node set is counted
    once, weighted by the number of examples that reach it."""
    sets = node_sets(results, t)
    counts: Counter[str] = Counter()
    labels: dict[str, str] = {}
    for nodes, examples in sets.examples.items():
        for node_id, label in nodes:
            counts[node_id] += examples
            labels[node_id] = label
    return EffortDistribution(
        group_level=REPORT_LEVEL[t.kind],
        counts=dict(sorted(counts.items())),
        labels=labels,
        total_examples=sum(sets.examples.values()),
    )


@dataclass(frozen=True, eq=False)
class BreadthStats:
    """Distinct-node counts per example at a grouping level.

    Examples whose mappings are empty or invalid stay in the denominator
    with breadth 0; their share is reported explicitly. The summary is
    kept; the per-example widths are read from ``node_sets`` on request
    (:attr:`per_example`). Two stats are equal when their summaries and
    their per-example widths are.
    """

    group_level: GroupLevel
    histogram: dict[int, int]
    share_zero: float
    share_exactly_one: float
    share_more_than_one: float
    share_more_than_three: float
    share_four_or_more: float
    mean_breadth: float
    node_sets: NodeSets = field(repr=False, compare=False)

    @property
    def per_example(self) -> dict[tuple[str, str], int]:
        """Each example with a result of this kind, by number, mapped to
        its node set's width; a new dict, built on each call."""
        of_ids, fold = self.node_sets.of_ids, self.node_sets.fold
        return {key: len(of_ids[i]) for key, i in zip(fold.keys, fold.ids) if i != MISSING}

    def __eq__(self, other) -> bool:
        if not isinstance(other, BreadthStats):
            return NotImplemented
        return (all(getattr(self, f.name) == getattr(other, f.name)
                    for f in fields(self) if f.compare)
                and self.per_example == other.per_example)


def breadth(
    results: Iterable[MappingResult] | CheckedResults | NodeSets, t: Taxonomy
) -> BreadthStats:
    """Per-example breadth (distinct nodes at ``t``'s grouping level) as
    its histogram and summary shares, which count each distinct node set
    once, weighted by the number of examples that reach it; no
    per-example table is built unless ``per_example`` is read."""
    sets = node_sets(results, t)
    histogram: Counter[int] = Counter()
    for nodes, examples in sets.examples.items():
        histogram[len(nodes)] += examples
    n = sum(histogram.values())

    def share(pred) -> float:
        return sum(c for width, c in histogram.items() if pred(width)) / n if n else 0.0

    return BreadthStats(
        group_level=REPORT_LEVEL[t.kind],
        histogram=dict(sorted(histogram.items())),
        share_zero=share(lambda v: v == 0),
        share_exactly_one=share(lambda v: v == 1),
        share_more_than_one=share(lambda v: v > 1),
        share_more_than_three=share(lambda v: v > 3),
        share_four_or_more=share(lambda v: v >= 4),
        mean_breadth=(sum(width * c for width, c in histogram.items()) / n) if n else 0.0,
        node_sets=sets,
    )
