"""Coverage-aware sampling with a saturation stopping rule.

Examples are consumed in fixed-size batches; after each batch the coverage
gain that batch contributed is measured per taxonomy kind, and sampling
stops after the first batch whose gain falls below ``delta`` on every kind
under consideration (or when the pool runs out). ``delta`` is expressed in
absolute percentage points of taxonomy coverage per batch, so the default
0.1 stops once a batch adds less than a tenth of a point.

Permutation replays of the rule give an empirical view of how sensitive the
stop size and achieved coverage are to task ordering, and a Chao1 richness
estimate extrapolates how many distinct paths the pool plausibly holds
beyond the ones observed.

The rule runs on the pool's fold, which :func:`build_pool` makes from
results. Each kind's fold is checked against its taxonomy by
``coverage.check_results``, the one check of mapped paths, and then holds
each distinct path set as a tuple of its taxonomy's path numbers, which
the rule reads as they are, so coverage is a ``bytearray`` with a byte per
leaf and a counter. A random order is drawn lazily and sparsely, by a
forward Fisher-Yates (Durstenfeld) shuffle that fixes only the positions
the rule consumes and keeps only the positions a swap displaced, in a
dict, instead of the whole order. On pools of thousands of units the
rule typically stops after a few dozen, so a permutation costs its stop
size rather than the pool size, in time and in memory; its consumed
prefix is the same as that of a full shuffle drawn from the same seed.
"""

from __future__ import annotations

import math
import random
from array import array
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .coverage import MISSING, FoldedMappings, build_pool, check_results
from .mapping import MappingResult
from .taxonomy import Taxonomy, TaxonomyKind

POOLED_BENCHMARK = "pooled"


@dataclass(frozen=True)
class SamplingRun:
    benchmark: str
    selected: tuple[tuple[str, str], ...]
    batch_size: int
    delta: float
    stop_batch_index: int  # 1-based index of the batch that ended the run
    stopped_by: str  # "saturation" or "exhausted"
    coverage_trace: dict[TaxonomyKind, tuple[float, ...]]
    rng_seed: int | None

    @property
    def stop_size(self) -> int:
        return len(self.selected)

    def coverage_at_stop(self, kind: TaxonomyKind) -> float:
        trace = self.coverage_trace.get(kind, ())
        return trace[-1] if trace else 0.0


@dataclass
class _Replay:
    """One run of the stopping rule: ``order`` holds the unit indices
    consumed, ``distinct`` the number of paths covered per kind."""

    order: list[int]
    stop_batch_index: int
    stopped_by: str
    trace: list[list[float]]
    distinct: list[int]

    @property
    def stop_size(self) -> int:
        return len(self.order)


class _Sampler:
    """The stopping rule over one pool, in the form it replays fast.

    Each kind's fold is checked against its taxonomy by
    :func:`~workatlas.coverage.check_results`, whole, even when only one
    benchmark's examples form the pool. Both kinds share one id space,
    read from the checked folds' path numbers, which are their taxonomies':
    the first kind's path ``j`` is id ``j`` and the second kind's is ``~j``
    (-1, -2, -3, ...), so an id's sign tells its kind. Coverage is one
    ``bytearray`` of ``path_count`` bytes, one per leaf of the taxonomies,
    which negative ids index from its end, plus a counter per kind. A unit
    is one id tuple, shared by the examples with equal set ids. The
    benchmark label and the occurrence counts of the paths the pool uses
    are computed once too.
    """

    def __init__(
        self,
        pool: FoldedMappings,
        t_domain: Taxonomy | None,
        t_skill: Taxonomy | None,
        batch_size: int,
        delta: float,
        benchmark: str | None = None,
    ):
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if delta <= 0:
            raise ValueError(f"delta must be > 0, got {delta}")
        taxonomies = {
            kind: t
            for kind, t in ((TaxonomyKind.DOMAIN, t_domain), (TaxonomyKind.SKILL, t_skill))
            if t is not None
        }
        if not taxonomies:
            raise ValueError("at least one taxonomy is required")
        keys = pool.examples
        if benchmark is None:
            numbers: Sequence[int] = range(len(keys))
        else:  # a benchmark not in the pool has no code, and no example
            code = keys.benchmarks.index(benchmark) if benchmark in keys.benchmarks else None
            numbers = array("i", (n for n, c in enumerate(keys.codes) if c == code))
        if not numbers:
            raise ValueError("pool is empty")
        self.batch_size = batch_size
        self.delta = delta

        self.kinds = list(taxonomies)
        self.leaf_counts = [t.leaf_count for t in taxonomies.values()]
        self.examples, self.numbers = keys, numbers
        folds = [check_results(pool.by_kind[kind], t) if kind in pool.by_kind else None
                 for kind, t in taxonomies.items()]
        set_paths = [{MISSING: ()} for _ in self.kinds]  # per kind, set id -> path ids
        units: dict[tuple[int, ...], tuple[int, ...]] = {}  # set id per kind -> unit
        self.units: list[tuple[int, ...]] = []
        for n in numbers:
            set_ids = tuple(MISSING if fold is None else fold.ids[n] for fold in folds)
            if set_ids not in units:
                for k, set_id in enumerate(set_ids):
                    if set_id not in set_paths[k]:
                        numbered = folds[k].sets[set_id]
                        set_paths[k][set_id] = tuple(~j for j in numbered) if k else numbered
                units[set_ids] = sum((set_paths[k][i] for k, i in enumerate(set_ids)), ())
            self.units.append(units[set_ids])
        self.path_count = sum(self.leaf_counts)
        counts = [0] * self.path_count
        for ids in self.units:
            for i in ids:
                counts[i] += 1
        # a pool need not use every leaf: Chao1 reads only the paths it uses
        first = self.leaf_counts[0]
        self.occurrence = [[c for c in counts[:first] if c],
                           [c for c in counts[first:] if c]][:len(self.kinds)]
        names = keys.benchmarks if benchmark is None else (benchmark,)
        self.benchmark = names[0] if len(names) == 1 else POOLED_BENCHMARK

    def replay(self, rng: random.Random | None) -> _Replay:
        """Consume the pool batch by batch until the gain falls below delta.

        With an ``rng``, position ``i`` is filled just before it is consumed
        by swapping in position ``j``, uniform in ``[i, n)``: a forward
        Fisher-Yates (Durstenfeld) shuffle stopped where the rule stops, so
        the consumed prefix equals that of the full shuffle drawn from the
        same state. The shuffle is sparse: ``moved`` maps each position a
        swap displaced to the unit now there, and every other position still
        holds its own index, so no pool-sized list is built. ``j`` is drawn
        inline by the ``getrandbits`` rejection loop that
        ``rng.randrange(i, n)`` runs, which consumes the same random stream.
        """
        n = len(self.units)
        units = self.units
        getrandbits = rng.getrandbits if rng is not None else None
        order: list[int] = []
        moved: dict[int, int] = {}
        seen = bytearray(self.path_count)
        distinct = [0] * len(self.kinds)
        previous = [0.0] * len(self.kinds)
        trace: list[list[float]] = [[] for _ in self.kinds]
        stopped_by = "exhausted"
        batch_index = 0
        for start in range(0, n, self.batch_size):
            end = min(start + self.batch_size, n)
            batch_index += 1
            for i in range(start, end):
                if getrandbits is None:
                    u = i
                else:
                    width = n - i
                    bits = width.bit_length()
                    r = getrandbits(bits)
                    while r >= width:
                        r = getrandbits(bits)
                    j = i + r
                    u = moved.get(j, j)
                    moved[j] = moved.get(i, i)
                order.append(u)
                for p in units[u]:
                    if not seen[p]:
                        seen[p] = 1
                        distinct[p < 0] += 1
            saturated = True
            for k, leaf_count in enumerate(self.leaf_counts):
                current = distinct[k] / leaf_count
                trace[k].append(current)
                saturated &= (current - previous[k]) * 100.0 < self.delta
                previous[k] = current
            if saturated:
                stopped_by = "saturation"
                break
        return _Replay(order, batch_index, stopped_by, trace, distinct)


def sample_until_saturation(
    pool: Iterable[MappingResult] | FoldedMappings,
    t_domain: Taxonomy | None,
    t_skill: Taxonomy | None,
    batch_size: int = 5,
    delta: float = 0.1,
    rng_seed: int | None = None,
) -> SamplingRun:
    """Consume the pool batch by batch until coverage gain saturates.

    Parameters
    ----------
    pool : iterable of MappingResult, or FoldedMappings
        Results are folded by :func:`build_pool` first. Without ``rng_seed``
        the sampling order is the pool's example order.
    t_domain, t_skill : Taxonomy or None
        Coverage denominators. A kind whose taxonomy is ``None`` is ignored
        by the stopping rule; at least one must be given.
    batch_size, delta
        Batch size (>= 1) and stopping threshold (> 0), in percentage
        points. The run stops after the first batch whose gain is below
        ``delta`` on every considered kind.
    rng_seed : int or None
        When given, the order is a random one drawn from this seed: the
        same draw one permutation of :func:`permutation_sensitivity` makes
        from its sub-seed.

    Notes
    -----
    At least one batch is always consumed. Coverage traces are cumulative
    after each batch and therefore non-decreasing; they equal a from-scratch
    coverage computation on each selected prefix. A path that is not in its
    kind's taxonomy raises :class:`~workatlas.coverage.ForeignPathError`.
    """
    sampler = _Sampler(build_pool(pool), t_domain, t_skill, batch_size, delta)
    run = sampler.replay(None if rng_seed is None else random.Random(rng_seed))
    return SamplingRun(
        benchmark=sampler.benchmark,
        selected=tuple(sampler.examples[sampler.numbers[i]] for i in run.order),
        batch_size=batch_size,
        delta=delta,
        stop_batch_index=run.stop_batch_index,
        stopped_by=run.stopped_by,
        coverage_trace={kind: tuple(run.trace[k]) for k, kind in enumerate(sampler.kinds)},
        rng_seed=rng_seed,
    )


def chao1(observed_path_counts: Mapping[object, int] | Sequence[int]) -> float:
    """Chao1 richness estimate from path occurrence counts.

    With ``S_obs`` distinct paths, ``f1`` singletons and ``f2`` doubletons,
    the estimate is ``S_obs + f1^2 / (2 f2)``, falling back to the
    bias-corrected ``S_obs + f1 (f1 - 1) / (2 (f2 + 1))`` when there are no
    doubletons. The estimate never falls below ``S_obs`` and equals it
    exactly when there are no singletons.
    """
    counts = (
        list(observed_path_counts.values())
        if isinstance(observed_path_counts, Mapping)
        else list(observed_path_counts)
    )
    if not counts:
        raise ValueError("no observations")
    if any(c < 1 for c in counts):
        raise ValueError("all occurrence counts must be >= 1")
    s_obs = len(counts)
    f1 = sum(1 for c in counts if c == 1)
    f2 = sum(1 for c in counts if c == 2)
    if f2 > 0:
        return s_obs + (f1 * f1) / (2.0 * f2)
    return s_obs + (f1 * (f1 - 1)) / (2.0 * (f2 + 1))


@dataclass(frozen=True)
class SummaryStat:
    """Empirical distribution summary: median and 2.5/97.5 percentiles."""

    median: float
    ci_low: float
    ci_high: float
    mean: float

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "SummaryStat":
        ordered = sorted(float(v) for v in values)
        n = len(ordered)
        if not n:
            raise ValueError("no values to summarise")
        mid = n // 2
        median = ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2
        return cls(
            median=median,
            ci_low=_percentile(ordered, 2.5),
            ci_high=_percentile(ordered, 97.5),
            mean=math.fsum(ordered) / n,
        )


def _percentile(ordered: Sequence[float], q: float) -> float:
    """The ``q``-th percentile of sorted values by linear interpolation
    between closest ranks, rounded as numpy's default ``linear`` method
    does so that the two agree to the last bit."""
    h = (len(ordered) - 1) * (q / 100)
    lo = math.floor(h)
    if lo >= len(ordered) - 1:
        return ordered[-1]
    a, b = ordered[lo], ordered[lo + 1]
    t = h - lo
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


@dataclass(frozen=True)
class SensitivitySummary:
    """Stability of the stopping rule across random task orderings."""

    benchmark: str
    pool_size: int
    permutations: int
    batch_size: int
    delta: float
    rng_seed: int | None
    stop_size: SummaryStat
    stop_sizes: tuple[int, ...]
    coverage_at_stop: dict[TaxonomyKind, SummaryStat]
    paths_at_stop: dict[TaxonomyKind, SummaryStat]
    chao1_richness: dict[TaxonomyKind, float]
    chao1_coverage: dict[TaxonomyKind, SummaryStat]


def permutation_sensitivity(
    pool: Iterable[MappingResult] | FoldedMappings,
    t_domain: Taxonomy | None,
    t_skill: Taxonomy | None,
    batch_size: int = 5,
    delta: float = 0.1,
    permutations: int = 500,
    rng_seed: int | None = None,
    benchmark: str | None = None,
) -> SensitivitySummary:
    """Replay the stopping rule over random permutations of the pool.

    Each permutation draws its order from an independent 64-bit sub-seed
    taken from ``rng_seed``, so the whole analysis is reproducible from a
    single seed. The order is drawn lazily and sparsely: a forward
    Fisher-Yates shuffle fixes only the positions the rule consumes before
    it stops and records only the positions it displaced, which gives the
    same prefix as shuffling the whole pool with that sub-seed first.
    Reported coverage comes in two forms: raw taxonomy coverage at the stop
    point, and the number of distinct paths at stop relative to the pool's
    Chao1-estimated path richness. With ``benchmark``, only that
    benchmark's examples form the pool, though every example's paths are
    checked. The pool is read as in :func:`sample_until_saturation`.
    """
    if permutations < 1:
        raise ValueError(f"permutations must be >= 1, got {permutations}")
    sampler = _Sampler(build_pool(pool), t_domain, t_skill, batch_size, delta, benchmark)
    kinds = sampler.kinds
    richness = [chao1(counts) if counts else 0.0 for counts in sampler.occurrence]

    seed_source = random.Random(rng_seed)
    sub_seeds = [seed_source.getrandbits(64) for _ in range(permutations)]

    stop_sizes: list[int] = []
    cov_at_stop: list[list[float]] = [[] for _ in kinds]
    paths_at_stop: list[list[float]] = [[] for _ in kinds]
    chao1_cov: list[list[float]] = [[] for _ in kinds]
    for sub_seed in sub_seeds:
        run = sampler.replay(random.Random(sub_seed))
        stop_sizes.append(run.stop_size)
        for k, distinct in enumerate(run.distinct):
            cov_at_stop[k].append(run.trace[k][-1])
            paths_at_stop[k].append(float(distinct))
            chao1_cov[k].append(distinct / richness[k] if richness[k] else 0.0)

    def summarise(values: list[list[float]]) -> dict[TaxonomyKind, SummaryStat]:
        return {kind: SummaryStat.from_values(values[k]) for k, kind in enumerate(kinds)}

    return SensitivitySummary(
        benchmark=sampler.benchmark,
        pool_size=len(sampler.units),
        permutations=permutations,
        batch_size=batch_size,
        delta=delta,
        rng_seed=rng_seed,
        stop_size=SummaryStat.from_values([float(s) for s in stop_sizes]),
        stop_sizes=tuple(stop_sizes),
        coverage_at_stop=summarise(cov_at_stop),
        paths_at_stop=summarise(paths_at_stop),
        chao1_richness=dict(zip(kinds, richness)),
        chao1_coverage=summarise(chao1_cov),
    )
