"""Map benchmark task instances to taxonomy paths and grade the mappings.

Every candidate label sequence an annotator proposes is validated against
the taxonomy before it is kept; a mapping's status records whether the
annotator produced usable paths (``mapped``), nothing (``empty``), or only
unresolvable candidates (``invalid``). Each result carries the raw
annotator output verbatim, and the mappings file it is written to keeps it,
so any corpus can be re-audited or replayed later. A corpus is mapped in
order on the calling thread, or with ``parallelism > 1`` through a thread
pool, which only such a run imports. :func:`iter_map_corpus` yields each
result in input order as it is ready, so a caller can write and fold it and
keep none; :func:`map_corpus` collects them into a list.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .annotate import Annotator, AnnotatorTransportError, parse_candidates
from .taxonomy import (
    PathResolutionError,
    ReadOnlyEmptyDict,
    Taxonomy,
    TaxonomyKind,
    TaxonomyPath,
    flatten_for_prompt,
    resolve_path,
)


#: The metadata of every example that has none.
NO_METADATA = ReadOnlyEmptyDict()


@dataclass(frozen=True, slots=True)
class TaskExample:
    """One benchmark task instance; (benchmark, example_id) identifies it.
    An example without metadata holds :data:`NO_METADATA`, which is
    read-only."""

    benchmark: str
    example_id: str
    instruction: str
    metadata: dict = field(default_factory=lambda: NO_METADATA, compare=False)

    @property
    def key(self) -> tuple[str, str]:
        return (self.benchmark, self.example_id)


class MappingStatus(str, Enum):
    MAPPED = "mapped"
    EMPTY = "empty"
    INVALID = "invalid"


@dataclass(frozen=True, slots=True)
class MappingResult:
    """Validated paths for one (example, taxonomy kind) pair."""

    benchmark: str
    example_id: str
    taxonomy_kind: TaxonomyKind
    paths: frozenset[TaxonomyPath]
    status: MappingStatus
    raw_annotator_output: str
    annotator_id: str

    def __post_init__(self):
        if (self.status is MappingStatus.MAPPED) != bool(self.paths):
            raise ValueError(
                f"status {self.status.value} inconsistent with {len(self.paths)} paths"
            )

    @property
    def key(self) -> tuple[str, str]:
        return (self.benchmark, self.example_id)


class Verdict(str, Enum):
    ALL_CORRECT = "all_correct"
    ALL_WRONG = "all_wrong"
    MISSING = "missing"
    EXTRA = "extra"


@dataclass(frozen=True)
class RubricVerdict:
    verdict: Verdict
    notes: str | None = None


class CorpusError(ValueError):
    """A corpus-level precondition failed (duplicate ids, bad input)."""


class CorpusMappingAborted(RuntimeError):
    """Transport failure exceeded the retry budget mid-corpus.

    ``partial_results`` holds every result completed before the abort, in
    input order, so callers can persist them before re-raising or exiting.
    """

    def __init__(self, cause: AnnotatorTransportError, partial_results: list[MappingResult]):
        self.cause = cause
        self.partial_results = partial_results
        super().__init__(f"corpus mapping aborted: {cause}")


def map_example(example: TaskExample, t: Taxonomy, annotator: Annotator) -> MappingResult:
    """Map one example onto a taxonomy via the annotator.

    Candidates are validated one by one: the result is ``mapped`` with the
    resolvable subset (deduplicated) if at least one candidate resolves,
    ``empty`` if the annotator returned no candidates at all, and
    ``invalid`` if candidates were present but none resolved.
    """
    raw = annotator.annotate(example.instruction, flatten_for_prompt(t))
    return _result_from_raw(example, t, annotator.annotator_id, raw, _outcome(t, raw))


def _result_from_raw(
    example: TaskExample,
    t: Taxonomy,
    annotator_id: str,
    raw: str,
    outcome: tuple[frozenset[TaxonomyPath], MappingStatus],
) -> MappingResult:
    paths, status = outcome
    return MappingResult(
        benchmark=example.benchmark,
        example_id=example.example_id,
        taxonomy_kind=t.kind,
        paths=paths,
        status=status,
        raw_annotator_output=raw,
        annotator_id=annotator_id,
    )


def _outcome(t: Taxonomy, raw: str) -> tuple[frozenset[TaxonomyPath], MappingStatus]:
    """The resolvable paths of one annotator output and the status they give."""
    sequences, parse_failures = parse_candidates(raw)
    resolved: set[TaxonomyPath] = set()
    unresolved = 0
    for seq in sequences:
        try:
            resolved.add(resolve_path(t, seq))
        except PathResolutionError:
            unresolved += 1
    if resolved:
        status = MappingStatus.MAPPED
    elif parse_failures or unresolved:
        status = MappingStatus.INVALID
    else:
        status = MappingStatus.EMPTY
    return frozenset(resolved), status


def map_corpus(
    corpus: Sequence[TaskExample],
    t: Taxonomy,
    annotator: Annotator,
    parallelism: int = 1,
) -> list[MappingResult]:
    """Map a corpus; results come back in input order regardless of
    completion order.

    The list form of :func:`iter_map_corpus`, with its checks and errors,
    except that a :class:`CorpusMappingAborted` holds every result completed
    before the abort in ``partial_results``.
    """
    results: list[MappingResult] = []
    try:
        for result in iter_map_corpus(corpus, t, annotator, parallelism):
            results.append(result)
    except CorpusMappingAborted as err:
        err.partial_results = results
        raise
    return results


def iter_map_corpus(
    corpus: Sequence[TaskExample],
    t: Taxonomy,
    annotator: Annotator,
    parallelism: int = 1,
) -> Iterator[MappingResult]:
    """Map a corpus, yielding each result in input order as soon as it and
    every result before it are complete.

    Examples with an empty instruction are rejected at ingest (no result is
    produced for them). Duplicate (benchmark, example_id) keys are a corpus
    corruption and raise :class:`CorpusError` here, before any annotator
    call. A transport failure that survives the annotator's retry budget
    aborts the run: with ``parallelism > 1``, examples not yet started when
    it surfaces are cancelled and running ones finish. Every result completed
    before the abort is yielded, in input order, and then
    :class:`CorpusMappingAborted` is raised with empty ``partial_results``,
    since the caller holds them already.

    Annotators often return the same output for different examples. Each
    distinct output is parsed and resolved once per call, and the results
    that share it share one path set.
    """
    if parallelism < 1:
        raise ValueError(f"parallelism must be >= 1, got {parallelism}")
    valid = [e for e in corpus if e.instruction.strip()]
    seen: set[tuple[str, str]] = set()
    for e in valid:
        if e.key in seen:
            raise CorpusError(f"duplicate example key {e.key}")
        seen.add(e.key)

    taxonomy_text = flatten_for_prompt(t)
    outcomes: dict[str, tuple[frozenset[TaxonomyPath], MappingStatus]] = {}

    def run_one(example: TaskExample) -> MappingResult:
        raw = annotator.annotate(example.instruction, taxonomy_text)
        outcome = outcomes.get(raw)
        if outcome is None:
            # setdefault is atomic, so racing workers keep the first outcome
            outcome = outcomes.setdefault(raw, _outcome(t, raw))
        return _result_from_raw(example, t, annotator.annotator_id, raw, outcome)

    if parallelism == 1:
        return _map_in_order(valid, run_one)
    return _map_in_pool(valid, run_one, parallelism)


def _map_in_order(
    valid: list[TaskExample], run_one: Callable[[TaskExample], MappingResult]
) -> Iterator[MappingResult]:
    for e in valid:
        try:
            result = run_one(e)
        except AnnotatorTransportError as err:
            raise CorpusMappingAborted(err, []) from err
        yield result


def _map_in_pool(
    valid: list[TaskExample],
    run_one: Callable[[TaskExample], MappingResult],
    parallelism: int,
) -> Iterator[MappingResult]:
    # Imported here so a sequential run never loads the thread pool.
    from concurrent.futures import ThreadPoolExecutor, as_completed

    with ThreadPoolExecutor(max_workers=parallelism) as pool:
        futures = [pool.submit(run_one, e) for e in valid]
        ready = 0  # futures[:ready] were yielded, and dropped so their results can go
        try:
            for future in as_completed(futures):
                future.result()
                while ready < len(futures) and futures[ready].done():
                    result = futures[ready].result()
                    futures[ready] = None
                    ready += 1
                    yield result
        except AnnotatorTransportError as err:
            # Examples not yet started are never sent; running ones finish.
            pool.shutdown(cancel_futures=True)
            for f in futures[ready:]:
                if not f.cancelled() and f.exception() is None:
                    yield f.result()
            raise CorpusMappingAborted(err, []) from err
        finally:
            # A caller that stops early leaves nothing queued to run.
            pool.shutdown(wait=False, cancel_futures=True)


@dataclass(frozen=True)
class OutcomeStats:
    """Mapping-outcome fractions for one (taxonomy kind, benchmark) group."""

    taxonomy_kind: TaxonomyKind
    benchmark: str  # "(all)" for the pooled per-kind row
    total: int
    mapped: int
    empty: int
    invalid: int

    @property
    def fractions(self) -> dict[str, float]:
        return {
            "mapped": self.mapped / self.total,
            "empty": self.empty / self.total,
            "invalid": self.invalid / self.total,
        }


POOLED = "(all)"


def mapping_outcome_stats(results: Iterable[MappingResult]) -> list[OutcomeStats]:
    """Outcome counts and fractions per taxonomy kind, per benchmark and
    pooled. Fractions within each group sum to 1 (each result has exactly
    one status). Empty input yields an empty table.
    """
    return outcome_stats(Counter((r.taxonomy_kind, r.benchmark, r.status) for r in results))


def outcome_stats(
    counts: Mapping[tuple[TaxonomyKind, str, MappingStatus], int]
) -> list[OutcomeStats]:
    """The table of :func:`mapping_outcome_stats` from the number of results
    per (kind, benchmark, status), for a caller that counted them as they
    arrived."""
    counters: dict[tuple[TaxonomyKind, str], dict[MappingStatus, int]] = {}
    for (kind, benchmark, status), n in counts.items():
        for bench in (benchmark, POOLED):
            group = counters.setdefault((kind, bench), dict.fromkeys(MappingStatus, 0))
            group[status] += n
    rows = []
    for (kind, bench), counts in sorted(
        counters.items(), key=lambda kv: (kv[0][0].value, kv[0][1])
    ):
        total = sum(counts.values())
        rows.append(
            OutcomeStats(
                taxonomy_kind=kind,
                benchmark=bench,
                total=total,
                mapped=counts[MappingStatus.MAPPED],
                empty=counts[MappingStatus.EMPTY],
                invalid=counts[MappingStatus.INVALID],
            )
        )
    return rows


def score_against_reference(
    predicted: frozenset[TaxonomyPath] | set[TaxonomyPath],
    reference: frozenset[TaxonomyPath] | set[TaxonomyPath],
) -> RubricVerdict:
    """Grade a predicted path set against a reference set.

    The four canonical set relations map to the four verdicts: equality is
    ``all_correct``, disjointness (with a non-empty prediction) is
    ``all_wrong``, a strict subset is ``missing``, a strict superset is
    ``extra``. Partial overlap that is neither subset nor superset is graded
    ``extra`` with the missing elements recorded in the notes, since the set
    both contains extraneous paths and lacks required ones.
    """
    predicted = frozenset(predicted)
    reference = frozenset(reference)
    if not predicted and not reference:
        raise ValueError("nothing to judge: both path sets are empty")
    if predicted == reference:
        return RubricVerdict(Verdict.ALL_CORRECT)
    if predicted and not (predicted & reference):
        return RubricVerdict(Verdict.ALL_WRONG)
    if predicted < reference:
        return RubricVerdict(Verdict.MISSING)
    if reference < predicted:
        return RubricVerdict(Verdict.EXTRA)
    missing = sorted(str(p) for p in reference - predicted)
    return RubricVerdict(Verdict.EXTRA, notes="also missing: " + "; ".join(missing))


def agreement_rate(
    verdicts_a: Sequence[RubricVerdict], verdicts_b: Sequence[RubricVerdict]
) -> float:
    """Fraction of aligned positions where both judges gave the same verdict.

    This is the rubric's judge-agreement figure; no command reports it, and
    the library keeps it for callers that score mappings with two judges.
    """
    if len(verdicts_a) != len(verdicts_b):
        raise ValueError(
            f"verdict lists differ in length: {len(verdicts_a)} vs {len(verdicts_b)}"
        )
    if not verdicts_a:
        raise ValueError("no verdicts to compare")
    same = sum(1 for a, b in zip(verdicts_a, verdicts_b) if a.verdict == b.verdict)
    return same / len(verdicts_a)
