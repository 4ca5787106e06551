"""Task complexity, success-rate curves, autonomy levels, and the advisor.

A workflow is a tree of goal-directed steps with a binary success status on
every node; the leaves are the most granular steps. A node's complexity is
its leaf-descendant count (taken reflexively, so a leaf is a one-step task
of complexity 1). Pooling all nodes of a group by complexity level gives
the group's success-rate curve, and the autonomy level is the highest
sufficiently-sampled level whose success rate clears the threshold.

A curve needs only each node's complexity and status. :func:`walk_workflow`
checks a trajectory document and yields every node with its leaf count, and
one walk serves two readers: :func:`count_levels` folds it into per-level
``[successes, totals]`` counts, which is all the CLI keeps of a workflow,
and :func:`workflow_from_document` builds the :class:`WorkflowNode` tree
that library callers walk (per-node grouping, ordering validation).
:func:`success_rates` and :func:`rates_from_counts` pool either into curves
the same way.

The advisor consults the curves matched to a task's domains/skills and
recommends end-to-end delegation, decomposition into simpler subtasks, or
reports that the data cannot support either call.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .annotate import Annotator
from .mapping import TaskExample

UNATTRIBUTED = "unattributed"

#: One-sided 95% normal quantile, used for the lower-confidence-bound mode.
_Z_ONE_SIDED_95 = 1.6448536269514722

#: What a threshold is applied to: the raw success rate or its lower bound.
_CONFIDENCE_MODES = ("raw", "lcb")


@dataclass(slots=True)
class WorkflowNode:
    """One hierarchical workflow step; roots carry trajectory metadata.

    ``leaves`` is the node's leaf-descendant count (1 for a leaf), fixed
    when the node is built from its already-built children; a node's
    children are not reassigned afterwards. Trees built from documents give
    every non-root node an empty metadata dict.
    """

    id: str
    description: str
    status: int  # 0 failure, 1 success; a true or false value is stored as 1 or 0
    children: tuple["WorkflowNode", ...] = ()
    metadata: dict = field(default_factory=dict)
    leaves: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.status not in (0, 1):
            raise ValueError(_status_error(self.id, self.status))
        self.status = 1 if self.status else 0
        leaves = 0
        for child in self.children:
            leaves += child.leaves
        self.leaves = leaves or 1

    @property
    def is_leaf(self) -> bool:
        return not self.children


def iter_nodes(root: WorkflowNode) -> Iterator[WorkflowNode]:
    stack = [root]
    while stack:
        n = stack.pop()
        yield n
        stack.extend(reversed(n.children))


def _where_text(where: str | tuple) -> str:
    """``root.children[0].children[2]`` from nested (location, index) pairs."""
    steps = []
    while isinstance(where, tuple):
        where, i = where
        steps.append(f".children[{i}]")
    return where + "".join(reversed(steps))


def _status_error(node_id: str, status) -> str:
    return f"node {node_id!r}: status must be 0 or 1, got {status!r}"


def walk_workflow(doc: Mapping) -> Iterator[tuple[dict, str, int, int]]:
    """``(node document, id, status, leaves)`` for every node of a trajectory
    document's tree, in post-order, checking the tree as it goes.

    A node is checked when it is entered, in pre-order: it is an object with
    ``id``, ``description`` and ``status``, and ``children``, if given, is an
    array. Its status is checked when it is left, after its children, and is
    yielded as the integer 0 or 1 (``true``/``false`` and ``0.0``/``1.0``
    are accepted). Node ids must be unique within the trajectory; a
    repeated id is reported, for the first repeat in pre-order, only once
    the whole tree has been walked without any other error. The walk is
    iterative, so tree depth is bounded by memory alone.
    """
    if "root" not in doc:
        raise ValueError("workflow document missing 'root'")
    seen: set[str] = set()
    repeated = None
    # Leaf counts of the nodes left whose parent is not: the last n belong
    # to the children of the next node left with n children.
    leaf_counts: list[int] = []
    # (node document, location, None) enters a node; (node document, id,
    # child count) leaves it. A child's location is kept as (parent
    # location, index) and spelled out only for an error.
    stack: list[tuple] = [(doc["root"], "root", None)]
    while stack:
        node_doc, where, child_count = stack.pop()
        if child_count is None:
            if not isinstance(node_doc, dict):
                raise ValueError(f"{_where_text(where)}: workflow node must be an object")
            for key in ("id", "description", "status"):
                if key not in node_doc:
                    raise ValueError(f"{_where_text(where)}: workflow node missing {key!r}")
            child_docs = node_doc.get("children", [])
            if not isinstance(child_docs, list):
                raise ValueError(f"{_where_text(where)}: workflow node children must be an array")
            node_id = str(node_doc["id"])
            if repeated is None and node_id in seen:
                repeated = node_id
            seen.add(node_id)
            if child_docs:
                stack.append((node_doc, node_id, len(child_docs)))
                for i in range(len(child_docs) - 1, -1, -1):
                    stack.append((child_docs[i], (where, i), None))
                continue
            leaves = 1
        else:
            node_id = where
            leaves = sum(leaf_counts[-child_count:])
            del leaf_counts[-child_count:]
        status = node_doc["status"]
        if status not in (0, 1):
            raise ValueError(_status_error(node_id, status))
        leaf_counts.append(leaves)
        yield node_doc, node_id, 1 if status else 0, leaves
    if repeated is not None:
        raise ValueError(f"workflow node id {repeated!r} is not unique")


def workflow_from_document(doc: Mapping) -> WorkflowNode:
    """Build a workflow tree from a trajectory document.

    The document has ``{benchmark, agent, model, trajectory_id, root}``;
    tree metadata lands on the root node. The tree is checked as
    :func:`walk_workflow` checks it, and each node is built once its
    children are. Only the root gets metadata; every other node keeps an
    empty dict.
    """
    built: list[WorkflowNode] = []
    for node_doc, node_id, status, _ in walk_workflow(doc):
        first_child = len(built) - len(node_doc.get("children", ()))
        children = tuple(built[first_child:])
        del built[first_child:]
        built.append(
            WorkflowNode(
                id=node_id,
                description=node_doc["description"],
                status=status,
                children=children,
            )
        )
    root = built[0]
    root.metadata = {
        k: doc[k] for k in ("benchmark", "agent", "model", "trajectory_id") if k in doc
    }
    return root


def count_levels(doc: Mapping, levels: dict[int, list[int]]) -> dict[int, list[int]]:
    """Add every node of a trajectory document to ``levels``, which maps a
    complexity level to ``[successes, totals]``, and return it.

    The document is checked as :func:`workflow_from_document` checks it,
    with the same errors in the same order, but no node is built. On an
    error, ``levels`` holds the nodes counted before it.
    """
    for _, _, status, leaves in walk_workflow(doc):
        bucket = levels.get(leaves)
        if bucket is None:
            bucket = levels[leaves] = [0, 0]
        bucket[0] += status
        bucket[1] += 1
    return levels


def complexity(root: WorkflowNode) -> dict[str, int]:
    """Leaf-descendant count per node id.

    Leaves have complexity 1 (the node itself is the one granular step);
    an internal node's complexity is the sum over its children, which is
    exactly its total leaf count. Each node carries it as ``leaves``.
    """
    if root is None:
        raise ValueError("empty workflow tree")
    return {node.id: node.leaves for node in iter_nodes(root)}


@dataclass(frozen=True)
class LevelStats:
    successes: int
    totals: int

    def __post_init__(self):
        if not 0 <= self.successes <= self.totals or self.totals < 1:
            raise ValueError(f"bad level counts {self.successes}/{self.totals}")

    @property
    def sr(self) -> float:
        return self.successes / self.totals

    @property
    def lcb(self) -> float:
        """One-sided 95% Wilson lower bound on the success rate."""
        n, z = self.totals, _Z_ONE_SIDED_95
        p = self.sr
        denom = 1 + z * z / n
        center = p + z * z / (2 * n)
        spread = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
        return max(0.0, (center - spread) / denom)

    def metric(self, confidence_mode: str) -> float:
        """The rate a threshold is applied to: ``lcb`` in lcb mode, else ``sr``."""
        return self.lcb if confidence_mode == "lcb" else self.sr


@dataclass(frozen=True)
class AutonomyCurve:
    """Per-complexity-level success statistics for one group."""

    group_key: str
    levels: dict[int, LevelStats]
    threshold: float | None = None
    autonomy: int | None = None
    non_monotonic_levels: tuple[int, ...] = ()

    @property
    def total_nodes(self) -> int:
        return sum(s.totals for s in self.levels.values())


@dataclass(frozen=True, slots=True)
class LevelCounts:
    """The nodes of the workflows whose roots share ``metadata``, counted per
    complexity level as ``{leaves: [successes, totals]}``.

    A grouping reads ``metadata`` as it reads a root's, so
    :func:`rates_from_counts` groups these as :func:`success_rates` groups
    the trees they were counted from.
    """

    metadata: Mapping
    levels: dict[int, list[int]] = field(default_factory=dict)


#: The group keys of a workflow root. The named groupings read only its
#: ``metadata``, which :class:`LevelCounts` carry too.
GroupFn = Callable[[WorkflowNode], Sequence[str]]

#: The root metadata fields a workflow can be grouped by.
GROUP_FIELDS = ("benchmark", "agent", "model")


def group_name(value) -> str:
    """The group a root metadata value names; a missing or empty value
    names ``"unattributed"``."""
    return str(value) if value not in (None, "") else UNATTRIBUTED


def _metadata_grouper(key: str) -> GroupFn:
    def group(root: WorkflowNode) -> Sequence[str]:
        return [group_name(root.metadata.get(key))]

    return group


def _group_fn(grouping: str | GroupFn) -> GroupFn:
    if callable(grouping):
        return grouping
    if grouping == "overall":
        return lambda root: ["overall"]
    return _metadata_grouper(grouping)


def with_overall(grouping: str | GroupFn) -> GroupFn:
    """``grouping`` plus the ``"overall"`` group, which every workflow joins
    exactly once, even one whose own group is named ``overall``.

    ``success_rates(w, with_overall(g))`` equals
    ``{**success_rates(w, g), **success_rates(w, "overall")}`` in one pass.
    """
    group_fn = _group_fn(grouping)

    def group(root: WorkflowNode) -> list[str]:
        groups = list(group_fn(root)) or [UNATTRIBUTED]
        return [g for g in groups if g != "overall"] + ["overall"]

    return group


def _pool(counted: Iterable[tuple[Sequence[str], Mapping[int, Sequence[int]]]]
          ) -> dict[str, AutonomyCurve]:
    """Curves from ``(groups, {leaves: [successes, totals]})`` pairs: each
    pair's counts join every group it names, or ``"unattributed"`` if it
    names none."""
    acc: dict[str, dict[int, list[int]]] = {}
    for groups, levels in counted:
        for g in list(groups) or [UNATTRIBUTED]:
            by_level = acc.setdefault(g, {})
            for leaves, (successes, totals) in levels.items():
                bucket = by_level.setdefault(leaves, [0, 0])
                bucket[0] += successes
                bucket[1] += totals
    return {
        g: AutonomyCurve(
            group_key=g,
            levels={
                k: LevelStats(successes=v[0], totals=v[1])
                for k, v in sorted(by_level.items())
            },
        )
        for g, by_level in sorted(acc.items())
    }


def _tree_levels(root: WorkflowNode) -> dict[int, list[int]]:
    levels: dict[int, list[int]] = {}
    for node in iter_nodes(root):
        bucket = levels.setdefault(node.leaves, [0, 0])
        bucket[0] += node.status
        bucket[1] += 1
    return levels


def success_rates(
    workflows: Sequence[WorkflowNode],
    grouping: str | GroupFn = "overall",
    node_group_fn: GroupFn | None = None,
) -> dict[str, AutonomyCurve]:
    """Build success-rate curves, pooling all nodes of each group by level.

    ``grouping`` may be ``"overall"``, a root metadata field (``benchmark``,
    ``agent``, ``model``), or a callable returning the group keys a workflow
    belongs to (e.g. the domains of its source task); a workflow in several
    groups contributes its nodes to each. Workflows whose group cannot be
    resolved pool under ``"unattributed"`` rather than being dropped.
    ``node_group_fn`` switches attribution to per-node granularity.
    """
    if node_group_fn is not None:
        return _pool((node_group_fn(node), {node.leaves: (node.status, 1)})
                     for root in workflows for node in iter_nodes(root))
    group_fn = _group_fn(grouping)
    return _pool((group_fn(root), _tree_levels(root)) for root in workflows)


def rates_from_counts(
    counts: Iterable[LevelCounts], grouping: str | GroupFn = "overall"
) -> dict[str, AutonomyCurve]:
    """:func:`success_rates` of level counts: the same curves as from the
    trees the counts were taken from, for any grouping that reads only the
    counts' ``metadata``."""
    group_fn = _group_fn(grouping)
    return _pool((group_fn(c), c.levels) for c in counts)


def autonomy_level(
    curve: AutonomyCurve,
    threshold: float,
    min_samples: int = 10,
    confidence_mode: str = "raw",
) -> AutonomyCurve:
    """Assess a curve: the autonomy level is the literal maximum complexity
    whose success rate meets the threshold with enough samples.

    Levels below the returned one that fail the threshold are flagged as
    non-monotonic rather than hidden. ``confidence_mode="lcb"`` applies the
    threshold to the one-sided 95% lower confidence bound instead of the
    raw rate. Returns a copy of the curve with the assessment filled in.
    """
    if not (0 < threshold <= 1):
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")
    if min_samples < 1:
        raise ValueError(f"min_samples must be >= 1, got {min_samples}")
    if confidence_mode not in _CONFIDENCE_MODES:
        raise ValueError(f"confidence_mode must be {' or '.join(map(repr, _CONFIDENCE_MODES))}, "
                         f"got {confidence_mode!r}")

    rates = {
        k: s.metric(confidence_mode) for k, s in curve.levels.items() if s.totals >= min_samples
    }
    passing = [k for k, r in rates.items() if r >= threshold]
    level = max(passing) if passing else None
    flags = (
        tuple(sorted(k for k, r in rates.items() if k < level and r < threshold))
        if level is not None
        else ()
    )
    return replace(curve, threshold=threshold, autonomy=level, non_monotonic_levels=flags)


@dataclass(frozen=True)
class OrderingJudgment:
    shallower_description: str
    deeper_description: str
    affirmed: bool  # judge agreed the deeper task is more complex
    judge_id: str


@dataclass(frozen=True)
class OrderingValidation:
    fraction_affirmed: float
    judgments: tuple[OrderingJudgment, ...]


_COMPARE_PROMPT = (
    "Two task descriptions follow. Judge which one involves the more complex "
    "procedure, i.e. the larger number of steps someone would plan for.\n"
    "\n"
    "Task A: {a}\n"
    "Task B: {b}\n"
    "\n"
    "Answer with exactly one letter: A or B."
)


def validate_ordering(
    workflows: Sequence[WorkflowNode],
    pair_count: int,
    judge: Annotator,
    rng_seed: int | None = None,
) -> OrderingValidation:
    """Check that deeper workflow steps read as more complex tasks.

    Samples ``pair_count`` description pairs from adjacent complexity levels
    and asks the judge which is more complex; the presentation order is
    randomized per pair so position bias cancels. Returns the fraction of
    pairs where the deeper task was judged more complex. An unparseable
    judge answer counts as a non-affirmation.
    """
    by_level: dict[int, list[str]] = {}
    for root in workflows:
        for node in iter_nodes(root):
            by_level.setdefault(node.leaves, []).append(node.description)
    adjacent = [
        (k, k + 1) for k in sorted(by_level) if k + 1 in by_level and by_level[k]
    ]
    if not adjacent:
        raise ValueError("corpus has no adjacent-level node pairs")

    rng = random.Random(rng_seed)
    judgments: list[OrderingJudgment] = []
    for _ in range(pair_count):
        k, k_next = adjacent[rng.randrange(len(adjacent))]
        shallow = by_level[k][rng.randrange(len(by_level[k]))]
        deep = by_level[k_next][rng.randrange(len(by_level[k_next]))]
        deep_is_a = rng.random() < 0.5
        a, b = (deep, shallow) if deep_is_a else (shallow, deep)
        raw = judge.annotate(_COMPARE_PROMPT.format(a=a, b=b), "")
        answer = raw.strip().split()[0].rstrip(".,:;").upper() if raw.strip() else ""
        affirmed = answer == ("A" if deep_is_a else "B")
        judgments.append(
            OrderingJudgment(
                shallower_description=shallow,
                deeper_description=deep,
                affirmed=affirmed,
                judge_id=judge.annotator_id,
            )
        )
    fraction = sum(1 for j in judgments if j.affirmed) / len(judgments)
    return OrderingValidation(fraction_affirmed=fraction, judgments=tuple(judgments))


class AdviceDecision(str, Enum):
    DELEGATE_END_TO_END = "delegate_end_to_end"
    DECOMPOSE = "decompose"
    INSUFFICIENT_DATA = "insufficient_data"


@dataclass(frozen=True)
class ConsultedValue:
    group_key: str
    level: int
    sr: float | None
    totals: int
    passed: bool


@dataclass(frozen=True)
class AutonomyAdvice:
    benchmark: str
    example_id: str
    matched_groups: tuple[str, ...]
    estimated_complexity: int
    threshold: float
    decision: AdviceDecision
    consulted: tuple[ConsultedValue, ...]


def advise(
    task: TaskExample,
    threshold: float,
    curves: Mapping[str, AutonomyCurve],
    matcher: Callable[[TaskExample], Sequence[str]],
    complexity_estimate: int,
    min_samples: int = 10,
    confidence_mode: str = "raw",
) -> AutonomyAdvice:
    """Recommend an autonomy level for one task.

    The task is matched to groups (via ``matcher``, typically a taxonomy
    mapping); delegation end-to-end is recommended only when every matched
    curve clears the threshold at the estimated complexity with enough
    samples. Otherwise, if any matched curve clears the threshold at some
    lower complexity, decomposing into simpler subtasks is recommended;
    failing that, the data is insufficient. The complexity estimate is
    supplied by the caller; nothing is invented here.

    ``consulted`` lists each matched group's estimated level, in match
    order, then, for a decomposition, the first lower level that passes,
    taking the matched groups in order and each curve's levels in its own.
    """
    if complexity_estimate < 1:
        raise ValueError(f"complexity_estimate must be >= 1, got {complexity_estimate}")
    matched = [g for g in matcher(task) if g in curves]
    if not matched:
        raise ValueError(f"no curves match task {task.key}; cannot advise")

    def passes(stats: LevelStats | None) -> bool:
        return (stats is not None and stats.totals >= min_samples
                and stats.metric(confidence_mode) >= threshold)

    consulted: list[ConsultedValue] = []
    for g in matched:
        stats = curves[g].levels.get(complexity_estimate)
        consulted.append(ConsultedValue(
            group_key=g, level=complexity_estimate, sr=stats.sr if stats else None,
            totals=stats.totals if stats else 0, passed=passes(stats),
        ))
    if all(c.passed for c in consulted):
        decision = AdviceDecision.DELEGATE_END_TO_END
    else:
        lower = next((
            ConsultedValue(group_key=g, level=k, sr=stats.sr, totals=stats.totals, passed=True)
            for g in matched for k, stats in curves[g].levels.items()
            if k < complexity_estimate and passes(stats)
        ), None)
        if lower is None:
            decision = AdviceDecision.INSUFFICIENT_DATA
        else:
            consulted.append(lower)
            decision = AdviceDecision.DECOMPOSE
    return AutonomyAdvice(
        benchmark=task.benchmark,
        example_id=task.example_id,
        matched_groups=tuple(matched),
        estimated_complexity=complexity_estimate,
        threshold=threshold,
        decision=decision,
        consulted=tuple(consulted),
    )
