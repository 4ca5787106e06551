"""Employment, capital, digital-share, and importance-weighted aggregation.

Occupation rows (SOC code, employment, median wage) are joined onto the
domain taxonomy through the SOC annotations on its occupation layer and
rolled up to job families: family employment is a worker head-count sum,
family capital is the wage-times-employment sum. A row whose SOC code
matches no occupation node is reported as unmatched, not rejected.
Skill-level figures weight each occupation by its activity importance
normalized to [0, 1] by the declared scale maximum; the results are
relative importance weights over the labor market, not head-counts, and all
outputs label them as such.

Digital shares come from per-task DIGITAL/PHYSICAL labels produced by an
annotator: an occupation's ratio is its fraction of digital tasks, and the
family figure is reported both employment-weighted and unweighted.
"""

from __future__ import annotations

import hashlib
from array import array
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, NamedTuple, Sequence

from .annotate import Annotator
from .coverage import EffortDistribution, GroupLevel
from .taxonomy import LEAF_LEVEL, Taxonomy, TaxonomyKind, TaxonomyNode


@dataclass(frozen=True, slots=True)
class OccupationStats:
    soc_code: str
    title: str
    employment: float
    median_wage: float

    def __post_init__(self):
        if self.employment < 0:
            raise ValueError(f"{self.soc_code}: employment must be >= 0")
        if self.median_wage < 0:
            raise ValueError(f"{self.soc_code}: median_wage must be >= 0")


class ImportanceRecord(NamedTuple):
    soc_code: str
    activity_id: str
    importance: float


class ImportanceTable:
    """Importance records plus the scale maximum declared by the source.

    The records are folded into columns as they are read: ``soc_codes``
    and ``activity_ids`` list each distinct value once, in first-seen
    order, and row ``i`` is ``soc_codes[soc_index[i]]``,
    ``activity_ids[activity_index[i]]`` and ``importance[i]``, held in
    three arrays. :attr:`records` rebuilds the rows as
    :class:`ImportanceRecord` tuples, which share the column strings.

    ``records`` may be any iterable of ``(soc_code, activity_id,
    importance)`` triples. A (SOC code, activity id) pair may occur once,
    and every importance must lie in ``[0, scale_max]``. Once every record
    is read, a ``scale_max`` that is not positive raises, and then the
    first record that breaks either rule; on one record, a duplicate is
    reported before a value out of range.

    Tables compare by ``scale_max`` and rows. Their columns are arrays,
    which can be changed in place, so a table is not hashable.
    """

    __slots__ = ("soc_codes", "activity_ids", "soc_index", "activity_index", "importance",
                 "scale_max")

    def __init__(self, records: Iterable[tuple[str, str, float]], scale_max: float):
        socs: dict[str, int] = {}
        activities: dict[str, int] = {}
        self.soc_index, self.activity_index = array("i"), array("i")
        self.importance = array("d")
        for soc_code, activity_id, importance in records:
            self.soc_index.append(socs.setdefault(soc_code, len(socs)))
            self.activity_index.append(activities.setdefault(activity_id, len(activities)))
            self.importance.append(importance)
        self.soc_codes, self.activity_ids = list(socs), list(activities)
        self.scale_max = scale_max
        if scale_max <= 0:
            raise ValueError("scale_max must be > 0")
        # Activity numbers grouped per SOC code show whether any fault
        # exists without a key per record; only then does the scan below
        # find the first one.
        by_soc: list[list[int]] = [[] for _ in self.soc_codes]
        for s, a in zip(self.soc_index, self.activity_index):
            by_soc[s].append(a)
        if (all(len(set(ids)) == len(ids) for ids in by_soc)
                and all(0 <= x <= scale_max for x in self.importance)):
            return
        del by_soc
        seen: set[tuple[int, int]] = set()
        for s, a, importance in zip(self.soc_index, self.activity_index, self.importance):
            key = (self.soc_codes[s], self.activity_ids[a])
            if (s, a) in seen:
                raise ValueError(f"duplicate importance record for {key}")
            seen.add((s, a))
            if not (0 <= importance <= scale_max):
                raise ValueError(f"importance {importance} for {key} outside [0, {scale_max}]")

    @property
    def records(self) -> tuple[ImportanceRecord, ...]:
        """The rows, in the order they were read."""
        socs, activities = self.soc_codes, self.activity_ids
        return tuple(ImportanceRecord(socs[s], activities[a], importance) for s, a, importance
                     in zip(self.soc_index, self.activity_index, self.importance))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ImportanceTable):
            return NotImplemented
        return self.scale_max == other.scale_max and self.records == other.records

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"ImportanceTable({len(self.importance)} records, scale_max={self.scale_max!r})"


class WorkMode(str, Enum):
    DIGITAL = "DIGITAL"
    PHYSICAL = "PHYSICAL"


@dataclass(frozen=True, slots=True)
class DigitalLabel:
    """A DIGITAL/PHYSICAL judgment for one occupational task.

    Persisted files carry only the task hash; a label loaded from disk may
    therefore have an empty ``task_text`` with the stored hash preserved.
    """

    soc_code: str
    task_text: str
    label: WorkMode
    justification: str = ""
    task_hash: str = ""

    def __post_init__(self):
        if not self.task_hash:
            object.__setattr__(self, "task_hash", task_hash(self.task_text))


def task_hash(task_text: str) -> str:
    return hashlib.sha256(task_text.encode("utf-8")).hexdigest()[:16]


def _soc_to_family(t_domain: Taxonomy) -> dict[str, TaxonomyNode]:
    """Map each SOC annotation on the occupation layer to its family node."""
    index: dict[str, TaxonomyNode] = {}
    for family in t_domain.root.children:
        for occupation in family.children:
            soc = occupation.annotations.get("soc_code")
            if soc is not None:
                index[soc] = family
    return index


def _check_unique_socs(occupations: Sequence[OccupationStats]) -> None:
    seen: set[str] = set()
    for o in occupations:
        if o.soc_code in seen:
            raise ValueError(f"duplicate SOC code {o.soc_code}")
        seen.add(o.soc_code)


@dataclass(frozen=True)
class FamilyEconRow:
    node_id: str
    label: str
    employment: float
    capital: float


@dataclass(frozen=True)
class FamilyEconTable:
    rows: tuple[FamilyEconRow, ...]
    unmatched_soc_codes: tuple[str, ...]

    @property
    def total_employment(self) -> float:
        return sum(r.employment for r in self.rows)

    @property
    def total_capital(self) -> float:
        return sum(r.capital for r in self.rows)

    def employment_shares(self) -> dict[str, float]:
        total = self.total_employment
        return {r.node_id: r.employment / total for r in self.rows} if total else {}

    def capital_shares(self) -> dict[str, float]:
        total = self.total_capital
        return {r.node_id: r.capital / total for r in self.rows} if total else {}


def domain_employment_capital(
    occupations: Sequence[OccupationStats], t_domain: Taxonomy
) -> FamilyEconTable:
    """Aggregate employment and earning-based capital per job family.

    Capital for an occupation is ``employment * median_wage``; families sum
    their matched occupations. SOC codes with no occupation node in the
    taxonomy are listed as unmatched, never silently folded into totals.
    """
    if t_domain.kind is not TaxonomyKind.DOMAIN:
        raise ValueError("domain taxonomy required")
    _check_unique_socs(occupations)
    soc_index = _soc_to_family(t_domain)
    employment: dict[str, float] = {f.id: 0.0 for f in t_domain.root.children}
    capital: dict[str, float] = {f.id: 0.0 for f in t_domain.root.children}
    unmatched: list[str] = []
    for occ in occupations:
        family = soc_index.get(occ.soc_code)
        if family is None:
            unmatched.append(occ.soc_code)
            continue
        employment[family.id] += occ.employment
        capital[family.id] += occ.employment * occ.median_wage
    rows = tuple(
        FamilyEconRow(
            node_id=f.id, label=f.label, employment=employment[f.id], capital=capital[f.id]
        )
        for f in t_domain.root.children
    )
    return FamilyEconTable(rows=rows, unmatched_soc_codes=tuple(unmatched))


@dataclass(frozen=True)
class SkillEconRow:
    node_id: str
    label: str
    level: int
    effective_employment: float  # relative importance weight, not a head-count
    effective_capital: float


@dataclass(frozen=True)
class SkillEconTable:
    """Importance-weighted skill values; leaf rows aggregate to ancestors."""

    rows: tuple[SkillEconRow, ...]

    def leaf_rows(self) -> tuple[SkillEconRow, ...]:
        return tuple(r for r in self.rows if r.level == LEAF_LEVEL)

    def leaf_employment_shares(self) -> dict[str, float]:
        leaves = self.leaf_rows()
        total = sum(r.effective_employment for r in leaves)
        return {r.node_id: r.effective_employment / total for r in leaves} if total else {}


def effective_skill_employment_capital(
    occupations: Sequence[OccupationStats],
    importances: ImportanceTable,
    t_skill: Taxonomy,
) -> SkillEconTable:
    """Importance-weighted employment and capital per skill node.

    Each leaf activity receives ``sum_o employment(o) * importance(o, s) /
    scale_max``; capital adds the wage factor. Parents are sums of their
    children. The figures approximate each skill's relative weight across
    the labor market and are labeled accordingly, since one worker counts
    toward every activity their occupation exercises.
    """
    if t_skill.kind is not TaxonomyKind.SKILL:
        raise ValueError("skill taxonomy required")
    _check_unique_socs(occupations)
    occ_by_soc = {o.soc_code: o for o in occupations}

    leaf_by_activity: dict[str, TaxonomyNode] = {}
    for leaf in t_skill.leaves():
        activity = leaf.annotations.get("activity_id")
        if activity is not None:
            leaf_by_activity[activity] = leaf

    # each distinct activity and SOC code of the table looked up once
    leaves = [leaf_by_activity.get(a) for a in importances.activity_ids]
    occs = [occ_by_soc.get(soc) for soc in importances.soc_codes]
    employment: dict[str, float] = {}
    capital: dict[str, float] = {}
    for s, a, importance in zip(importances.soc_index, importances.activity_index,
                                importances.importance):
        leaf = leaves[a]
        if leaf is None:
            raise ValueError(f"unknown activity_id {importances.activity_ids[a]!r}")
        occ = occs[s]
        if occ is None:
            raise ValueError("importance record references unknown SOC code "
                             f"{importances.soc_codes[s]}")
        weight = importance / importances.scale_max
        employment[leaf.id] = employment.get(leaf.id, 0.0) + occ.employment * weight
        capital[leaf.id] = (
            capital.get(leaf.id, 0.0) + occ.employment * occ.median_wage * weight
        )

    # Every leaf sits at LEAF_LEVEL, so each level above it is summed from
    # the one below, a node's children in order.
    totals: dict[str, tuple[float, float]] = {}
    rows: list[SkillEconRow] = []
    for level in range(LEAF_LEVEL, 0, -1):
        for node in t_skill.nodes_at_level(level):
            if level == LEAF_LEVEL:
                e, c = employment.get(node.id, 0.0), capital.get(node.id, 0.0)
            else:
                e = c = 0.0
                for child in node.children:
                    ce, cc = totals[child.id]
                    e += ce
                    c += cc
            totals[node.id] = (e, c)
            rows.append(SkillEconRow(node_id=node.id, label=node.label, level=level,
                                     effective_employment=e, effective_capital=c))
    rows.sort(key=lambda r: (r.level, r.node_id))
    return SkillEconTable(rows=tuple(rows))


@dataclass(frozen=True)
class OccupationDigitalRow:
    soc_code: str
    labeled_tasks: int
    digital_tasks: int

    @property
    def ratio(self) -> float:
        return self.digital_tasks / self.labeled_tasks


@dataclass(frozen=True)
class FamilyDigitalRow:
    node_id: str
    label: str
    digital_fraction: float  # employment-weighted mean of occupation ratios
    digital_fraction_unweighted: float
    digital_employment: float  # employment * ratio, summed over occupations
    labeled_occupations: int


@dataclass(frozen=True)
class DigitalShareTable:
    occupation_rows: tuple[OccupationDigitalRow, ...]
    family_rows: tuple[FamilyDigitalRow, ...]
    occupations_without_labels: tuple[str, ...]

    def digital_employment_shares(self) -> dict[str, float]:
        total = sum(r.digital_employment for r in self.family_rows)
        return (
            {r.node_id: r.digital_employment / total for r in self.family_rows}
            if total
            else {}
        )


def digital_share(
    labels: Sequence[DigitalLabel],
    occupations: Sequence[OccupationStats],
    t_domain: Taxonomy,
) -> DigitalShareTable:
    """Digital-work fractions per occupation and per family.

    Family fractions are employment-weighted means of occupation ratios; the
    unweighted mean is reported alongside. Occupations with no labeled tasks
    are excluded from the family aggregation and listed explicitly.
    """
    _check_unique_socs(occupations)
    occ_by_soc = {o.soc_code: o for o in occupations}
    soc_index = _soc_to_family(t_domain)
    for lab in labels:
        if lab.soc_code not in occ_by_soc:
            raise ValueError(f"label references unknown occupation {lab.soc_code}")

    labeled: dict[str, list[DigitalLabel]] = {}
    for lab in labels:
        labeled.setdefault(lab.soc_code, []).append(lab)

    occupation_rows = tuple(
        OccupationDigitalRow(
            soc_code=soc,
            labeled_tasks=len(ls),
            digital_tasks=sum(1 for l in ls if l.label is WorkMode.DIGITAL),
        )
        for soc, ls in sorted(labeled.items())
    )
    ratio_by_soc = {r.soc_code: r.ratio for r in occupation_rows}
    without_labels = tuple(
        sorted(soc for soc in occ_by_soc if soc not in labeled and soc in soc_index)
    )

    family_rows = []
    for family in t_domain.root.children:
        socs = [
            o.annotations["soc_code"]
            for o in family.children
            if "soc_code" in o.annotations and o.annotations["soc_code"] in ratio_by_soc
        ]
        if socs:
            weights = [occ_by_soc[s].employment for s in socs]
            ratios = [ratio_by_soc[s] for s in socs]
            weight_total = sum(weights)
            digital_employment = sum(w * r for w, r in zip(weights, ratios))
            weighted = digital_employment / weight_total if weight_total else 0.0
            unweighted = sum(ratios) / len(ratios)
        else:
            weighted = unweighted = digital_employment = 0.0
        family_rows.append(
            FamilyDigitalRow(
                node_id=family.id,
                label=family.label,
                digital_fraction=weighted,
                digital_fraction_unweighted=unweighted,
                digital_employment=digital_employment,
                labeled_occupations=len(socs),
            )
        )
    return DigitalShareTable(
        occupation_rows=occupation_rows,
        family_rows=tuple(family_rows),
        occupations_without_labels=without_labels,
    )


@dataclass(frozen=True)
class DigitalLabelingResult:
    labels: tuple[DigitalLabel, ...]
    unlabeled: tuple[tuple[str, str], ...]  # (soc_code, task_text) that failed parsing


_CLASSIFY_PROMPT = (
    "Classify the following occupational task as digital or physical work.\n"
    "\n"
    "Task: {task}\n"
    "\n"
    "Answer with exactly one word, DIGITAL or PHYSICAL, then give a one-sentence "
    "justification."
)


def label_tasks_digital(
    tasks: Sequence[tuple[str, str]], annotator: Annotator
) -> DigitalLabelingResult:
    """Label (soc_code, task_text) pairs DIGITAL or PHYSICAL via the annotator.

    The response must start with one of the two tokens, uppercase; anything
    else is a parse failure, retried once and then recorded as unlabeled.
    """
    labels: list[DigitalLabel] = []
    unlabeled: list[tuple[str, str]] = []
    for soc_code, task_text in tasks:
        parsed = None
        for _ in range(2):
            raw = annotator.annotate(_CLASSIFY_PROMPT.format(task=task_text), "")
            parsed = _parse_mode(raw)
            if parsed is not None:
                break
        if parsed is None:
            unlabeled.append((soc_code, task_text))
        else:
            mode, justification = parsed
            labels.append(
                DigitalLabel(
                    soc_code=soc_code,
                    task_text=task_text,
                    label=mode,
                    justification=justification,
                )
            )
    return DigitalLabelingResult(labels=tuple(labels), unlabeled=tuple(unlabeled))


def _parse_mode(raw: str) -> tuple[WorkMode, str] | None:
    text = raw.strip()
    if not text:
        return None
    head, _, rest = text.partition(" ")
    token = head.strip().rstrip(".,:;!-")
    if token == WorkMode.DIGITAL.value:
        return WorkMode.DIGITAL, rest.strip()
    if token == WorkMode.PHYSICAL.value:
        return WorkMode.PHYSICAL, rest.strip()
    return None


@dataclass(frozen=True)
class AlignmentRow:
    node_id: str
    label: str
    effort_share: float
    employment_share: float
    capital_share: float
    digital_fraction: float | None
    digital_employment_share: float | None
    effort_to_employment_ratio: float


@dataclass(frozen=True)
class AlignmentReport:
    group_level: GroupLevel
    rows: tuple[AlignmentRow, ...]


def alignment_report(
    effort: EffortDistribution,
    econ: FamilyEconTable | SkillEconTable,
    digital: DigitalShareTable | None = None,
) -> AlignmentReport:
    """Join benchmark effort shares with labor-market shares node by node.

    Every share column sums to 1 over the report's rows; the ratio column is
    effort share over employment share (``inf`` where effort exists with no
    employment). Family-level reports may attach digital fractions.
    """
    if isinstance(econ, FamilyEconTable):
        if effort.group_level is not GroupLevel.DOMAIN_FAMILY:
            raise ValueError(
                f"effort is grouped by {effort.group_level.value}; family table needs domain_family"
            )
        econ_nodes = [(r.node_id, r.label) for r in econ.rows]
        employment_shares = econ.employment_shares()
        capital_shares = econ.capital_shares()
    else:
        if effort.group_level is not GroupLevel.SKILL_LEAF:
            raise ValueError(
                f"effort is grouped by {effort.group_level.value}; skill table needs skill_leaf"
            )
        leaves = econ.leaf_rows()
        econ_nodes = [(r.node_id, r.label) for r in leaves]
        employment_shares = econ.leaf_employment_shares()
        total_capital = sum(r.effective_capital for r in leaves)
        capital_shares = (
            {r.node_id: r.effective_capital / total_capital for r in leaves}
            if total_capital
            else {}
        )
    if digital is not None and effort.group_level is not GroupLevel.DOMAIN_FAMILY:
        raise ValueError("digital shares are family-level; grouping level mismatch")

    total_effort = effort.total_incidences
    effort_shares = {
        node_id: effort.counts.get(node_id, 0) / total_effort if total_effort else 0.0
        for node_id, _ in econ_nodes
    }
    digital_fraction = (
        {r.node_id: r.digital_fraction for r in digital.family_rows} if digital else {}
    )
    digital_emp_share = digital.digital_employment_shares() if digital else {}

    rows = []
    for node_id, label in econ_nodes:
        eff = effort_shares[node_id]
        emp = employment_shares.get(node_id, 0.0)
        if emp > 0:
            ratio = eff / emp
        else:
            ratio = float("inf") if eff > 0 else 0.0
        rows.append(
            AlignmentRow(
                node_id=node_id,
                label=label,
                effort_share=eff,
                employment_share=emp,
                capital_share=capital_shares.get(node_id, 0.0),
                digital_fraction=digital_fraction.get(node_id) if digital else None,
                digital_employment_share=digital_emp_share.get(node_id) if digital else None,
                effort_to_employment_ratio=ratio,
            )
        )
    return AlignmentReport(group_level=effort.group_level, rows=tuple(rows))
