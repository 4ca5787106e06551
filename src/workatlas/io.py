"""Readers and writers for the toolkit's file formats.

Line-oriented JSON for examples, mappings, and workflows; CSV for the
economics tables and curve exports. Every JSONL line must hold an object,
and example and mapping records are checked field by field against one
schema table each (name, JSON type, required), so a wrong type is an
:class:`InputFormatError` naming the file, line and field. A line is
decoded by ``json.loads``'s own scanner, called directly; a line that is
not one JSON value is decoded again by ``json.loads``, so its error reads
as ``json.loads`` words it. Mappings persist paths as label sequences
(each an array of labels) so files stay meaningful without the taxonomy
at hand; reading them back re-resolves every path, which doubles as a
validation pass. Each label sequence is resolved straight to its path
number in its taxonomy (:func:`~workatlas.taxonomy.path_number`), through
the taxonomy's own cache, which mapping shares, so each distinct label
sequence is resolved once per taxonomy and a line's paths are carried as
numbers, never as path objects, until a reader needs the paths. A
mappings file and a workflow corpus are each read one of two ways, with
the same checks and errors: :func:`read_mapping_folds` adds each line's
path numbers to its kind's per-example union and builds no record, and
:func:`read_workflow_levels` folds each trajectory into per-level node
counts and builds no tree, which is all the CLI needs;
:func:`read_mappings` builds :class:`MappingResult` records and
:func:`read_workflows` builds :class:`WorkflowNode` trees for library
callers.

Parsed inputs repeat values many times over, so readers store each one
once. Examples share one string per benchmark name, and every example
without metadata shares :data:`~workatlas.mapping.NO_METADATA`, an empty
dict that is read-only. A mappings file's path sets (built once per
distinct set of path numbers by :func:`read_mappings`, held as tuples of
the taxonomy's path numbers by :func:`read_mapping_folds`) and id,
annotator and raw-output strings are one object per distinct value. An
importance table is folded into columns as it is read, each distinct SOC
code and activity id once and three arrays with one entry per row, and
builds no record object unless a caller asks for ``records``. Digital
labels share their SOC codes and justifications. A taxonomy's sharing is
described in :mod:`workatlas.taxonomy`. CSV errors name a row's physical
line, blank rows included. A mappings file is written one line per result
by :func:`mapping_record`, for :func:`write_mappings` and for the CLI,
which writes each result as it is mapped.
All files are UTF-8. Writers never mutate existing files in place.
"""

from __future__ import annotations

import csv
import io as _io
import json
import math
from pathlib import Path
from typing import Iterable, Sequence

from .autonomy import (
    GROUP_FIELDS,
    AutonomyCurve,
    LevelCounts,
    LevelStats,
    WorkflowNode,
    count_levels,
    group_name,
    workflow_from_document,
)
from .coverage import FoldedMappings, MappingFolder
from .economics import (
    DigitalLabel,
    ImportanceTable,
    OccupationStats,
    WorkMode,
)
from .mapping import NO_METADATA, MappingResult, MappingStatus, TaskExample
from .taxonomy import (
    Taxonomy,
    TaxonomyKind,
    path_number,
    resolve_path,  # noqa: F401 - perfbench's tracer rebinds it on this module
)

SCALE_MAX_PREFIX = "# scale_max:"


class InputFormatError(ValueError):
    """A data file does not conform to its documented schema."""

    def __init__(self, path, line_no: int | None, reason: str):
        self.path = str(path)
        self.line_no = line_no
        self.reason = reason
        where = f"{path}:{line_no}" if line_no is not None else str(path)
        super().__init__(f"{where}: {reason}")


def _finite(value: str, name: str) -> float:
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return number


#: ``json.loads``'s own scanner. A stripped line is one JSON value exactly
#: when the scan from its start ends at its end; called directly, it skips
#: the three Python frames and two whitespace matches of each ``json.loads``.
_SCAN_JSON = json.JSONDecoder().scan_once


def _iter_jsonl(path: str | Path):
    """``(line_no, record)`` for every non-blank line; a record is a dict."""
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record, end = _SCAN_JSON(line, 0)
            except (StopIteration, json.JSONDecodeError):
                end = None
            except RecursionError as err:
                raise InputFormatError(path, line_no, "nesting too deep to decode") from err
            if end != len(line):  # not one JSON value: json.loads words the error
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as err:
                    raise InputFormatError(path, line_no, f"invalid JSON: {err}") from err
            if not isinstance(record, dict):
                raise InputFormatError(
                    path, line_no, f"record must be a JSON object, got {type(record).__name__}"
                )
            yield line_no, record


#: Record schemas: (field, JSON type, required), checked in this order.
EXAMPLE_FIELDS = (
    ("benchmark", str, True),
    ("example_id", str, True),
    ("instruction", str, True),
    ("metadata", dict, False),
)
MAPPING_FIELDS = (
    ("benchmark", str, True),
    ("example_id", str, True),
    ("taxonomy_kind", str, True),
    ("status", str, True),
    ("paths", list, True),
    ("annotator_id", str, False),
    ("raw", str, False),
)
RAW_MAPPING_FIELDS = (
    ("benchmark", str, True),
    ("example_id", str, True),
    ("taxonomy_kind", str, True),
    ("raw", str, True),
)

_JSON_TYPE_NAMES = {str: "a string", list: "an array", dict: "an object"}
_ABSENT = object()


def _check_fields(path, line_no: int, record: dict, schema: tuple, what: str) -> None:
    """Raise for the first schema field that is missing or of the wrong type."""
    for key, json_type, required in schema:
        value = record.get(key, _ABSENT)
        if not isinstance(value, json_type):
            if value is _ABSENT:
                if not required:
                    continue
                raise InputFormatError(path, line_no, f"{what} record missing {key!r}")
            raise InputFormatError(
                path, line_no,
                f"{what} record field {key!r} must be {_JSON_TYPE_NAMES[json_type]}, "
                f"got {type(value).__name__}",
            )


# ---------------------------------------------------------------------------
# Examples
# ---------------------------------------------------------------------------

def read_examples(path: str | Path) -> list[TaskExample]:
    """Read a JSONL examples file: {benchmark, example_id, instruction, metadata?}.

    Examples of one benchmark share its name, and every example with no or
    empty metadata shares :data:`~workatlas.mapping.NO_METADATA`.
    """
    examples = []
    shared: dict = {}  # each benchmark name once
    for line_no, record in _iter_jsonl(path):
        _check_fields(path, line_no, record, EXAMPLE_FIELDS, "example")
        benchmark = record["benchmark"]
        examples.append(
            TaskExample(
                benchmark=shared.setdefault(benchmark, benchmark),
                example_id=record["example_id"],
                instruction=record["instruction"],
                metadata=record.get("metadata") or NO_METADATA,
            )
        )
    return examples


#: ``json.dumps(record, sort_keys=True)`` builds a new encoder per call.
_RECORD_ENCODER = json.JSONEncoder(sort_keys=True)


def write_examples(path: str | Path, examples: Iterable[TaskExample]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for e in examples:
            record = {
                "benchmark": e.benchmark,
                "example_id": e.example_id,
                "instruction": e.instruction,
            }
            if e.metadata:
                record["metadata"] = e.metadata
            fh.write(_RECORD_ENCODER.encode(record) + "\n")


# ---------------------------------------------------------------------------
# Mappings
# ---------------------------------------------------------------------------

def write_mappings(path: str | Path, results: Iterable[MappingResult]) -> None:
    """Persist mapping results, one record per line, paths as label lists."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for r in results:
            fh.write(mapping_record(r))


def mapping_record(r: MappingResult) -> str:
    """The mappings-file line of one result, newline included: its record
    (``benchmark``, ``example_id``, ``taxonomy_kind``, ``status``, ``paths``
    as sorted label lists, ``annotator_id``, ``raw``) as
    ``json.dumps(record, sort_keys=True)`` writes it.
    """
    encode = _RECORD_ENCODER.encode  # a value's JSON text, as inside a record
    return (f'{{"annotator_id": {encode(r.annotator_id)}, "benchmark": {encode(r.benchmark)}, '
            f'"example_id": {encode(r.example_id)}, '
            f'"paths": {encode(sorted(list(p.labels) for p in r.paths))}, '
            f'"raw": {encode(r.raw_annotator_output)}, "status": "{r.status.value}", '
            f'"taxonomy_kind": "{r.taxonomy_kind.value}"}}\n')


_KINDS = {k.value: k for k in TaxonomyKind}
_STATUSES = {s.value: s for s in MappingStatus}


def _mapping_line(path, line_no: int, record: dict, taxonomies: dict[TaxonomyKind, Taxonomy]
                  ) -> tuple[TaxonomyKind, MappingStatus, tuple[int, ...]]:
    """Check one mapping record and resolve its paths: the one check path
    of both mapping readers. Returns its kind, its status and the numbers
    of its distinct paths in its kind's taxonomy, in increasing order.

    Each path entry must be an array of labels. Re-resolution failing on a
    persisted path means the file and taxonomy disagree; that is surfaced
    as an :class:`InputFormatError` rather than silently skipped. Failures
    are never cached, so an error names the first line that holds a bad
    sequence.
    """
    _check_fields(path, line_no, record, MAPPING_FIELDS, "mapping")
    try:
        kind = _KINDS[record["taxonomy_kind"]]
        status = _STATUSES[record["status"]]
    except KeyError:
        # the enums word the error for an unknown value
        try:
            TaxonomyKind(record["taxonomy_kind"])
            MappingStatus(record["status"])
        except ValueError as err:
            raise InputFormatError(path, line_no, str(err)) from None
    taxonomy = taxonomies.get(kind)
    if taxonomy is None:
        raise InputFormatError(path, line_no, f"no taxonomy supplied for kind {kind.value}")
    try:
        numbers = tuple(sorted({path_number(taxonomy, labels) for labels in record["paths"]}))
    except (TypeError, ValueError) as err:
        raise InputFormatError(
            path,
            line_no,
            f"example {record['benchmark']}/{record['example_id']}: {err}",
        ) from err
    if (status is MappingStatus.MAPPED) != bool(numbers):
        raise InputFormatError(
            path, line_no, f"status {status.value} inconsistent with {len(numbers)} paths"
        )
    return kind, status, numbers


def read_mappings(
    path: str | Path, taxonomies: dict[TaxonomyKind, Taxonomy]
) -> list[MappingResult]:
    """Read mapping records, re-resolving every persisted path.

    Records repeat values: a corpus holds far fewer distinct path sets than
    records, and an example's domain and skill records share its ids. Equal
    path sets and equal ``benchmark``, ``example_id``, ``annotator_id`` and
    ``raw`` strings come back as one shared object each; a path set is
    built once, from its path numbers, the first time they appear.
    """
    results = []
    shared: dict = {}
    path_sets: dict = {}  # (kind, path numbers) -> the shared path set
    for line_no, record in _iter_jsonl(path):
        kind, status, numbers = _mapping_line(path, line_no, record, taxonomies)
        paths = path_sets.get((kind, numbers))
        if paths is None:
            paths = frozenset([taxonomies[kind].paths[j] for j in numbers])
            # two kinds' equal sets (the empty one) are one object too
            paths = path_sets[kind, numbers] = shared.setdefault(paths, paths)
        benchmark, example_id = record["benchmark"], record["example_id"]
        raw = record.get("raw", "")
        annotator_id = record.get("annotator_id", "unknown")
        results.append(
            MappingResult(
                benchmark=shared.setdefault(benchmark, benchmark),
                example_id=shared.setdefault(example_id, example_id),
                taxonomy_kind=kind,
                paths=paths,
                status=status,
                raw_annotator_output=shared.setdefault(raw, raw),
                annotator_id=shared.setdefault(annotator_id, annotator_id),
            )
        )
    return results


def read_mapping_folds(
    path: str | Path, taxonomies: dict[TaxonomyKind, Taxonomy]
) -> FoldedMappings:
    """Read a mappings file into per-example folds, with the checks and
    errors of :func:`read_mappings`, adding each line to its kind's fold as
    it is read. Each line's label lists are resolved straight to their
    taxonomy's path numbers, which the fold takes as they are, so no path
    object is looked up or hashed per line. No :class:`MappingResult` is
    built, and no ``raw`` output or annotator id is kept; each fold holds
    each distinct path set once, as a tuple of path numbers."""
    folder = MappingFolder(taxonomies)
    shared: dict = {}  # each benchmark name once
    for line_no, record in _iter_jsonl(path):
        kind, _, numbers = _mapping_line(path, line_no, record, taxonomies)
        benchmark = record["benchmark"]
        folder.add_numbers(kind, (shared.setdefault(benchmark, benchmark),
                                  record["example_id"]), numbers)
    return folder.folded()


def read_raw_mappings(path: str | Path) -> list[dict]:
    """Read mapping records without resolving paths (for replay annotators)."""
    records = []
    for line_no, record in _iter_jsonl(path):
        _check_fields(path, line_no, record, RAW_MAPPING_FIELDS, "mapping")
        records.append(record)
    return records


# ---------------------------------------------------------------------------
# Economics inputs
# ---------------------------------------------------------------------------

def read_occupations(path: str | Path) -> list[OccupationStats]:
    """Read the occupations CSV: soc_code,title,employment,median_wage."""
    rows = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        expected = {"soc_code", "title", "employment", "median_wage"}
        if reader.fieldnames is None or not expected.issubset(reader.fieldnames):
            raise InputFormatError(path, 1, f"header must contain {sorted(expected)}")
        for record in reader:
            try:
                rows.append(
                    OccupationStats(
                        soc_code=record["soc_code"],
                        title=record["title"],
                        employment=_finite(record["employment"], "employment"),
                        median_wage=_finite(record["median_wage"], "median_wage"),
                    )
                )
            except (TypeError, ValueError) as err:
                raise InputFormatError(path, reader.line_num, str(err)) from err
    return rows


def read_importance(path: str | Path) -> ImportanceTable:
    """Read the importance CSV; the scale maximum comes from a leading
    ``# scale_max: <value>`` comment line.

    Each row is folded into the table's columns as it is read, so no
    record object is built. A row whose importance does not parse is
    reported first, by its line; then the table's own checks, for the
    whole file.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        first = fh.readline()
        if not first.startswith(SCALE_MAX_PREFIX):
            raise InputFormatError(
                path, 1, f"first line must declare the scale, e.g. '{SCALE_MAX_PREFIX} 5.0'"
            )
        try:
            scale_max = _finite(first[len(SCALE_MAX_PREFIX):].strip(), "scale_max")
        except ValueError as err:
            raise InputFormatError(path, 1, f"bad scale_max value: {err}") from err
        reader = csv.reader(fh)
        header = next(reader, None)
        expected = {"soc_code", "activity_id", "importance"}
        if header is None or not expected.issubset(header):
            raise InputFormatError(path, 2, f"header must contain {sorted(expected)}")
        # Read as csv.DictReader would: the last column of a repeated name
        # wins, a short row reads None for its missing cells, blank rows are
        # skipped. The reader started after the scale line, so a row's
        # physical line is one more than the reader's count.
        column = {name: i for i, name in enumerate(header)}
        i_soc, i_activity, i_importance = (column[name] for name in
                                           ("soc_code", "activity_id", "importance"))
        width = max(i_soc, i_activity, i_importance) + 1

        def rows():
            for row in reader:
                if not row:
                    continue
                if len(row) < width:
                    row += [None] * (width - len(row))
                try:
                    importance = _finite(row[i_importance], "importance")
                except (TypeError, ValueError) as err:
                    raise InputFormatError(path, reader.line_num + 1, str(err)) from err
                yield row[i_soc], row[i_activity], importance

        try:
            return ImportanceTable(rows(), scale_max)
        except InputFormatError:
            raise
        except ValueError as err:
            raise InputFormatError(path, None, str(err)) from err


def read_digital_labels(path: str | Path) -> list[DigitalLabel]:
    """Read the digital labels CSV: soc_code,task_hash,label,justification.

    Only the task hash is persisted, so loaded labels carry it verbatim and
    leave ``task_text`` empty.
    """
    rows = []
    shared: dict = {}  # an occupation has many tasks; justifications repeat
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        expected = {"soc_code", "task_hash", "label"}
        if reader.fieldnames is None or not expected.issubset(reader.fieldnames):
            raise InputFormatError(path, 1, f"header must contain {sorted(expected)}")
        for record in reader:
            try:
                label = WorkMode(record["label"])
            except ValueError as err:
                raise InputFormatError(path, reader.line_num, str(err)) from err
            soc_code, justification = record["soc_code"], record.get("justification", "")
            rows.append(
                DigitalLabel(
                    soc_code=shared.setdefault(soc_code, soc_code),
                    task_text="",
                    label=label,
                    justification=shared.setdefault(justification, justification),
                    task_hash=record["task_hash"],
                )
            )
    return rows


# ---------------------------------------------------------------------------
# Workflows
# ---------------------------------------------------------------------------

def read_workflows(path: str | Path) -> list[WorkflowNode]:
    """Read a JSONL workflow corpus, one trajectory document per line, as
    one tree per trajectory."""
    workflows = []
    for line_no, record in _iter_jsonl(path):
        try:
            workflows.append(workflow_from_document(record))
        except ValueError as err:
            raise InputFormatError(path, line_no, str(err)) from err
    return workflows


def read_workflow_levels(path: str | Path) -> list[LevelCounts]:
    """Read a JSONL workflow corpus as level counts, checking every document
    as :func:`read_workflows` does, with the same errors, but building no
    tree.

    Trajectories whose ``benchmark``, ``agent`` and ``model`` name the same
    groups share one :class:`LevelCounts`, whose metadata holds those group
    names, so grouping by any of the three gives the curves the trees would.
    """
    merged: dict[tuple[str, ...], LevelCounts] = {}
    for line_no, record in _iter_jsonl(path):
        key = tuple(group_name(record.get(f)) for f in GROUP_FIELDS)
        counts = merged.get(key)
        if counts is None:
            counts = merged[key] = LevelCounts(dict(zip(GROUP_FIELDS, key)))
        try:
            count_levels(record, counts.levels)
        except ValueError as err:
            raise InputFormatError(path, line_no, str(err)) from err
    return list(merged.values())


def _tree_json(root: WorkflowNode) -> str:
    """``json.dumps(doc, sort_keys=True)`` of a node's document, written
    without recursion so that any tree depth can be written."""
    parts: list[str] = []
    stack: list[WorkflowNode | str] = [root]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
            continue
        fields = json.dumps(
            {"description": item.description, "id": item.id, "status": item.status},
            sort_keys=True,
        )
        if not item.children:
            parts.append(fields)
            continue
        # "children" sorts before the other keys: '{"children": [c0, c1], ' + fields[1:]
        parts.append('{"children": [')
        stack.append("], " + fields[1:])
        for i in range(len(item.children) - 1, -1, -1):
            stack.append(item.children[i])
            if i:
                stack.append(", ")
    return "".join(parts)


def write_workflows(path: str | Path, workflows: Iterable[WorkflowNode]) -> None:
    """One trajectory document per line, as ``json.dumps(doc, sort_keys=True)``
    writes it; root metadata keys are strings. The inverse of
    :func:`read_workflows`, which rejects lines nested too deep to decode."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for root in workflows:
            record = {key: json.dumps(value, sort_keys=True)
                      for key, value in root.metadata.items()}
            record["root"] = _tree_json(root)
            fh.write("{" + ", ".join(f"{json.dumps(k)}: {v}" for k, v in sorted(record.items()))
                     + "}\n")


# ---------------------------------------------------------------------------
# Autonomy curves
# ---------------------------------------------------------------------------

CURVE_HEADER = ["group", "level", "successes", "totals", "sr", "lcb"]


def write_curves(path: str | Path, curves: dict[str, AutonomyCurve]) -> None:
    """Export curves as CSV rows (group, level, successes, totals, sr, lcb)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CURVE_HEADER)
        for group in sorted(curves):
            curve = curves[group]
            for level in sorted(curve.levels):
                stats = curve.levels[level]
                writer.writerow(
                    [group, level, stats.successes, stats.totals, repr(stats.sr), repr(stats.lcb)]
                )


def read_curves(path: str | Path) -> dict[str, AutonomyCurve]:
    """Read a curve CSV back; sr/lcb are recomputed from the counts.

    Levels start at 1, and a (group, level) pair appears on one row only;
    :func:`write_curves` writes no other shape.
    """
    levels: dict[str, dict[int, LevelStats]] = {}
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not set(CURVE_HEADER[:4]).issubset(reader.fieldnames):
            raise InputFormatError(path, 1, f"header must contain {CURVE_HEADER[:4]}")
        for record in reader:
            try:
                group = record["group"]
                level = int(record["level"])
                stats = LevelStats(
                    successes=int(record["successes"]), totals=int(record["totals"])
                )
            except (TypeError, ValueError) as err:
                raise InputFormatError(path, reader.line_num, str(err)) from err
            if level < 1:
                raise InputFormatError(path, reader.line_num, f"level must be >= 1, got {level}")
            group_levels = levels.setdefault(group, {})
            if level in group_levels:
                raise InputFormatError(
                    path, reader.line_num, f"level {level} of group {group!r} is repeated"
                )
            group_levels[level] = stats
    return {
        g: AutonomyCurve(group_key=g, levels=dict(sorted(ls.items())))
        for g, ls in levels.items()
    }


# ---------------------------------------------------------------------------
# Generic CSV table writing (used by reports)
# ---------------------------------------------------------------------------

def fixture_path(name: str) -> Path:
    """Path to a bundled fixture data file (miniature taxonomies, corpus)."""
    from importlib import resources

    return Path(str(resources.files("workatlas").joinpath("data", name)))


def format_cell(value) -> str:
    """Stable cell rendering: floats via repr so re-runs are byte-identical."""
    if isinstance(value, float):
        return repr(value)
    return "" if value is None else str(value)


def render_table(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([format_cell(v) for v in row])
    return buf.getvalue()
