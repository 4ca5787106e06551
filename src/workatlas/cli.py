"""Command-line front end orchestrating the library modules.

Subcommands: ``map``, ``coverage``, ``sample``, ``economics``, ``autonomy``,
``advise``, ``report``. Every subcommand validates its inputs the same way
before writing anything: :func:`_load` checks that every required input is
given, the annotator's included, then :func:`validate_inputs` parses each
input file its own flags name exactly once, runs the cross-file checks and
builds the annotators, and the subcommand computes on those parsed objects.
A missing required flag exits 2 before any input is read, and any input
violation exits 3; neither leaves a run directory. Every run writes into a
fresh directory under ``--out`` (a ``--run-id`` that is not one path
component, or that names an existing directory, is a configuration error)
and seals a manifest with content digests, so re-running with the same
inputs and ``--seed`` reproduces byte-identical tables.

Exit codes: 0 success, 2 configuration error, 3 input error, 4 annotator
failure, 5 internal error. The remote annotator reads its endpoint and
credential from ``ATLAS_ANNOTATOR_URL`` / ``ATLAS_ANNOTATOR_KEY``; all
other configuration arrives as flags or a ``--config`` JSON file whose keys
mirror the flag names (flags win). :data:`_PARAMS` declares each parameter
once (default, check, help, fixture) and :data:`_COMMANDS` the parameters
of each subcommand; the parser, the merge and every value check derive
from the two.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import math
import os
import stat
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .annotate import (
    Annotator,
    AnnotatorTransportError,
    KeywordAnnotator,
    RemoteAnnotator,
    ReplayAnnotator,
)
from .autonomy import (
    _CONFIDENCE_MODES,
    GROUP_FIELDS,
    AutonomyCurve,
    LevelCounts,
    autonomy_level,
    rates_from_counts,
    success_rates,  # noqa: F401 - perfbench's tracer rebinds it on this module
    with_overall,
)
from .autonomy import advise as autonomy_advise
from .coverage import (
    FoldedMappings,
    MappingFolder,
    build_pool,  # noqa: F401 - perfbench's tracer rebinds it on this module
)
from .economics import (
    DigitalLabel,
    ImportanceTable,
    OccupationStats,
    digital_share,
    domain_employment_capital,
    effective_skill_employment_capital,
)
from .io import (
    InputFormatError,
    fixture_path,
    mapping_record,
    read_curves,
    read_digital_labels,
    read_examples,
    read_importance,
    read_mapping_folds,
    read_mappings,  # noqa: F401 - perfbench's tracer rebinds it on this module
    read_occupations,
    read_raw_mappings,
    read_workflow_levels,
    read_workflows,  # noqa: F401 - perfbench's tracer rebinds it on this module
    write_curves,
    write_mappings,  # noqa: F401 - perfbench's tracer rebinds it on this module
)
from .mapping import (
    POOLED,
    CorpusMappingAborted,
    OutcomeStats,
    TaskExample,
    iter_map_corpus,
    map_corpus,  # noqa: F401 - perfbench's tracer rebinds it on this module
    map_example,
    outcome_stats,
)
from .reporting import (
    ReportBundle,
    alignment_suite,
    autonomy_heatmap_series,
    coverage_suite,
    effort_distributions,
    emit_digital,
    emit_family_econ,
    emit_outcome_stats,
    emit_sensitivity,
    emit_skill_econ,
)
from .sampling import permutation_sensitivity
from .taxonomy import Taxonomy, TaxonomyKind, load_taxonomy

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INPUT = 3
EXIT_ANNOTATOR = 4
EXIT_INTERNAL = 5


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    """Merged configuration for one subcommand invocation."""

    command: str
    values: dict


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------

def _integer(value) -> int:
    """What ``int`` makes of ``value``, except that a boolean or a fraction
    is refused rather than truncated."""
    if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
        raise ValueError("must be an integer")
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):
        _real(value)  # says why when ``value`` is no finite number at all
        raise ValueError("must be an integer") from None


def _real(value) -> float:
    """What ``float`` makes of ``value``, except that a boolean, an infinity
    or a NaN is refused."""
    if isinstance(value, bool):
        raise ValueError("must be a number")
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise ValueError("must be a number") from None
    if not math.isfinite(number):
        raise ValueError("must be a finite number")
    return number


def _text(value) -> str:
    if not isinstance(value, str):
        raise ValueError("must be a string")
    return value


def _boolean(value) -> bool:
    if not isinstance(value, bool):
        raise ValueError("must be a boolean")
    return value


def _path_component(value: str) -> bool:
    return value not in ("", ".", "..") and not any(
        sep in value for sep in (os.sep, os.altsep, "\0") if sep
    )


def _one_of(*options: str) -> tuple:
    return _text, options.__contains__, ", ".join(options[:-1]) + " or " + options[-1]


_STRING = (_text, None, None)
_AT_LEAST_ONE = (_integer, lambda v: v >= 1, ">= 1")


@dataclass(frozen=True)
class _Param:
    """One parameter. ``check`` is (convert, test, requirement): ``convert``
    raises ``ValueError`` naming what it needs, and a converted value that
    fails ``test`` (if any) must be ``requirement``. A parameter whose
    ``default`` is ``None`` stays unset until given. An ``input`` names a
    file, which ``--fixtures`` fills with the bundled ``fixture`` if it has
    one."""

    help: str
    check: tuple = _STRING
    default: object = None
    input: bool = False
    fixture: str | None = None


def _input(help: str, fixture: str | None = None) -> _Param:
    return _Param(help, input=True, fixture=fixture)


_PARAMS = {
    "out": _Param("output root", default="runs"),
    "run_id": _Param("run directory name under --out (default: timestamp)",
                     (_text, _path_component,
                      "one path component: not empty, '.' or '..', and without '/' or NUL")),
    "seed": _Param("master random seed", (_integer, None, None), 0),
    "fixtures": _Param("fill unset inputs from the bundled fixture data",
                       (_boolean, None, None), False),
    "domain_taxonomy": _input("domain taxonomy JSON", "taxonomy_domain.json"),
    "skill_taxonomy": _input("skill taxonomy JSON", "taxonomy_skill.json"),
    "examples": _input("task examples JSONL", "examples.jsonl"),
    "mappings": _input("mappings JSONL written by map (economics: optional; enables the "
                       "alignment tables)"),
    "annotator": _Param("how examples are mapped", _one_of("keyword", "replay", "remote"),
                        "keyword"),
    "domain_rules": _input("keyword rules file for the domain taxonomy",
                           "keyword_rules_domain.json"),
    "skill_rules": _input("keyword rules file for the skill taxonomy",
                          "keyword_rules_skill.json"),
    "replay_mappings": _input("recorded mappings file for the replay annotator"),
    "parallelism": _Param("annotator calls in flight", _AT_LEAST_ONE, 1),
    "occupations": _input("occupations CSV", "occupations.csv"),
    "importance": _input("activity importance CSV", "importance.csv"),
    "digital_labels": _input("digital task labels CSV", "digital_labels.csv"),
    "workflows": _input("agent workflows JSONL", "workflows.jsonl"),
    "curves": _input("curve CSV exported by the autonomy subcommand"),
    "batch_size": _Param("examples per sampling batch", _AT_LEAST_ONE, 5),
    "delta": _Param("saturation tolerance, percentage points per batch",
                    (_real, lambda v: v > 0, "> 0"), 0.1),
    "permutations": _Param("random orders of the pool", _AT_LEAST_ONE, 500),
    "threshold": _Param("success rate a level must reach",
                        (_real, lambda v: 0 < v <= 1, "in (0, 1]"), 0.8),
    "min_samples": _Param("nodes a level needs to count", _AT_LEAST_ONE, 10),
    "confidence_mode": _Param("success rate compared with the threshold",
                              _one_of(*_CONFIDENCE_MODES), "raw"),
    "group_by": _Param("workflow grouping", _one_of("overall", *GROUP_FIELDS), "benchmark"),
    "instruction": _Param("the task to advise on"),
    "benchmark": _Param("the task's benchmark", default="adhoc"),
    "example_id": _Param("the task's example id", default="query"),
    "complexity": _Param("estimated complexity of the task", _AT_LEAST_ONE),
    "groups": _Param("comma-separated curve groups (skips mapping)"),
}

_RUN = ("out", "run_id", "seed", "fixtures")
_TAXONOMIES = ("domain_taxonomy", "skill_taxonomy")
_ANNOTATION = ("annotator", "domain_rules", "skill_rules", "replay_mappings", "parallelism")
_LABOUR = ("occupations", "importance", "digital_labels")
_SAMPLING = ("batch_size", "delta", "permutations")
_LEVELS = ("threshold", "min_samples", "confidence_mode")

#: Each subcommand's help and the parameters it takes; ``<name>`` runs
#: ``_cmd_<name>``.
_COMMANDS = {
    "map": ("map examples onto the taxonomies", (*_RUN, *_TAXONOMIES, *_ANNOTATION, "examples")),
    "coverage": ("coverage/effort/breadth from mappings", (*_RUN, *_TAXONOMIES, "mappings")),
    "sample": ("saturation-sampling sensitivity analysis",
               (*_RUN, *_TAXONOMIES, "mappings", *_SAMPLING)),
    "economics": ("employment/capital/digital tables",
                  (*_RUN, *_TAXONOMIES, *_LABOUR, "mappings")),
    "autonomy": ("success-rate curves and autonomy levels",
                 (*_RUN, "workflows", "group_by", *_LEVELS)),
    "advise": ("delegate-or-decompose advice for one task",
               (*_RUN, "domain_taxonomy", "annotator", "domain_rules", "replay_mappings",
                "curves", "instruction", "benchmark", "example_id", "complexity", "groups",
                *_LEVELS)),
    "report": ("full pipeline over one input set",
               (*_RUN, *_TAXONOMIES, *_ANNOTATION, "examples", *_LABOUR, "workflows",
                *_SAMPLING, *_LEVELS, "group_by")),
}


def _merge_config(args: argparse.Namespace) -> RunConfig:
    """The subcommand's parameters: the flag, else the config-file entry,
    else the default. Every value set is then checked, on one path for
    flags and config entries alike, and under ``--fixtures`` each input file
    still unset gets its bundled fixture.

    Config entries the subcommand does not declare are dropped: a shared
    config file may hold other subcommands' parameters, and their input
    files are never read. A key that no subcommand declares is refused, so
    that a misspelt parameter does not silently keep its default.
    """
    file_values = {}
    if args.config:
        config_path = Path(args.config)
        if not config_path.exists():
            raise ConfigError(f"config file does not exist: {config_path}")
        try:
            file_values = json.loads(config_path.read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError) as err:
            raise ConfigError(f"config file cannot be read: {err}") from err
        except ValueError as err:  # also an int over the digit limit
            raise ConfigError(f"config file is not valid JSON: {err}") from err
        if not isinstance(file_values, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = [key for key in file_values if key.replace("-", "_") not in _PARAMS]
        if unknown:
            raise ConfigError("config file keys that no subcommand takes: "
                              + ", ".join(map(repr, unknown)))
        file_values = {key.replace("-", "_"): value for key, value in file_values.items()}
    values = {}
    for key in _COMMANDS[args.command][1]:
        param = _PARAMS[key]
        value = getattr(args, key)
        if value is None:
            value = file_values.get(key, param.default)
        # a parameter without a default may stay unset
        if value is not None or param.default is not None:
            flag = "--" + key.replace("_", "-")
            convert, test, requirement = param.check
            try:
                value = convert(value)
            except ValueError as err:
                raise ConfigError(f"{flag} {err}, got {value!r}") from None
            if test is not None and not test(value):
                raise ConfigError(f"{flag} must be {requirement}, got {value!r}")
        values[key] = value
    if values["fixtures"]:
        for key, value in values.items():
            name = _PARAMS[key].fixture
            if name is not None and value is None and fixture_path(name).exists():
                values[key] = str(fixture_path(name))
    return RunConfig(command=args.command, values=values)


# ---------------------------------------------------------------------------
# Loading and validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    file: str
    where: str
    reason: str


@dataclass
class LoadedInputs:
    """Every input file of one invocation, parsed once and cross-checked.

    A field stays ``None`` (or empty) when its file was not given or did not
    parse; ``violations`` says why for the latter, and ``parsed`` names the
    input parameters whose files were read. ``mappings`` holds the mappings
    file folded per example and kind as it was read, with no record objects
    and no raw annotator output; ``workflows`` holds the corpus folded into
    level counts. No command needs the records or the trees. ``annotators``
    holds one annotator per taxonomy the run maps against: the parsed
    keyword rules, or the replay table the recording check joined; a
    recording itself is not kept.
    """

    violations: list[Violation] = field(default_factory=list)
    parsed: set[str] = field(default_factory=set)
    taxonomies: dict[TaxonomyKind, Taxonomy] = field(default_factory=dict)
    examples: list[TaskExample] | None = None
    mappings: FoldedMappings | None = None
    occupations: list[OccupationStats] | None = None
    importance: ImportanceTable | None = None
    labels: list[DigitalLabel] | None = None
    workflows: list[LevelCounts] | None = None
    curves: dict[str, AutonomyCurve] | None = None
    annotators: dict[TaxonomyKind, Annotator] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations


class InvalidInputs(Exception):
    """The inputs of a subcommand failed validation (``args[0]`` lists the
    violations); nothing was written."""


def validate_inputs(config: RunConfig) -> LoadedInputs:
    """Parse every input file named in ``config`` once and cross-check them.

    This is the only place the CLI reads input files; violations are the
    result's content, and bad data never raises. Checks: every input named
    that exists is a regular file (checked by ``os.stat`` before any reader
    runs, so a pipe is never opened); files parse;
    taxonomies are of the kind their flag names; example keys are unique
    with non-empty instructions; mapping paths resolve in the supplied
    taxonomies; occupation SOC codes are unique; importance rows reference
    known SOC codes and activity ids; digital labels reference known SOC
    codes. Keyword rules files hold well-formed rules; each is read with the
    taxonomy of its kind, whose path label tuples its rules share. A replay
    recording holds no two records of one example and kind with different
    outputs (equal repeats are accepted), holds an output for every example
    (for ``advise``, its one task) and taxonomy kind, and, since the replay
    annotator looks outputs up by instruction, examples that share an
    instruction have equal outputs of each kind; the later example is named.
    An occupation whose SOC code is absent from the domain taxonomy is not a
    violation: the economics tables list it as unmatched.

    Of the annotator inputs only the ``--annotator`` mode's are read. The
    recording is joined to the examples once, by the checks above, and each
    kind's instruction-to-output table is that kind's replay annotator. The
    result's ``parsed`` names every input read; the manifest digests those.
    """
    values = config.values
    inputs = LoadedInputs()

    def violation(key: str, where: str, reason: str) -> None:
        inputs.violations.append(Violation(str(values[key]), where, reason))

    # An input must be a regular file: a pipe or a device would be read
    # again, to a different end or never, when the manifest digests it.
    not_regular = set()
    for key, value in values.items():
        if _PARAMS[key].input and value is not None:
            try:
                mode = os.stat(value).st_mode
            except (OSError, ValueError):
                continue  # its reader reports why it cannot be read
            if not stat.S_ISREG(mode):
                violation(key, "(file)", "not a regular file")
                not_regular.add(key)

    def parse(key: str, reader, *args):
        if values.get(key) is None or key in not_regular:
            return None
        inputs.parsed.add(key)
        try:
            return reader(Path(values[key]), *args)
        except Exception as err:  # any parse problem is a violation, not a crash
            line = getattr(err, "line_no", None)
            reason = err.reason if isinstance(err, InputFormatError) else str(err)
            violation(key, "(file)" if line is None else f"line {line}", reason)
            return None

    for kind in TaxonomyKind:
        key = f"{kind.value}_taxonomy"
        taxonomy = parse(key, load_taxonomy)
        if taxonomy is not None and taxonomy.kind is not kind:
            violation(key, "(kind)", f"expected a {kind.value} taxonomy, got {taxonomy.kind.value}")
        elif taxonomy is not None:
            inputs.taxonomies[kind] = taxonomy
    taxonomies_ok = inputs.ok

    inputs.examples = parse("examples", read_examples)
    seen = set()
    for e in inputs.examples or ():
        where = f"{e.benchmark}/{e.example_id}"
        if not e.instruction.strip():
            violation("examples", where, "empty instruction")
        if e.key in seen:
            violation("examples", where, "duplicate (benchmark, example_id)")
        seen.add(e.key)

    mode = values.get("annotator")
    if mode == "keyword":
        for kind in TaxonomyKind:
            rules = parse(f"{kind.value}_rules", KeywordAnnotator.from_file, None,
                          inputs.taxonomies.get(kind))
            if rules is not None:
                inputs.annotators[kind] = rules
    records = parse("replay_mappings", read_raw_mappings) if mode == "replay" else None
    if records is not None:
        recorded: dict[tuple[str, str, str], str] = {}
        for r in records:
            key = (r["benchmark"], r["example_id"], r["taxonomy_kind"])
            if recorded.setdefault(key, r["raw"]) != r["raw"]:
                violation("replay_mappings", f"{key[0]}/{key[1]}",
                          f"repeated {key[2]} record with a different output")
        # the replay annotator serves one output per instruction and kind
        tables: dict[TaxonomyKind, dict[str, str]] = {kind: {} for kind in inputs.taxonomies}
        served_by: dict[tuple[TaxonomyKind, str], str] = {}
        tasks = [_advised_task(values)] if config.command == "advise" else inputs.examples
        for e in tasks or ():
            where = f"{e.benchmark}/{e.example_id}"
            for kind, table in tables.items():
                raw = recorded.get((*e.key, kind.value))
                if raw is None:
                    violation("replay_mappings", where,
                              f"no recorded {kind.value} output for this example")
                elif table.setdefault(e.instruction, raw) == raw:
                    served_by.setdefault((kind, e.instruction), where)
                else:
                    violation("replay_mappings", where,
                              f"recorded {kind.value} output differs from that of "
                              f"{served_by[kind, e.instruction]}, which has the same instruction")
        inputs.annotators = {kind: ReplayAnnotator(table, f"replay:{kind.value}")
                             for kind, table in tables.items()}

    if inputs.taxonomies and taxonomies_ok:
        inputs.mappings = parse("mappings", read_mapping_folds, inputs.taxonomies)

    inputs.occupations = parse("occupations", read_occupations)
    soc_codes: set[str] = set()
    for o in inputs.occupations or ():
        if o.soc_code in soc_codes:
            violation("occupations", o.soc_code, "duplicate SOC code")
        soc_codes.add(o.soc_code)

    inputs.importance = table = parse("importance", read_importance)
    t_skill = inputs.taxonomies.get(TaxonomyKind.SKILL)
    if table is not None:
        # each distinct SOC code and activity id checked once; the rows are
        # read only to name those that hold an unknown one
        unknown_soc = [inputs.occupations is not None and soc not in soc_codes
                       for soc in table.soc_codes]
        activities = {
            leaf.annotations.get("activity_id") for leaf in t_skill.leaves()
        } if t_skill is not None else set()
        unknown_activity = [t_skill is not None and activity not in activities
                            for activity in table.activity_ids]
        if any(unknown_soc) or any(unknown_activity):
            for s, a in zip(table.soc_index, table.activity_index):
                where = f"{table.soc_codes[s]}/{table.activity_ids[a]}"
                if unknown_soc[s]:
                    violation("importance", where, "unknown SOC code")
                if unknown_activity[a]:
                    violation("importance", where, "unknown activity_id")

    inputs.labels = parse("digital_labels", read_digital_labels)
    if inputs.occupations is not None:
        for lab in inputs.labels or ():
            if lab.soc_code not in soc_codes:
                violation("digital_labels", lab.soc_code, "label references unknown SOC code")

    inputs.workflows = parse("workflows", read_workflow_levels)
    inputs.curves = parse("curves", read_curves)
    return inputs


def _advised_task(values: dict) -> TaskExample:
    return TaskExample(benchmark=values["benchmark"], example_id=values["example_id"],
                       instruction=values["instruction"])


def _load(config: RunConfig, *required: str | tuple[str, ...]) -> LoadedInputs:
    """Check the required inputs are given (a tuple needs any one), then
    validate; both failures surface before any run directory exists.

    The annotator is decided here, before any input is read: a subcommand
    that takes ``--annotator`` maps against every taxonomy it is given, and
    each requires the mode's input (``--<kind>-rules`` or
    ``--replay-mappings``) or, for ``remote``, an endpoint.
    """
    values = config.values
    mode = values.get("annotator")
    mapped = [kind for kind in TaxonomyKind
              if mode is not None and values.get(f"{kind.value}_taxonomy") is not None]
    if mode == "keyword":
        required += tuple(f"{kind.value}_rules" for kind in mapped)
    elif mode == "replay" and mapped:
        required += ("replay_mappings",)
    for need in required:
        options = need if isinstance(need, tuple) else (need,)
        if all(values.get(key) is None for key in options):
            flags = " or ".join(f"--{key.replace('_', '-')}" for key in options)
            raise ConfigError(f"missing required input {flags}")
    try:
        remote = {kind: RemoteAnnotator() for kind in mapped} if mode == "remote" else {}
    except ValueError as err:
        raise ConfigError(str(err)) from err
    inputs = validate_inputs(config)
    if not inputs.ok:
        raise InvalidInputs(inputs.violations)
    inputs.annotators.update(remote)
    return inputs


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

def _start_bundle(config: RunConfig, inputs: LoadedInputs) -> ReportBundle:
    """The run directory, with the merged configuration and a digest of
    every input file :func:`validate_inputs` read."""
    try:
        bundle = ReportBundle.create(config.values["out"], config.values["run_id"])
    except FileExistsError as err:
        raise ConfigError(f"run directory already exists: {err.filename}") from None
    bundle.config = {
        k: v for k, v in sorted(config.values.items())
        if k not in ("out", "run_id") and v is not None
    }
    bundle.config["command"] = config.command
    for key, value in config.values.items():
        if key in inputs.parsed:
            bundle.record_input(key, value)
    return bundle


def _map_all_kinds(config: RunConfig, inputs: LoadedInputs,
                   bundle: ReportBundle) -> tuple[FoldedMappings, list[OutcomeStats]]:
    """Map the corpus against every loaded taxonomy, one result at a time.

    Each result, as it arrives, is written as a line of
    ``mappings.partial.jsonl``, folded per example, and counted by kind,
    benchmark and status; then it is dropped, so no result object or raw
    annotator output outlives its line. Once every kind is mapped the file
    is renamed to ``mappings.jsonl`` and the outcome table is emitted.
    Returns the folds and that table. An aborted corpus leaves
    ``mappings.partial.jsonl`` holding every result completed before the
    abort, in input order, and the error propagates.
    """
    folder = MappingFolder(inputs.taxonomies)
    outcomes: Counter = Counter()
    partial = bundle.run_dir / "mappings.partial.jsonl"
    with open(partial, "w", encoding="utf-8", newline="\n") as fh:
        for kind, annotator in inputs.annotators.items():
            for result in iter_map_corpus(inputs.examples, inputs.taxonomies[kind], annotator,
                                          parallelism=config.values["parallelism"]):
                fh.write(mapping_record(result))
                folder.add(kind, result.key, result.paths)
                outcomes[kind, result.benchmark, result.status] += 1
    partial.rename(bundle.run_dir / "mappings.jsonl")
    bundle.record_output("mappings.jsonl")
    stats = outcome_stats(outcomes)
    emit_outcome_stats(bundle, stats)
    return folder.folded(), stats


def _sensitivity_rows(config: RunConfig, mappings: FoldedMappings,
                      taxonomies: dict[TaxonomyKind, Taxonomy]):
    """One sensitivity summary per benchmark, sorted, then one for the whole
    pool when it spans several benchmarks; each benchmark's pool is its
    examples in pooled order."""
    benchmarks: list[str | None] = sorted(mappings.examples.benchmarks)
    if len(benchmarks) > 1:
        benchmarks.append(None)
    return [
        permutation_sensitivity(
            mappings,
            taxonomies.get(TaxonomyKind.DOMAIN),
            taxonomies.get(TaxonomyKind.SKILL),
            batch_size=config.values["batch_size"],
            delta=config.values["delta"],
            permutations=config.values["permutations"],
            rng_seed=config.values["seed"],
            benchmark=benchmark,
        )
        for benchmark in benchmarks
    ]


def _economics_suite(inputs: LoadedInputs, bundle: ReportBundle):
    """Emit the economics tables; returns the (family, skill, digital)
    tables, the last two ``None`` without importance or labels."""
    t_domain = inputs.taxonomies[TaxonomyKind.DOMAIN]
    family_econ = domain_employment_capital(inputs.occupations, t_domain)
    emit_family_econ(bundle, family_econ)

    skill_econ = None
    if inputs.importance is not None:
        skill_econ = effective_skill_employment_capital(
            inputs.occupations, inputs.importance, inputs.taxonomies[TaxonomyKind.SKILL]
        )
        emit_skill_econ(bundle, skill_econ)

    digital = None
    if inputs.labels is not None:
        digital = digital_share(inputs.labels, inputs.occupations, t_domain)
        emit_digital(bundle, digital)
    return family_econ, skill_econ, digital


def _autonomy_suite(config: RunConfig, workflows: Sequence[LevelCounts],
                    bundle: ReportBundle) -> None:
    curves = rates_from_counts(workflows, with_overall(config.values["group_by"]))
    curves_path = bundle.run_dir / "tables" / "autonomy_curves.csv"
    curves_path.parent.mkdir(parents=True, exist_ok=True)
    write_curves(curves_path, curves)
    bundle.record_output("tables/autonomy_curves.csv")

    threshold = config.values["threshold"]
    min_samples = config.values["min_samples"]
    mode = config.values["confidence_mode"]
    assessed = {g: autonomy_level(c, threshold, min_samples, mode) for g, c in curves.items()}
    bundle.add_table(
        "autonomy_levels",
        ["group", "autonomy_level", "threshold", "min_samples", "confidence_mode",
         "non_monotonic_levels"],
        [
            (g, c.autonomy if c.autonomy is not None else "none", threshold, min_samples,
             mode, " ".join(str(k) for k in c.non_monotonic_levels))
            for g, c in sorted(assessed.items())
        ],
    )
    bundle.add_plot_series("autonomy_heatmap", autonomy_heatmap_series(curves))


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_map(config: RunConfig) -> int:
    inputs = _load(config, "domain_taxonomy", "skill_taxonomy", "examples")
    bundle = _start_bundle(config, inputs)
    _, stats = _map_all_kinds(config, inputs, bundle)
    for pooled in (row for row in stats if row.benchmark == POOLED):
        print(f"{pooled.taxonomy_kind.value}: {pooled.mapped} mapped / {pooled.empty} empty / "
              f"{pooled.invalid} invalid of {pooled.total}")
    bundle.finalize()
    print(f"mapped {len(inputs.examples)} examples -> {bundle.run_dir}")
    return EXIT_OK


def _cmd_coverage(config: RunConfig) -> int:
    inputs = _load(config, "mappings", ("domain_taxonomy", "skill_taxonomy"))
    bundle = _start_bundle(config, inputs)
    coverage_suite(bundle, inputs.mappings.by_kind, inputs.taxonomies)
    bundle.finalize()
    print(f"coverage tables -> {bundle.run_dir}")
    return EXIT_OK


def _cmd_sample(config: RunConfig) -> int:
    inputs = _load(config, "mappings", ("domain_taxonomy", "skill_taxonomy"))
    bundle = _start_bundle(config, inputs)
    emit_sensitivity(bundle, _sensitivity_rows(config, inputs.mappings, inputs.taxonomies))
    bundle.finalize()
    print(f"sampling sensitivity -> {bundle.run_dir}")
    return EXIT_OK


def _cmd_economics(config: RunConfig) -> int:
    inputs = _load(config, "domain_taxonomy", "skill_taxonomy", "occupations")
    # The alignment tables read only the efforts, so the folds are dropped
    # before the labour tables are built.
    efforts = None
    if inputs.mappings is not None and inputs.mappings.by_kind and inputs.importance is not None:
        efforts = effort_distributions(inputs.mappings.by_kind, inputs.taxonomies)
    inputs.mappings = None
    bundle = _start_bundle(config, inputs)
    family, skill, digital = _economics_suite(inputs, bundle)
    if efforts is not None:
        alignment_suite(bundle, efforts, family, skill, digital)
    bundle.finalize()
    print(f"economics tables -> {bundle.run_dir}")
    return EXIT_OK


def _cmd_autonomy(config: RunConfig) -> int:
    inputs = _load(config, "workflows")
    bundle = _start_bundle(config, inputs)
    _autonomy_suite(config, inputs.workflows, bundle)
    bundle.finalize()
    print(f"autonomy tables -> {bundle.run_dir}")
    return EXIT_OK


def _cmd_advise(config: RunConfig) -> int:
    if not config.values["instruction"]:
        raise ConfigError("--instruction is required")
    complexity_estimate = config.values["complexity"]
    if complexity_estimate is None:
        raise ConfigError("--complexity is required (the advisor never invents one)")
    # an empty --groups maps the task, as no --groups does
    groups_value = config.values["groups"] = config.values["groups"] or None
    if groups_value:
        # nothing is mapped, so no taxonomy or annotator input is read
        config.values.update(domain_taxonomy=None, domain_rules=None, replay_mappings=None)
    inputs = _load(config, "curves", ("groups", "domain_taxonomy"))
    task = _advised_task(config.values)
    if groups_value:
        groups = [g.strip() for g in groups_value.split(",") if g.strip()]
    else:
        domain = TaxonomyKind.DOMAIN
        result = map_example(task, inputs.taxonomies[domain], inputs.annotators[domain])
        groups = sorted({p.labels[0] for p in result.paths})
    if not any(g in inputs.curves for g in groups):
        raise InvalidInputs([Violation(
            str(config.values["curves"]), f"{task.benchmark}/{task.example_id}",
            f"no curve group matches the task: tried {', '.join(groups) or '(none)'}; "
            f"the file holds {', '.join(sorted(inputs.curves)) or '(none)'}",
        )])
    advice = autonomy_advise(
        task,
        config.values["threshold"],
        inputs.curves,
        lambda _task: groups,
        complexity_estimate,
        min_samples=config.values["min_samples"],
        confidence_mode=config.values["confidence_mode"],
    )
    record = {
        "benchmark": advice.benchmark,
        "example_id": advice.example_id,
        "matched_groups": list(advice.matched_groups),
        "estimated_complexity": advice.estimated_complexity,
        "threshold": advice.threshold,
        "decision": advice.decision.value,
        "consulted": [
            {"group": c.group_key, "level": c.level, "sr": c.sr,
             "totals": c.totals, "passed": c.passed}
            for c in advice.consulted
        ],
    }
    text = json.dumps(record, sort_keys=True, indent=2)
    bundle = _start_bundle(config, inputs)
    bundle.add_text("advice.json", text + "\n")
    bundle.finalize()
    print(text)
    return EXIT_OK


def _cmd_report(config: RunConfig) -> int:
    """Map the examples, then compute every table from the per-example
    folds of the mapping, as ``coverage``, ``sample`` and ``economics`` do
    from a mappings file: no result object outlives its line in
    ``mappings.jsonl``."""
    inputs = _load(config, "domain_taxonomy", "skill_taxonomy", "examples")
    bundle = _start_bundle(config, inputs)
    # The economics and autonomy tables need no mappings. Emitting them first
    # releases their parsed inputs before mapping and sampling, which hold
    # the most memory.
    econ = _economics_suite(inputs, bundle) if inputs.occupations is not None else None
    if inputs.workflows is not None:
        _autonomy_suite(config, inputs.workflows, bundle)
    inputs.occupations = inputs.importance = inputs.labels = inputs.workflows = None

    mappings, _ = _map_all_kinds(config, inputs, bundle)
    # The tables read only the folds from here on.
    inputs.examples, inputs.annotators = None, {}
    efforts = coverage_suite(bundle, mappings.by_kind, inputs.taxonomies)
    emit_sensitivity(bundle, _sensitivity_rows(config, mappings, inputs.taxonomies))
    if econ is not None and econ[1] is not None:
        alignment_suite(bundle, efforts, *econ)
    bundle.finalize()
    print(f"report bundle -> {bundle.run_dir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built from :data:`_COMMANDS` and
    :data:`_PARAMS`. Every flag takes its value as a string, checked with
    the config file's values in :func:`_merge_config`; ``--fixtures`` takes
    none."""
    parser = argparse.ArgumentParser(
        prog="workatlas",
        description="Benchmark-to-work-taxonomy measurement toolkit",
    )
    sub = parser.add_subparsers(dest="command")
    for command, (command_help, keys) in _COMMANDS.items():
        p = sub.add_parser(command, help=command_help)
        p.add_argument("--config", help="JSON config file; keys mirror flag names")
        for key in keys:
            param = _PARAMS[key]
            flag = "--" + key.replace("_", "-")
            if key == "fixtures":
                p.add_argument(flag, action="store_true", default=None, help=param.help)
                continue
            _, test, requirement = param.check
            text = param.help if test is None else f"{param.help}; must be {requirement}"
            if param.default is not None:
                text += f" (default: {param.default})"
            p.add_argument(flag, help=text)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run one subcommand and return its exit code.

    The cyclic garbage collector is paused for the command and its prior
    state restored on every exit path. Parsed inputs hold no reference
    cycles, so reference counting frees them; left running, the collector
    would traverse every record read so far again and again while tens of
    thousands more are allocated.
    """
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if gc_was_enabled:
            gc.enable()


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """One parser per process: building it costs about as much as a small
    command, and parsing leaves it unchanged."""
    return build_parser()


def _run(argv: Sequence[str] | None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_CONFIG
    # Looked up at call time, so a handler rebound on the module is the one run.
    handler = globals()[f"_cmd_{args.command}"]
    try:
        config = _merge_config(args)
        return handler(config)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except InvalidInputs as err:
        for v in err.args[0]:
            print(f"input violation: {v.file} [{v.where}]: {v.reason}", file=sys.stderr)
        return EXIT_INPUT
    except (AnnotatorTransportError, CorpusMappingAborted) as err:
        print(f"annotator failure: {err}", file=sys.stderr)
        return EXIT_ANNOTATOR
    except Exception as err:  # pragma: no cover - safety net
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
