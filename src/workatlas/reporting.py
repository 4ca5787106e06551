"""Report bundles: CSV tables, plot-ready series, and a digest manifest.

A run writes into a fresh directory (timestamped under the output root, or
a caller-chosen id) and never mutates existing outputs; until its manifest
is written the directory carries a ``.partial`` suffix. The manifest echoes
the full configuration, records a SHA-256 digest for every input and output
file, and is written last; identical inputs and seed reproduce
byte-identical tables. Input files are digested by streaming them through
one small buffer, so a large input adds nothing to the run's peak memory.
Each input is read twice, once by its parser and once for its digest,
which is why the CLI accepts only regular files as inputs.

Plot series are numeric JSON documents with axis metadata, one per figure
family: effort-versus-employment scatter, skill distribution bars, and the
autonomy heatmap. Rendering is left to the consumer.
"""

from __future__ import annotations

import errno
import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from . import __version__
from .coverage import (
    BreadthStats,
    CheckedResults,
    CoverageReport,
    EffortDistribution,
    breadth,
    check_results,
    coverage,
    effort_by_node,
    node_sets,
)
from .economics import (
    AlignmentReport,
    DigitalShareTable,
    FamilyEconTable,
    SkillEconTable,
    alignment_report,
)
from .io import render_table
from .mapping import MappingResult, OutcomeStats
from .sampling import SensitivitySummary
from .taxonomy import Taxonomy, TaxonomyKind


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


#: Bytes per read when digesting a file. Below glibc's default 128 KiB mmap
#: threshold, so the one buffer comes from the heap rather than a mapping.
DIGEST_CHUNK = 64 * 1024


def sha256_file(path: str | Path) -> str:
    """SHA-256 of a file, streamed through one reused buffer (as
    ``hashlib.file_digest`` does from Python 3.11), so digesting holds
    ``DIGEST_CHUNK`` bytes whatever the file's size."""
    digest = hashlib.sha256()
    buffer = bytearray(DIGEST_CHUNK)
    view = memoryview(buffer)
    with open(path, "rb", buffering=0) as fh:
        while n := fh.readinto(buffer):
            digest.update(view[:n])
    return digest.hexdigest()


#: Suffix of a run directory that is still being written.
PARTIAL_SUFFIX = ".partial"


@dataclass
class ReportBundle:
    """Accumulates named outputs under a run directory and seals a manifest.

    A bundle from :meth:`create` writes into ``<run_id>.partial`` and
    :meth:`finalize` renames that to ``final_dir`` once the manifest is
    written, so a run directory without the suffix always holds a complete
    bundle. A bundle built with ``final_dir=None`` stays where it is.
    """

    run_dir: Path
    config: dict = field(default_factory=dict)
    inputs: dict[str, str] = field(default_factory=dict)
    outputs: dict[str, str] = field(default_factory=dict)
    final_dir: Path | None = None

    @classmethod
    def create(cls, output_root: str | Path, run_id: str | None = None) -> ReportBundle:
        """A bundle in a fresh directory under ``output_root``; timestamped
        unless an id is given. Raises :class:`FileExistsError` naming the
        run directory or its partial one, whichever exists."""
        root = Path(output_root)
        root.mkdir(parents=True, exist_ok=True)

        def partial(final: Path) -> Path:
            return final.with_name(final.name + PARTIAL_SUFFIX)

        if run_id is None:
            stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
            final = root / stamp
            counter = 1
            while final.exists() or partial(final).exists():
                counter += 1
                final = root / f"{stamp}-{counter}"
        else:
            final = root / run_id
            if final.exists():
                raise FileExistsError(errno.EEXIST, "run directory exists", str(final))
        # raises FileExistsError if a partial directory of that name exists
        partial(final).mkdir(parents=True, exist_ok=False)
        return cls(run_dir=partial(final), final_dir=final)

    def record_input(self, name: str, path: str | Path) -> None:
        self.inputs[name] = sha256_file(path)

    def record_output(self, relpath: str) -> None:
        """Register a file some other writer placed under the run dir."""
        self.outputs[relpath] = sha256_file(self.run_dir / relpath)

    def _write(self, relpath: str, text: str) -> Path:
        target = self.run_dir / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        data = text.encode("utf-8")
        target.write_bytes(data)
        self.outputs[relpath] = sha256_bytes(data)
        return target

    def add_table(self, name: str, header: Sequence[str], rows: Iterable[Sequence]) -> Path:
        return self._write(f"tables/{name}.csv", render_table(header, rows))

    def add_text(self, relpath: str, text: str) -> Path:
        return self._write(relpath, text)

    def add_plot_series(self, name: str, series: Mapping) -> Path:
        return self._write(
            f"plots/{name}.json", json.dumps(series, sort_keys=True, indent=2) + "\n"
        )

    def finalize(self) -> dict:
        """Write the manifest last so it covers every emitted file, then move
        the bundle to its final directory."""
        manifest = {
            "tool": {"name": "workatlas", "version": __version__},
            "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "config": self.config,
            "inputs": self.inputs,
            "outputs": self.outputs,
        }
        (self.run_dir / "manifest.json").write_text(
            json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )
        if self.final_dir is not None:
            self.run_dir = self.run_dir.rename(self.final_dir)
            self.final_dir = None
        return manifest


# ---------------------------------------------------------------------------
# Table emitters
# ---------------------------------------------------------------------------

def emit_outcome_stats(bundle: ReportBundle, rows: Sequence[OutcomeStats]) -> None:
    bundle.add_table(
        "mapping_outcomes",
        ["taxonomy_kind", "benchmark", "total", "mapped", "empty", "invalid",
         "mapped_fraction", "empty_fraction", "invalid_fraction"],
        [
            (
                r.taxonomy_kind.value, r.benchmark, r.total, r.mapped, r.empty, r.invalid,
                r.fractions["mapped"], r.fractions["empty"], r.fractions["invalid"],
            )
            for r in rows
        ],
    )


def emit_coverage(bundle: ReportBundle, report: CoverageReport) -> None:
    rows = [("(pooled)", len(report.covered_paths), report.total_paths, report.coverage)]
    for bench, frac in report.per_benchmark.items():
        rows.append((bench, report.per_benchmark_covered[bench], report.total_paths, frac))
    bundle.add_table(
        f"coverage_{report.taxonomy_kind.value}",
        ["benchmark", "covered_paths", "total_paths", "coverage"],
        rows,
    )


def emit_effort(bundle: ReportBundle, effort: EffortDistribution) -> None:
    shares = effort.shares()
    bundle.add_table(
        f"effort_{effort.group_level.value}",
        ["node_id", "label", "count", "share"],
        [
            (node_id, effort.labels.get(node_id, ""), count, shares.get(node_id, 0.0))
            for node_id, count in effort.counts.items()
        ],
    )


#: The breadth summary's columns: :class:`BreadthStats` fields, read by
#: name for the summary table and ``coverage_summary.json``.
_BREADTH_SUMMARY = ("share_zero", "share_exactly_one", "share_more_than_one",
                    "share_more_than_three", "share_four_or_more", "mean_breadth")


def emit_breadth(bundle: ReportBundle, stats: BreadthStats) -> None:
    bundle.add_table(
        f"breadth_{stats.group_level.value}",
        ["breadth", "examples"],
        sorted(stats.histogram.items()),
    )
    bundle.add_table(
        f"breadth_{stats.group_level.value}_summary", _BREADTH_SUMMARY,
        [tuple(getattr(stats, name) for name in _BREADTH_SUMMARY)],
    )


SENSITIVITY_HEADER = [
    "benchmark", "total", "stop_size_median", "stop_size_ci_low", "stop_size_ci_high",
    "domain_coverage_median", "domain_coverage_ci_low", "domain_coverage_ci_high",
    "skill_coverage_median", "skill_coverage_ci_low", "skill_coverage_ci_high",
    "domain_chao1_richness", "skill_chao1_richness",
    "domain_chao1_coverage_median", "skill_chao1_coverage_median",
]


def sensitivity_row(summary: SensitivitySummary) -> tuple:
    """The cells of :data:`SENSITIVITY_HEADER`, the domain's before the
    skill's in each group; a kind the summary lacks reads 0.0."""
    def stat(kind: TaxonomyKind, table: dict, attr: str) -> float:
        entry = table.get(kind)
        return getattr(entry, attr) if entry is not None else 0.0

    spread = ("median", "ci_low", "ci_high")
    return (
        summary.benchmark,
        summary.pool_size,
        *(getattr(summary.stop_size, attr) for attr in spread),
        *(stat(kind, summary.coverage_at_stop, attr) for kind in TaxonomyKind for attr in spread),
        *(summary.chao1_richness.get(kind, 0.0) for kind in TaxonomyKind),
        *(stat(kind, summary.chao1_coverage, "median") for kind in TaxonomyKind),
    )


def emit_sensitivity(bundle: ReportBundle, summaries: Sequence[SensitivitySummary]) -> None:
    bundle.add_table(
        "sampling_sensitivity", SENSITIVITY_HEADER,
        [sensitivity_row(s) for s in summaries],
    )


def emit_family_econ(bundle: ReportBundle, table: FamilyEconTable) -> None:
    emp_shares = table.employment_shares()
    cap_shares = table.capital_shares()
    bundle.add_table(
        "family_economics",
        ["node_id", "label", "employment", "capital", "employment_share", "capital_share"],
        [
            (r.node_id, r.label, r.employment, r.capital,
             emp_shares.get(r.node_id, 0.0), cap_shares.get(r.node_id, 0.0))
            for r in table.rows
        ],
    )
    if table.unmatched_soc_codes:
        bundle.add_table(
            "unmatched_soc_codes", ["soc_code"],
            [(code,) for code in table.unmatched_soc_codes],
        )


def emit_skill_econ(bundle: ReportBundle, table: SkillEconTable) -> None:
    # effective_* columns are relative importance weights, not head-counts
    bundle.add_table(
        "skill_economics",
        ["node_id", "label", "level", "effective_employment", "effective_capital"],
        [
            (r.node_id, r.label, r.level, r.effective_employment, r.effective_capital)
            for r in table.rows
        ],
    )


def emit_digital(bundle: ReportBundle, table: DigitalShareTable) -> None:
    bundle.add_table(
        "digital_occupations",
        ["soc_code", "labeled_tasks", "digital_tasks", "digital_ratio"],
        [(r.soc_code, r.labeled_tasks, r.digital_tasks, r.ratio) for r in table.occupation_rows],
    )
    emp_shares = table.digital_employment_shares()
    bundle.add_table(
        "digital_families",
        ["node_id", "label", "digital_fraction", "digital_fraction_unweighted",
         "digital_employment", "digital_employment_share", "labeled_occupations"],
        [
            (r.node_id, r.label, r.digital_fraction, r.digital_fraction_unweighted,
             r.digital_employment, emp_shares.get(r.node_id, 0.0), r.labeled_occupations)
            for r in table.family_rows
        ],
    )
    if table.occupations_without_labels:
        bundle.add_table(
            "occupations_without_labels", ["soc_code"],
            [(code,) for code in table.occupations_without_labels],
        )


def emit_alignment(bundle: ReportBundle, report: AlignmentReport) -> None:
    """The ratio cell is empty where the row's ratio is infinite (effort on a
    node without employment), as the digital cells are where no share
    exists; no table holds a non-finite number."""
    bundle.add_table(
        f"alignment_{report.group_level.value}",
        ["node_id", "label", "effort_share", "employment_share", "capital_share",
         "digital_fraction", "digital_employment_share", "effort_to_employment_ratio"],
        [
            (r.node_id, r.label, r.effort_share, r.employment_share, r.capital_share,
             r.digital_fraction, r.digital_employment_share,
             r.effort_to_employment_ratio if math.isfinite(r.effort_to_employment_ratio)
             else None)
            for r in report.rows
        ],
    )


# ---------------------------------------------------------------------------
# Plot series
# ---------------------------------------------------------------------------

def effort_vs_employment_series(report: AlignmentReport) -> dict:
    return {
        "chart": "scatter",
        "x_axis": "employment_share",
        "y_axis": "effort_share",
        "points": [
            {
                "id": r.node_id,
                "label": r.label,
                "effort_share": r.effort_share,
                "employment_share": r.employment_share,
                "capital_share": r.capital_share,
                "digital_fraction": r.digital_fraction,
            }
            for r in report.rows
        ],
    }


def skill_distribution_series(report: AlignmentReport) -> dict:
    return {
        "chart": "bars",
        "x_axis": "skill_leaf",
        "series": ["effort_share", "employment_share"],
        "bars": [
            {
                "id": r.node_id,
                "label": r.label,
                "effort_share": r.effort_share,
                "employment_share": r.employment_share,
            }
            for r in report.rows
        ],
    }


def autonomy_heatmap_series(curves: Mapping[str, object]) -> dict:
    groups = sorted(curves)
    levels = sorted({k for g in groups for k in curves[g].levels})
    cells = []
    for g in groups:
        for k in levels:
            stats = curves[g].levels.get(k)
            if stats is not None:
                cells.append(
                    {"group": g, "level": k, "sr": stats.sr, "totals": stats.totals}
                )
    return {
        "chart": "heatmap",
        "rows": groups,
        "cols": levels,
        "value": "sr",
        "cells": cells,
    }


# ---------------------------------------------------------------------------
# Composite analytics used by the CLI `report` pipeline
# ---------------------------------------------------------------------------

def effort_distributions(
    results_by_kind: Mapping[TaxonomyKind, Iterable[MappingResult] | CheckedResults],
    taxonomies: Mapping[TaxonomyKind, Taxonomy],
) -> dict[TaxonomyKind, EffortDistribution]:
    """Each kind's effort at its reporting level."""
    return {
        kind: effort_by_node(results_by_kind.get(kind, ()), t)
        for kind, t in taxonomies.items()
    }


def coverage_suite(
    bundle: ReportBundle,
    results_by_kind: Mapping[TaxonomyKind, Iterable[MappingResult] | CheckedResults],
    taxonomies: Mapping[TaxonomyKind, Taxonomy],
) -> dict[TaxonomyKind, EffortDistribution]:
    """Coverage, effort and breadth tables per kind; returns the efforts so
    the alignment tables reuse them. Each kind's results are checked against
    its taxonomy once, then shared by the three computations; effort and
    breadth also share one node set per distinct path set."""
    efforts: dict[TaxonomyKind, EffortDistribution] = {}
    summary: dict = {"kinds": {}}
    for kind, taxonomy in taxonomies.items():
        results = check_results(results_by_kind.get(kind, ()), taxonomy)
        report = coverage(results, taxonomy)
        emit_coverage(bundle, report)
        sets = node_sets(results, taxonomy)
        efforts[kind] = effort_by_node(sets, taxonomy)
        breadth_stats = breadth(sets, taxonomy)
        emit_effort(bundle, efforts[kind])
        emit_breadth(bundle, breadth_stats)
        summary["kinds"][kind.value] = {
            "covered_paths": len(report.covered_paths),
            "total_paths": report.total_paths,
            "coverage": report.coverage,
            "per_benchmark": report.per_benchmark,
            "breadth": {name: getattr(breadth_stats, name) for name in _BREADTH_SUMMARY},
        }
    bundle.add_text(
        "coverage_summary.json", json.dumps(summary, sort_keys=True, indent=2) + "\n"
    )
    return efforts


def alignment_suite(
    bundle: ReportBundle,
    efforts: Mapping[TaxonomyKind, EffortDistribution],
    family_econ: FamilyEconTable,
    skill_econ: SkillEconTable,
    digital: DigitalShareTable | None,
) -> None:
    domain_alignment = alignment_report(efforts[TaxonomyKind.DOMAIN], family_econ, digital)
    emit_alignment(bundle, domain_alignment)
    bundle.add_plot_series(
        "effort_vs_employment", effort_vs_employment_series(domain_alignment)
    )

    skill_alignment = alignment_report(efforts[TaxonomyKind.SKILL], skill_econ)
    emit_alignment(bundle, skill_alignment)
    bundle.add_plot_series("skill_distribution", skill_distribution_series(skill_alignment))
