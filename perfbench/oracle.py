"""Checks of a workload's output tables against the generator's ground truth.

Each check returns a list of problems; an empty list means the output is
correct. Sampling tables are checked only for invariants, never pinned to
values, because a new sampler may legitimately draw another random stream.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path


def _rows(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _guard(check):
    """A missing or malformed table is a failed check, not a crash."""
    def guarded(*args, **kwargs) -> list[str]:
        try:
            return check(*args, **kwargs)
        except (OSError, KeyError, ValueError) as err:
            return [f"{check.__name__}: {type(err).__name__}: {err}"]
    guarded.__name__ = check.__name__
    return guarded


@_guard
def outcomes(run: Path, n: int) -> list[str]:
    rows = _rows(run / "tables" / "mapping_outcomes.csv")
    pooled = [r for r in rows if r["benchmark"] == "(all)"]
    problems = [f"{r['taxonomy_kind']}: {r['mapped']} of {r['total']} mapped, expected {n}"
                for r in pooled if int(r["total"]) != n or int(r["mapped"]) != n]
    if sorted(r["taxonomy_kind"] for r in pooled) != ["domain", "skill"]:
        problems.append("mapping_outcomes lacks a pooled row per kind")
    return problems


@_guard
def coverage(run: Path, truth: dict) -> list[str]:
    problems = []
    for kind in ("domain", "skill"):
        expected = {"(pooled)": truth[kind]["covered"], **truth[kind]["covered_by_benchmark"]}
        got = {r["benchmark"]: int(r["covered_paths"])
               for r in _rows(run / "tables" / f"coverage_{kind}.csv")}
        if got != expected:
            problems.append(f"coverage_{kind}: covered paths {got} != {expected}")
        level = "domain_family" if kind == "domain" else "skill_leaf"
        effort = {r["node_id"]: int(r["count"])
                  for r in _rows(run / "tables" / f"effort_{level}.csv")}
        if effort != truth[kind]["effort"]:
            problems.append(f"effort_{level} differs from ground truth")
    return problems


@_guard
def sensitivity(run: Path, truth: dict, batch_size: int) -> list[str]:
    problems = []
    sizes = {**truth["pool_by_benchmark"], "pooled": truth["examples"]}
    rows = _rows(run / "tables" / "sampling_sensitivity.csv")
    if sorted(r["benchmark"] for r in rows) != sorted(sizes):
        problems.append(f"sampling_sensitivity rows {[r['benchmark'] for r in rows]}")
    for r in rows:
        pool = int(r["total"])
        if pool != sizes.get(r["benchmark"]):
            problems.append(f"sampling {r['benchmark']}: pool {pool}, "
                            f"expected {sizes.get(r['benchmark'])}")
        for col in ("stop_size_median", "stop_size_ci_low", "stop_size_ci_high"):
            if not batch_size <= float(r[col]) <= pool:
                problems.append(f"sampling {r['benchmark']}: {col}={r[col]} "
                                f"outside [{batch_size}, {pool}]")
        for col in r:
            if "coverage" in col and not 0.0 <= float(r[col]) <= 1.0:
                problems.append(f"sampling {r['benchmark']}: {col}={r[col]} outside [0, 1]")
    return problems


@_guard
def economics(run: Path, family_employment: list[float]) -> list[str]:
    got = {r["node_id"]: float(r["employment"])
           for r in _rows(run / "tables" / "family_economics.csv")}
    expected = {f"f{i}": e for i, e in enumerate(family_employment)}
    if got.keys() != expected.keys() or any(
        not math.isclose(got[k], expected[k], rel_tol=1e-9) for k in expected
    ):
        return ["family_economics employment differs from the occupations table"]
    return []


@_guard
def alignment(run: Path, truth: dict) -> list[str]:
    effort = truth["domain"]["effort"]
    total = sum(effort.values())
    rows = _rows(run / "tables" / "alignment_domain_family.csv")
    bad = [r["node_id"] for r in rows
           if not math.isclose(float(r["effort_share"]), effort.get(r["node_id"], 0) / total,
                               rel_tol=1e-9, abs_tol=1e-12)]
    return [f"alignment effort shares differ for {bad}"] if bad else []


@_guard
def autonomy(run: Path, workflows: dict) -> list[str]:
    overall = [r for r in _rows(run / "tables" / "autonomy_curves.csv") if r["group"] == "overall"]
    nodes = sum(int(r["totals"]) for r in overall)
    successes = sum(int(r["successes"]) for r in overall)
    if (nodes, successes) != (workflows["nodes"], workflows["successes"]):
        return [f"autonomy overall {successes}/{nodes}, "
                f"expected {workflows['successes']}/{workflows['nodes']}"]
    return []


@_guard
def mapped_paths(run: Path, expected: dict) -> list[str]:
    """Every persisted mapping names exactly the ground-truth paths."""
    seen = 0
    problems = []
    with open(run / "mappings.jsonl", encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            key = (record["taxonomy_kind"], record["benchmark"], record["example_id"])
            seen += 1
            if sorted(map(tuple, record["paths"])) != expected.get(key):
                problems.append(f"mapping {key} differs from ground truth")
    if seen != len(expected):
        problems.append(f"{seen} mapping records, expected {len(expected)}")
    return problems[:5]
