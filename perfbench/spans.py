"""Span recorder for the traced run, and the per-layer metrics derived from it.

The recorder instruments workatlas from the outside: it rebinds public
functions in the modules that import them (``workatlas.cli``,
``workatlas.reporting``, ``workatlas.mapping``, ``workatlas.io``) and the
annotator classes' ``annotate``, so nothing inside the package changes.
Spans (id, parent, name, start, end) stay in memory and are written once, at
the end, with the run id they share.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import threading
import time
import urllib.request
from collections import Counter
from pathlib import Path


class SpanRecorder:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.counters: Counter = Counter()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, on_result=None):
        """``name`` is a span name, or a function of the call's arguments
        that returns one. ``on_result(recorder, args, result)`` records counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            # Worker threads start with an empty stack; their spans belong to
            # whatever the main thread has open (the map_corpus call).
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
            span_id = next(self._ids)
            span_name = name(*args, **kwargs) if callable(name) else name
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                with self._lock:
                    self.counters[span_name + ".raised"] += 1
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((span_id, parent, span_name, start, end))
            if on_result is not None:
                on_result(self, args, result)
            return result

        return traced

    def write(self, path: Path) -> None:
        path.write_text(json.dumps({"run_id": self.run_id, "spans": self.spans,
                                    "counters": dict(self.counters)}), encoding="utf-8")


def _rebind(recorder: SpanRecorder, module, attr: str, name, on_result=None) -> None:
    setattr(module, attr, recorder.wrap(name, getattr(module, attr), on_result))


def _count_prompt(rec, args, text):
    rec.counters["taxonomy.prompt_bytes"] += len(text.encode("utf-8"))


def _count_outcomes(rec, args, results):
    for r in results:
        rec.counters[f"mapping.outcome.{r.status.value}"] += 1


def _count_sensitivity(rec, args, summary):
    rec.counters["sampling.permutations"] += summary.permutations
    rec.counters["sampling.units_drawn"] += sum(summary.stop_sizes)
    rec.counters["sampling.units_shuffled"] += summary.permutations * summary.pool_size


def _count_nodes(rec, args, curves):
    rec.counters["autonomy.nodes"] += sum(c.total_nodes for c in curves.values())


def install(recorder: SpanRecorder) -> None:
    """Rebind every traced entry point. Call before ``workatlas.cli.main``."""
    from workatlas import annotate, cli, io, mapping, reporting

    for attr, name, hook in (
        ("main", "cli.main", None),
        ("validate_inputs", "cli.validate", None),
        ("load_taxonomy", "taxonomy.load", None),
        ("map_corpus", lambda examples, t, *a, **k: f"mapping.map_corpus.{t.kind.value}",
         _count_outcomes),
        ("build_pool", "sampling.build_pool", None),
        ("permutation_sensitivity", "sampling.sensitivity", _count_sensitivity),
        ("domain_employment_capital", "economics.family", None),
        ("effective_skill_employment_capital", "economics.skill", None),
        ("digital_share", "economics.digital", None),
        ("success_rates", "autonomy.success_rates", _count_nodes),
        ("write_mappings", "io.write_mappings", None),
    ):
        _rebind(recorder, cli, attr, name, hook)
    for attr in ("read_examples", "read_mappings", "read_occupations", "read_importance",
                 "read_digital_labels", "read_workflows", "read_raw_mappings", "read_curves"):
        _rebind(recorder, cli, attr, f"io.parse.{attr}")
    for attr, name, hook in (
        ("coverage", "coverage.coverage", None),
        ("effort_by_node", "coverage.effort", None),
        ("breadth", "coverage.breadth", None),
        ("alignment_report", "economics.alignment", None),
        ("sha256_bytes", "reporting.digest", None),
        ("sha256_file", "reporting.digest", None),
        ("render_table", "reporting.table", None),
    ):
        _rebind(recorder, reporting, attr, name, hook)
    _rebind(recorder, mapping, "resolve_path", "taxonomy.resolve")
    _rebind(recorder, mapping, "parse_candidates", "mapping.parse")
    _rebind(recorder, mapping, "flatten_for_prompt", "taxonomy.prompt", _count_prompt)
    _rebind(recorder, io, "resolve_path", "taxonomy.resolve")
    for cls in (annotate.KeywordAnnotator, annotate.ReplayAnnotator, annotate.RemoteAnnotator):
        cls.annotate = recorder.wrap(f"annotate.{cls.__name__}", cls.annotate)
    # Every HTTP attempt RemoteAnnotator makes, so retries are counted exactly.
    urllib.request.urlopen = recorder.wrap("annotate.http", urllib.request.urlopen)


# ---------------------------------------------------------------------------
# Derivation
# ---------------------------------------------------------------------------

def _union(intervals) -> float:
    total = 0.0
    end = None
    for s, e in sorted(intervals):
        if end is None or s > end:
            total += e - s
            end = e
        elif e > end:
            total += e - end
            end = e
    return total


def _pct(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def per_layer(trace: dict, stub: dict | None) -> dict[str, float]:
    """Per-layer metrics of one traced workload run.

    ``busy_s`` is the union of a layer's span intervals (so parallel calls are
    not counted twice); ``self_s`` is a span's duration less the part its
    direct children cover.
    """
    spans = trace["spans"]
    counters = trace["counters"]
    by_name: dict[str, list] = {}
    children: dict[int, list] = {}
    for span in spans:
        by_name.setdefault(span[2], []).append(span)
        if span[1] is not None:
            children.setdefault(span[1], []).append(span)

    def calls(*names: str) -> int:
        return sum(len(by_name.get(n, ())) for n in names)

    def busy(*prefixes: str) -> float:
        return _union((s[3], s[4]) for s in spans if s[2].startswith(prefixes))

    def self_time(name: str) -> float:
        total = 0.0
        for sid, _, _, start, end in by_name.get(name, ()):
            kids = [(max(c[3], start), min(c[4], end)) for c in children.get(sid, ())]
            total += (end - start) - _union(k for k in kids if k[1] > k[0])
        return total

    annotate_ms = [(s[4] - s[3]) * 1000.0 for s in spans
                   if s[2].startswith("annotate.") and s[2] != "annotate.http"]
    remote_calls = calls("annotate.RemoteAnnotator")
    stub = stub or {}
    shuffled = counters.get("sampling.units_shuffled", 0)
    return {
        "taxonomy.load.calls": calls("taxonomy.load"),
        "taxonomy.load.busy_s": busy("taxonomy.load"),
        "taxonomy.resolve.calls": calls("taxonomy.resolve"),
        "taxonomy.resolve.busy_s": busy("taxonomy.resolve"),
        "taxonomy.prompt_bytes": counters.get("taxonomy.prompt_bytes", 0),
        "annotate.calls": len(annotate_ms),
        "annotate.busy_s": busy("annotate.KeywordAnnotator", "annotate.ReplayAnnotator",
                                "annotate.RemoteAnnotator"),
        "annotate.latency_p50_ms": statistics.median(annotate_ms) if annotate_ms else 0.0,
        "annotate.latency_p99_ms": _pct(annotate_ms, 0.99),
        "annotate.retries": calls("annotate.http") - remote_calls if remote_calls else 0,
        "annotate.request_bytes": stub.get("body_bytes", 0),
        "annotate.stub_service_p50_ms": (statistics.median(stub["service_ms"])
                                         if stub.get("service_ms") else 0.0),
        "annotate.in_flight_mean": stub.get("in_flight_mean", 0.0),
        "mapping.map_corpus.domain_s": busy("mapping.map_corpus.domain"),
        "mapping.map_corpus.skill_s": busy("mapping.map_corpus.skill"),
        "mapping.parse.busy_s": busy("mapping.parse"),
        "mapping.outcome.mapped": counters.get("mapping.outcome.mapped", 0),
        "mapping.outcome.empty": counters.get("mapping.outcome.empty", 0),
        "mapping.outcome.invalid": counters.get("mapping.outcome.invalid", 0),
        "io.read_mappings.busy_s": busy("io.parse.read_mappings"),
        "io.read_workflows.busy_s": busy("io.parse.read_workflows"),
        "io.read_importance.busy_s": busy("io.parse.read_importance"),
        "io.write_mappings.busy_s": busy("io.write_mappings"),
        "io.parse.calls": sum(len(v) for k, v in by_name.items() if k.startswith("io.parse.")),
        "coverage.coverage.busy_s": busy("coverage.coverage"),
        "coverage.effort.busy_s": busy("coverage.effort"),
        "coverage.effort.calls": calls("coverage.effort"),
        "coverage.breadth.busy_s": busy("coverage.breadth"),
        "sampling.build_pool.calls": calls("sampling.build_pool"),
        "sampling.build_pool.busy_s": busy("sampling.build_pool"),
        "sampling.sensitivity.busy_s": busy("sampling.sensitivity"),
        "sampling.permutations": counters.get("sampling.permutations", 0),
        "sampling.units_drawn": counters.get("sampling.units_drawn", 0),
        "sampling.draw_efficiency": (counters.get("sampling.units_drawn", 0) / shuffled
                                     if shuffled else 0.0),
        "economics.family.busy_s": busy("economics.family"),
        "economics.skill.busy_s": busy("economics.skill"),
        "economics.digital.busy_s": busy("economics.digital"),
        "economics.alignment.busy_s": busy("economics.alignment"),
        "autonomy.success_rates.calls": calls("autonomy.success_rates"),
        "autonomy.success_rates.busy_s": busy("autonomy.success_rates"),
        "autonomy.nodes": counters.get("autonomy.nodes", 0),
        "reporting.digest.busy_s": busy("reporting.digest"),
        "reporting.tables": calls("reporting.table"),
        "cli.validate.busy_s": busy("cli.validate"),
        "cli.self_s": self_time("cli.main"),
    }
