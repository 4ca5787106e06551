"""Paper-scale benchmark for workatlas.

Usage, from the repository root:

    python3 perfbench/run.py --workload report-paper --seed 1 --seconds 48 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 48 --trace 0

Each run generates paper-shaped inputs from ``--seed`` under
``.perfbench_work/``, checks them with ``workatlas.cli.validate_inputs``, and
then runs the workload's ``workatlas.cli.main`` calls in fresh interpreters,
one after another (a closed loop, as users run the tool), for about
``--seconds``. Every iteration's tables are checked against the generator's
ground truth. With ``--trace 0`` the run reports the end-to-end metrics as
medians over iterations; with ``--trace 1`` it alternates untraced and traced
iterations and reports the per-layer metrics. The last stdout line is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

Workloads:

- ``report-paper``: one ``workatlas report`` over 4,000 examples with the
  keyword annotator (one rule per leaf) and 500 permutations.
- ``reanalyze-large``: ``coverage``, ``economics --mappings`` and
  ``autonomy`` over a recorded 20,000-example mappings file and 10,000
  workflows; no annotation and no sampling.
- ``remote-map``: ``workatlas map --annotator remote --parallelism 2`` over
  the first 1,000 report-paper examples, against ``stub.py`` in its own
  process with a 5 ms delay per request.

``BENCHMARK.json`` registers only the first two. ``remote-map`` runs with
``--workload remote-map`` or ``all``: being latency-bound across two
processes, its run-to-run spread on a shared two-vCPU host exceeded a 0.25
bound in one of four ten-seed trials, so it is not a regression gate.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
# A run must end within 180 s; leave room to clean up after the last child.
RUN_LIMIT_S = 165.0

import gen  # noqa: E402  (sibling module; sys.path[0] is this directory)
import oracle  # noqa: E402
import spans  # noqa: E402


class Run:
    """Operation counts and the clock shared by one benchmark run."""

    def __init__(self):
        self.started = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def left(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.started)

    def record(self, ok: bool, problem: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)


def child_env(extra: dict | None = None) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    env.update(extra or {})
    return env


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def prepare(workload: str, seed: int, work: Path, spec: dict) -> dict:
    """Generate the workload's inputs, validate them, and return the CLI
    calls plus the ground truth its outputs are checked against."""
    from workatlas.cli import RunConfig, validate_inputs

    sizes = spec["workloads"][workload]
    rng = random.Random(seed)
    trees = gen.make_trees(rng, spec["shape"])
    common = gen.write_common(rng, trees, work)
    files = dict(common["files"])
    taxonomies = ["--domain-taxonomy", files["domain_taxonomy"],
                  "--skill-taxonomy", files["skill_taxonomy"]]
    labour = ["--occupations", files["occupations"], "--importance", files["importance"],
              "--digital-labels", files["digital_labels"]]
    plan = {"family_employment": common["family_employment"], "env": {}}

    if workload == "reanalyze-large":
        corpus = gen.make_corpus(rng, trees, sizes["examples"], spec["zipf_s"],
                                 *spec["keywords_per_example"])
        files["mappings"] = str(work / "mappings.jsonl")
        files["workflows"] = str(work / "workflows.jsonl")
        gen.write_mappings(corpus, trees, Path(files["mappings"]))
        plan["workflows"] = gen.write_workflows(rng, Path(files["workflows"]), sizes["workflows"])
        plan["calls"] = [
            ["coverage", "--mappings", files["mappings"], *taxonomies],
            ["economics", "--mappings", files["mappings"], *taxonomies, *labour],
            ["autonomy", "--workflows", files["workflows"]],
        ]
    else:
        report = spec["workloads"]["report-paper"]
        corpus = gen.make_corpus(rng, trees, report["examples"], spec["zipf_s"],
                                 *spec["keywords_per_example"])
        files["examples"] = str(work / "examples.jsonl")
        if workload == "report-paper":
            files["workflows"] = str(work / "workflows.jsonl")
            plan["workflows"] = gen.write_workflows(rng, Path(files["workflows"]),
                                                    sizes["workflows"])
            plan["calls"] = [[
                "report", "--examples", files["examples"], *taxonomies, *labour,
                "--workflows", files["workflows"],
                "--domain-rules", files["domain_rules"], "--skill-rules", files["skill_rules"],
                "--permutations", str(sizes["permutations"]),
                "--batch-size", str(sizes["batch_size"]), "--delta", str(sizes["delta"]),
            ]]
        else:
            corpus = corpus.head(sizes["examples"])
            plan["calls"] = [["map", "--annotator", "remote",
                              "--parallelism", str(sizes["parallelism"]),
                              "--examples", files["examples"], *taxonomies]]
            plan["expected_paths"] = gen.expected_paths(corpus, trees)
            digests = sorted(hashlib.sha256(text.encode("utf-8")).hexdigest()
                             for text in corpus.instructions)
            plan["fail_hashes"] = digests[:sizes["stub_503_instructions"]]
        gen.write_examples(corpus, Path(files["examples"]))
    plan["truth"] = gen.truth(corpus, trees)
    plan["files"] = files
    plan["n"] = len(corpus.keys)

    checked = {k: v for k, v in files.items() if not k.endswith("_rules")}
    violations = validate_inputs(RunConfig(command="report", values=checked)).violations
    if violations:
        raise SystemExit(f"generated inputs fail validation: {violations[:3]}")
    return plan


# ---------------------------------------------------------------------------
# Stub process
# ---------------------------------------------------------------------------

class Stub:
    def __init__(self, plan: dict, delay_ms: float):
        files = plan["files"]
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "stub.py"), "--domain-rules", files["domain_rules"],
             "--skill-rules", files["skill_rules"], "--delay-ms", str(delay_ms),
             "--fail-hashes", ",".join(plan["fail_hashes"])],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=child_env(),
        )
        port = self.proc.stdout.readline().strip()
        if not port.isdigit():
            self.close()
            raise SystemExit("annotator stub did not start")
        self.base = f"http://127.0.0.1:{port}"

    def _call(self, path: str, data: bytes | None = None) -> dict:
        with urllib.request.urlopen(urllib.request.Request(self.base + path, data=data),
                                    timeout=30) as resp:
            return json.loads(resp.read())

    def reset(self) -> None:
        self._call("/reset", b"")

    def stats(self) -> dict:
        return self._call("/stats")

    def close(self) -> None:
        self.proc.stdin.close()  # the stub stops at end of input
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def measure_setup(plan: dict, repeats: int, run: Run) -> list[float]:
    """Fresh-interpreter ``import workatlas.cli`` plus loading both trees.

    Called before the first iteration and again after each one, so the
    samples spread over the run rather than sharing one moment's host load.
    """
    code = ("import time\nt = time.perf_counter()\nimport workatlas.cli as c\n"
            "c.load_taxonomy({d!r})\nc.load_taxonomy({s!r})\nprint(time.perf_counter() - t)")
    code = code.format(d=plan["files"]["domain_taxonomy"], s=plan["files"]["skill_taxonomy"])
    times = []
    for _ in range(repeats):
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=child_env(), timeout=max(run.left(), 1.0), cwd=ROOT)
        if done.returncode != 0:
            raise SystemExit(f"set-up failed: {done.stderr.strip()[-400:]}")
        times.append(float(done.stdout.split()[-1]))
    return times


def run_child(plan: dict, work: Path, tag: str, run: Run, trace: bool) -> dict | None:
    """One iteration: the workload's CLI calls in a fresh process."""
    out = work / "runs" / tag
    calls = [[*argv, "--out", str(out), "--run-id", f"{i}-{argv[0]}"]
             for i, argv in enumerate(plan["calls"])]
    job = {"src": str(SRC), "calls": calls, "run_id": tag,
           "trace": str(work / f"{tag}.spans.json") if trace else None}
    job_path = work / f"{tag}.job.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    try:
        done = subprocess.run([sys.executable, str(HERE / "child.py"), str(job_path)],
                              capture_output=True, text=True, env=child_env(plan["env"]),
                              timeout=max(run.left(), 1.0), cwd=ROOT)
    except subprocess.TimeoutExpired:
        for _ in calls:
            run.record(False, f"{tag}: timed out")
        return None
    try:
        if done.returncode != 0:
            raise ValueError(f"exited {done.returncode}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError) as err:
        for _ in calls:
            run.record(False, f"{tag}: child {err}: {done.stderr[-400:]}")
        return None
    result["dirs"] = [out / f"{i}-{argv[0]}" for i, argv in enumerate(plan["calls"])]
    result["stderr"] = done.stderr
    return result


def check(workload: str, plan: dict, result: dict, spec: dict, run: Run,
          stub_stats: dict | None) -> None:
    """Count each CLI call and annotator request, and fail what the oracle rejects."""
    truth = plan["truth"]
    problems_by_call: list[list[str]] = []
    if workload == "report-paper":
        (d,) = result["dirs"]
        problems_by_call.append(
            oracle.outcomes(d, plan["n"]) + oracle.coverage(d, truth)
            + oracle.sensitivity(d, truth, spec["workloads"][workload]["batch_size"])
            + oracle.economics(d, plan["family_employment"]) + oracle.alignment(d, truth)
            + oracle.autonomy(d, plan["workflows"]))
    elif workload == "reanalyze-large":
        cov, econ, auto = result["dirs"]
        problems_by_call.append(oracle.coverage(cov, truth))
        problems_by_call.append(oracle.economics(econ, plan["family_employment"])
                                + oracle.alignment(econ, truth))
        problems_by_call.append(oracle.autonomy(auto, plan["workflows"]))
    else:
        (d,) = result["dirs"]
        problems = oracle.outcomes(d, plan["n"]) + oracle.mapped_paths(d, plan["expected_paths"])
        expected_requests = 2 * plan["n"] + len(plan["fail_hashes"])
        if (stub_stats["requests"], stub_stats["unavailable"]) != (
                expected_requests, len(plan["fail_hashes"])):
            problems.append(f"stub saw {stub_stats['requests']} requests and sent "
                            f"{stub_stats['unavailable']} 503s, expected {expected_requests} "
                            f"and {len(plan['fail_hashes'])}")
        problems_by_call.append(problems)
    for code, problems in zip(result["codes"], problems_by_call):
        if code != 0:
            problems = [f"exit code {code}: {result['stderr'][-400:]}"]
        run.record(not problems, "; ".join(problems))
    if workload != "reanalyze-large":
        # Annotator requests: one per example and taxonomy kind. A request
        # that raised aborts the CLI call, which is then counted failed above.
        run.attempted += 2 * plan["n"]


def bytes_written(dirs: list[Path]) -> int:
    return sum(p.stat().st_size for d in dirs for p in d.rglob("*") if p.is_file())


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def run_workload(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    run = Run()
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    stub = None
    try:
        plan = prepare(workload, seed, work, spec)
        setup = measure_setup(plan, spec["setup_repeats"], run)
        if workload == "remote-map":
            stub = Stub(plan, spec["workloads"][workload]["stub_delay_ms"])
            plan["env"] = {"ATLAS_ANNOTATOR_URL": stub.base + "/annotate"}
        plain: list[dict] = []
        traced: list[dict] = []
        loop_start = time.perf_counter()
        durations: list[float] = []
        iteration = 0
        while run.failed == 0 and run.left() > 0:
            started = time.perf_counter()
            with_trace = trace and iteration % 2 == 1
            if stub is not None:
                stub.reset()
            result = run_child(plan, work, f"it{iteration}", run, with_trace)
            iteration += 1
            if result is None:
                break
            stub_stats = stub.stats() if stub is not None else None
            check(workload, plan, result, spec, run, stub_stats)
            if with_trace:
                spans_path = work / f"it{iteration - 1}.spans.json"
                layer = spans.per_layer(json.loads(spans_path.read_text()), stub_stats)
                # Keep the latest spans for inspection; the rest of the work dir goes.
                shutil.copyfile(spans_path, WORK / f"{workload}.spans.json")
                layer["reporting.bytes_written"] = bytes_written(result["dirs"])
                layer["_wall_s"] = result["wall_s"]
                if stub_stats is not None:
                    layer["_stub_requests"] = stub_stats["requests"]
                traced.append(layer)
            else:
                plain.append(result)
            shutil.rmtree(work / "runs", ignore_errors=True)
            setup += measure_setup(plan, spec["setup_repeats_per_iteration"], run)
            # Start another iteration only if at least half of it fits in --seconds.
            durations.append(time.perf_counter() - started)
            next_half = time.perf_counter() - loop_start + median(durations) / 2
            if next_half > seconds and (not trace or (plain and traced)):
                break
    finally:
        if stub is not None:
            stub.close()
        shutil.rmtree(work, ignore_errors=True)

    n = plan["n"]
    if not trace:
        walls = [r["wall_s"] for r in plain]
        metrics = {
            "wall_s": median(walls),
            "examples_per_s": median([n / w for w in walls]),
            "cpu_s": median([r["cpu_s"] for r in plain]),
            "peak_rss_mb": median([r["maxrss_kb"] / 1024.0 for r in plain]),
            "setup_s": median(setup),
        }
        units = {m["name"]: m["unit"] for m in load_benchmark()["end_to_end"]}
    else:
        # median_low reports an observed value, so exact counts stay integers.
        metrics = {name: statistics.median_low([layer[name] for layer in traced])
                   for name in traced[0] if not name.startswith("_")} if traced else {}
        if traced:
            metrics["trace.overhead_s"] = (median([t["_wall_s"] for t in traced])
                                           - median([r["wall_s"] for r in plain]))
            if workload == "remote-map":
                for layer in traced:
                    if layer["_stub_requests"] != 2 * n + layer["annotate.retries"]:
                        run.record(False, "stub requests != annotate calls + retries")
        units = {m["name"]: m["unit"] for m in load_benchmark()["per_layer"]}
    return {
        "correct": run.failed == 0 and bool(plain) and (bool(traced) or not trace),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "_iterations": len(plain) + len(traced),
        "_walls": [r["wall_s"] for r in plain],
        "_problems": run.problems[:5],
    }


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def summary(workload: str, result: dict, exact: set[str]) -> list[str]:
    lines = [f"# {workload}: {result['_iterations']} iterations, "
             f"error_rate {result['failed'] / max(result['attempted'], 1):.4f} ratio "
             f"({result['failed']} failed of {result['attempted']} operations); "
             f"untraced walls {' '.join(f'{w:.3f}' for w in result['_walls'])} s"]
    for name, m in result["metrics"].items():
        tag = " (exact)" if name in exact else ""
        lines.append(f"#   {name:32s} {m['value']:>14.6g} {m['unit']}{tag}")
    lines.extend(f"#   problem: {p}" for p in result["_problems"])
    return lines


def _terminate(signum, frame):
    # Unwind through the ``finally`` blocks that stop the stub and clean up.
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description="workatlas paper-scale benchmark")
    parser.add_argument("--workload", required=True,
                        choices=["report-paper", "reanalyze-large", "remote-map", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "workatlas" / "cli.py").is_file():
        print(f"workatlas sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workatlas

    if SRC.resolve() not in Path(workatlas.__file__).resolve().parents:
        print(f"workatlas imported from {workatlas.__file__}, not {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((HERE / "spec.json").read_text(encoding="utf-8"))
    exact = set(spec["exact_counts"])
    names = ["report-paper", "reanalyze-large", "remote-map"] if args.workload == "all" \
        else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), spec)
        print("\n".join(summary(name, results[name], exact)), flush=True)
    public = {name: {k: v for k, v in r.items() if not k.startswith("_")}
              for name, r in results.items()}
    print(json.dumps(public[args.workload] if args.workload != "all" else public))
    return 0


if __name__ == "__main__":
    sys.exit(main())
