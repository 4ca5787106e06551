"""Runs one workload's CLI calls in a fresh interpreter and reports their cost.

Usage: ``python3 perfbench/child.py JOB.json``, where the job holds the
workatlas source directory, the argument lists for ``workatlas.cli.main``,
and, for a traced run, where to write the spans. The last stdout line is a
JSON object: exit codes, wall and CPU seconds of the calls, and the
process's peak RSS. Importing workatlas happens before the clock starts;
the benchmark's ``setup_s`` measures that separately.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def peak_rss_kb() -> int:
    """Peak RSS of this process's own address space.

    On Linux ``ru_maxrss`` also counts the image of the parent this process
    was forked from (the high-water mark survives ``execve``), so the
    address space's own ``VmHWM`` is read where it exists.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    sys.path.insert(0, job["src"])
    from workatlas import cli

    recorder = None
    if job.get("trace"):
        from spans import SpanRecorder, install

        recorder = SpanRecorder(job["run_id"])
        install(recorder)

    codes = []
    sink = io.StringIO()
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink):
        for argv in job["calls"]:
            codes.append(cli.main(argv))
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    if recorder is not None:
        recorder.write(Path(job["trace"]))
    print(json.dumps({
        "codes": codes,
        "wall_s": wall,
        "cpu_s": (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
        "maxrss_kb": peak_rss_kb(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
