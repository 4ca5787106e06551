"""Loopback annotator stub for the ``remote-map`` workload.

A threaded HTTP server that speaks ``workatlas.annotate.RemoteAnnotator``'s
protocol: it takes ``{"instruction", "taxonomy"}`` and answers with the
keyword rules' candidates, after a fixed injected delay that stands in for
model latency. The first request for each instruction named by
``--fail-hashes`` (sha256 hex of the instruction) gets HTTP 503 instead, so
the client's retry path runs a known number of times.

``GET /stats`` returns the counters since the last ``POST /reset``: requests,
body bytes, 503s sent, per-request service times and the time-weighted mean
number of requests in flight.

Run: ``python3 perfbench/stub.py --domain-rules D.json --skill-rules S.json``.
It prints the port it listens on, on one line, then serves until its stdin
closes, so it also stops when the process that started it dies.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


class Stats:
    def __init__(self):
        self.lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        self.requests = 0
        self.body_bytes = 0
        self.unavailable = 0
        self.service_ms: list[float] = []
        self.failed_once: set[str] = set()
        self.in_flight = 0
        self.area = 0.0  # integral of in_flight over time
        self.first = self.last = None

    def _advance(self, now: float) -> None:
        if self.last is not None:
            self.area += self.in_flight * (now - self.last)
        else:
            self.first = now
        self.last = now

    def enter(self, body_bytes: int) -> None:
        with self.lock:
            self._advance(time.perf_counter())
            self.in_flight += 1
            self.requests += 1
            self.body_bytes += body_bytes

    def leave(self, service_ms: float) -> None:
        with self.lock:
            self._advance(time.perf_counter())
            self.in_flight -= 1
            self.service_ms.append(service_ms)

    def snapshot(self) -> dict:
        with self.lock:
            window = (self.last - self.first) if self.first is not None else 0.0
            return {
                "requests": self.requests,
                "body_bytes": self.body_bytes,
                "unavailable": self.unavailable,
                "service_ms": sorted(self.service_ms),
                "in_flight_mean": self.area / window if window > 0 else 0.0,
            }


def load_rules(path: str) -> list[tuple[str, list[str]]]:
    with open(path, encoding="utf-8") as fh:
        return [(r["keyword"].lower(), r["labels"]) for r in json.load(fh)]


def make_handler(rules: dict, fail_hashes: set[str], delay_s: float, stats: Stats):
    class Handler(BaseHTTPRequestHandler):
        def log_message(self, *args):  # keep stderr quiet
            pass

        def _send(self, code: int, body: bytes) -> None:
            self.send_response(code)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self):
            if self.path != "/stats":
                self._send(404, b"{}")
                return
            self._send(200, json.dumps(stats.snapshot()).encode("utf-8"))

        def do_POST(self):
            length = int(self.headers.get("Content-Length", 0))
            body = self.rfile.read(length)
            if self.path == "/reset":
                with stats.lock:
                    stats.reset()
                self._send(200, b"{}")
                return
            start = time.perf_counter()
            stats.enter(length)
            try:
                doc = json.loads(body)
                instruction = doc["instruction"]
                digest = hashlib.sha256(instruction.encode("utf-8")).hexdigest()
                time.sleep(delay_s)
                with stats.lock:
                    fail = digest in fail_hashes and digest not in stats.failed_once
                    if fail:
                        stats.failed_once.add(digest)
                        stats.unavailable += 1
                if fail:
                    self._send(503, b"{}")
                    return
                kind = "skill" if doc["taxonomy"].startswith("skill") else "domain"
                lowered = instruction.lower()
                hits = [labels for keyword, labels in rules[kind] if keyword in lowered]
                self._send(200, json.dumps(hits).encode("utf-8"))
            finally:
                stats.leave((time.perf_counter() - start) * 1000.0)

    return Handler


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--domain-rules", required=True)
    parser.add_argument("--skill-rules", required=True)
    parser.add_argument("--fail-hashes", default="")
    parser.add_argument("--delay-ms", type=float, default=5.0)
    args = parser.parse_args()
    rules = {"domain": load_rules(args.domain_rules), "skill": load_rules(args.skill_rules)}
    fail_hashes = {h for h in args.fail_hashes.split(",") if h}
    stats = Stats()
    server = ThreadingHTTPServer(
        ("127.0.0.1", 0), make_handler(rules, fail_hashes, args.delay_ms / 1000.0, stats)
    )
    server.daemon_threads = True
    serving = threading.Thread(target=server.serve_forever)
    serving.start()
    print(server.server_address[1], flush=True)
    try:
        sys.stdin.read()
    finally:
        server.shutdown()
        serving.join()
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
