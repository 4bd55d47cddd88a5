"""The ``service-open`` workload: one service process, open-loop load.

The harness launches ``python -m repro.service`` on an empty cache dir,
waits for ``/healthz`` and one warm-up job of each kind, then sends the
seeded schedule from ``loadgen`` from this single thread, one request
at a time (the server closes every connection after one response).
Latency runs from each job's due time to its server-side ``finished``
stamp.  After the schedule drains, a seeded sample of artifacts is
compared bitwise with ``repro.service.run_job_naive``.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import layers
import loadgen
from loadgen import Outcome, Request

HERE = Path(__file__).resolve().parent

#: Warm-up jobs (set-up time), one per request kind and pulse geometry.
#: Their params lie outside the ranges ``loadgen`` draws from, so they
#: warm imports and compiled netlists but no cache entry the load uses.
WARMUPS: List[Tuple[str, Dict[str, Any]]] = [
    ("margins", dict(loadgen.MARGIN_BASE, scales=[1.15])),
    ("figure14", {"workloads": ["towers"], "designs": ["ndro_rf", "hiperrf"],
                  "scale": 0.3}),
    ("figure15", {"cell_pitch_um": 100.0}),
    ("banking", {"scale": 0.3, "max_instructions": 100_000}),
] + [("pulse_rf", {"registers": r, "width": w, "pattern": [[0, 1]]})
     for r, w in loadgen.PULSE_GEOMETRIES]

START_TIMEOUT_S = 60.0
DRAIN_TIMEOUT_S = 60.0
#: Requests compared against the naive path, per experiment kind.
CHECKS_PER_KIND = 1


class Http:
    """Minimal JSON client; one short connection per request."""

    def __init__(self, port: int) -> None:
        self.port = port

    def call(self, method: str, path: str,
             body: Optional[Dict[str, Any]] = None) -> Tuple[int, Any]:
        connection = http.client.HTTPConnection("127.0.0.1", self.port,
                                                timeout=30)
        try:
            payload = json.dumps(body) if body is not None else None
            headers = {"Content-Type": "application/json"} if payload else {}
            connection.request(method, path, body=payload, headers=headers)
            response = connection.getresponse()
            return response.status, json.loads(response.read() or b"null")
        finally:
            connection.close()


class Service:
    """A service process on an ephemeral port, stopped by ``close``."""

    def __init__(self, env: Dict[str, str], cache_dir: Path,
                 trace_files: Optional[Tuple[Path, Path]] = None) -> None:
        service_args = ["--port", "0", "--cache-dir", str(cache_dir)]
        if trace_files is None:
            command = [sys.executable, "-m", "repro.service"] + service_args
        else:
            summary, spans = trace_files
            command = [sys.executable, str(HERE / "service_child.py"),
                       "--summary", str(summary), "--spans", str(spans),
                       "--"] + service_args
        self.launched = time.time()
        self.process = subprocess.Popen(
            command, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True)
        assert self.process.stdout is not None
        line = self.process.stdout.readline()
        match = re.search(r"http://[^:]+:(\d+)", line)
        if match is None:
            self.close()
            raise RuntimeError(f"service did not start: {line!r}")
        self.http = Http(int(match.group(1)))

    def healthy(self) -> None:
        deadline = time.monotonic() + START_TIMEOUT_S
        while True:
            try:
                if self.http.call("GET", "/healthz")[0] == 200:
                    return
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("service never answered /healthz")
            time.sleep(0.01)

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        match = re.search(r"VmHWM:\s+(\d+) kB", status)
        return int(match.group(1)) / 1024.0 if match else float("nan")

    def cpu_s(self) -> float:
        """User plus system CPU seconds the service has used so far."""
        stat = Path(f"/proc/{self.process.pid}/stat").read_text()
        fields = stat.rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def close(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()


def wait_jobs(http: Http, ids: List[str], timeout: float,
              poll_s: float = 0.05) -> Dict[str, Dict[str, Any]]:
    """Poll ``/jobs`` until every id is terminal or ``timeout`` passes."""
    wanted = set(ids)
    deadline = time.monotonic() + timeout
    while True:
        status, payload = http.call("GET", "/jobs")
        jobs = {job["id"]: job for job in payload["jobs"]
                if job["id"] in wanted} if status == 200 else {}
        if all(jobs.get(i, {}).get("state") in ("done", "failed")
               for i in ids) or time.monotonic() > deadline:
            return jobs
        time.sleep(poll_s)


def start_service(env: Dict[str, str], cache_dir: Path,
                  trace_files: Optional[Tuple[Path, Path]] = None
                  ) -> Tuple[Service, float]:
    """Launch, wait for health and warm-ups; returns the set-up time."""
    service = Service(env, cache_dir, trace_files)
    try:
        service.healthy()
        ids = []
        for experiment, params in WARMUPS:
            status, job = service.http.call(
                "POST", "/jobs", {"experiment": experiment, "params": params})
            if status != 202:
                raise RuntimeError(f"warm-up {experiment} refused: {job}")
            ids.append(job["id"])
        jobs = wait_jobs(service.http, ids, START_TIMEOUT_S, poll_s=0.01)
        if any(jobs.get(i, {}).get("state") != "done" for i in ids):
            raise RuntimeError("a warm-up job did not finish")
        setup = max(jobs[i]["finished"] for i in ids) - service.launched
    except BaseException:
        service.close()
        raise
    return service, setup


def drive(http: Http, requests: List[Request]) -> Tuple[List[Outcome],
                                                        List[float], float]:
    """Send the schedule open-loop; returns outcomes, send lags, t0."""
    t0 = time.time() + 0.1
    mono0 = time.monotonic_ns() + 100_000_000
    outcomes = [Outcome(r, t0 + r.due_s) for r in requests]
    lags = []
    for outcome in outcomes:
        delay = outcome.due_wall - time.time()
        if delay > 0:
            time.sleep(delay)
        outcome.sent_wall = time.time()
        lags.append(outcome.sent_wall - outcome.due_wall)
        try:
            status, job = http.call("POST", "/jobs", {
                "experiment": outcome.request.experiment,
                "params": outcome.request.params})
        except OSError as exc:
            outcome.error = f"send failed: {exc}"
            continue
        if status != 202:
            outcome.error = f"HTTP {status}: {job}"
            continue
        outcome.job_id = job["id"]
    ids = [o.job_id for o in outcomes if o.job_id is not None]
    jobs = wait_jobs(http, ids, DRAIN_TIMEOUT_S, poll_s=0.2)
    for outcome in outcomes:
        job = jobs.get(outcome.job_id) if outcome.job_id else None
        if job is None:
            continue
        if job["state"] == "done":
            outcome.ok = True
            outcome.finished_wall = job["finished"]
        elif job["state"] == "failed":
            outcome.error = job.get("error") or "failed"
        else:
            outcome.error = f"unfinished ({job['state']})"
    return outcomes, lags, mono0


def check_sample(http: Http, outcomes: List[Outcome], seed: int
                 ) -> List[str]:
    """Compare a seeded sample of artifacts with the naive path."""
    from repro.service import run_job_naive
    from repro.service.adapters import jsonable

    rng = random.Random(seed ^ 0x5EED)
    by_kind: Dict[str, List[Outcome]] = {}
    for outcome in outcomes:
        if outcome.ok:
            by_kind.setdefault(outcome.request.experiment, []).append(outcome)
    mismatches = []
    for kind in sorted(by_kind):
        for outcome in rng.sample(by_kind[kind],
                                  min(CHECKS_PER_KIND, len(by_kind[kind]))):
            status, envelope = http.call(
                "GET", f"/jobs/{outcome.job_id}/result")
            served = json.dumps(envelope.get("result"), sort_keys=True) \
                if status == 200 else None
            naive = json.dumps(jsonable(run_job_naive(
                outcome.request.experiment, outcome.request.params)),
                sort_keys=True)
            if served != naive:
                mismatches.append(f"{kind} request {outcome.request.index}")
    return mismatches


def _union_ns(intervals: List[Tuple[int, int]]) -> int:
    total, end = 0, None
    for start, stop in sorted(intervals):
        if end is None or start > end:
            total += stop - start
            end = stop
        elif stop > end:
            total += stop - end
            end = stop
    return total


def dispatch_busy_frac(spans_path: Path, mono0: int, wall: float) -> float:
    """Share of the load window with at least one dispatch running."""
    intervals = []
    with spans_path.open() as handle:
        for line in handle:
            span = json.loads(line)
            if span["name"].startswith("service.dispatch.") \
                    and span["end_ns"] > mono0:
                intervals.append((max(span["start_ns"], mono0),
                                  span["end_ns"]))
    return _union_ns(intervals) / 1e9 / wall if wall > 0 else 0.0


def run_load(env: Dict[str, str], workdir: Path, seed: int, seconds: float,
             trace: bool, check: bool) -> Dict[str, Any]:
    """One service launch plus one pass over the schedule."""
    cache_dir = workdir / f"cache-{'traced' if trace else 'plain'}"
    cache_dir.mkdir()
    trace_files = (workdir / "trace.json", workdir / "spans.jsonl") \
        if trace else None
    service, setup = start_service(env, cache_dir, trace_files)
    try:
        before = service.http.call("GET", "/stats")[1]
        cpu_before = service.cpu_s()
        requests = loadgen.build_requests(seed, seconds)
        outcomes, lags, mono0 = drive(service.http, requests)
        cpu = service.cpu_s() - cpu_before
        after = service.http.call("GET", "/stats")[1]
        rss = service.peak_rss_mb()
        mismatches = check_sample(service.http, outcomes, seed) \
            if check else []
    finally:
        service.close()
    finished = [o.finished_wall for o in outcomes if o.ok]
    first_due = min(o.due_wall for o in outcomes)
    result: Dict[str, Any] = {
        "setup_s": setup,
        "wall_s": (max(finished) - first_due) if finished else float("nan"),
        "peak_rss_mb": rss,
        "submitted": len(outcomes),
        "failed": sum(1 for o in outcomes if not o.ok),
        "errors": sorted({o.error for o in outcomes if o.error})[:5],
        "mismatches": mismatches,
        "phases": {phase: loadgen.phase_stats(outcomes, phase)
                   for phase, _, _ in loadgen.PHASES},
        "cpu_s": cpu,
        "gen_lag_tail_s": loadgen.tail_percentile(lags)[0],
        "stats_before": before,
        "stats_after": after,
    }
    if trace:
        assert trace_files is not None
        result["trace"] = json.loads(trace_files[0].read_text())
        result["dispatch_busy_frac"] = dispatch_busy_frac(
            trace_files[1], mono0, result["wall_s"])
    return result


def service_layer_metrics(run: Dict[str, Any]) -> Dict[str, float]:
    """The service-only per-layer metrics of one traced run."""
    before, after = run["stats_before"], run["stats_after"]
    items = after["items"] - before["items"]
    metrics = {
        "service.dispatch_busy_frac": run["dispatch_busy_frac"],
        "service.item_cache_hit_ratio": layers.ratio(
            after["item_cache_hits"] - before["item_cache_hits"], items),
        "service.item_coalesced_ratio": layers.ratio(
            after["item_coalesced"] - before["item_coalesced"], items),
        "service.largest_group": float(after["largest_group"]),
        "harness.gen_lag_tail_s": run["gen_lag_tail_s"],
    }
    trace = run["trace"]
    busy = {kind: trace.get(f"service.dispatch.{kind}", {}).get("total_s",
                                                                0.0)
            for kind in layers.DISPATCH_KINDS}
    total = sum(busy.values())
    for kind, seconds in busy.items():
        metrics[f"service.dispatch.{kind}_share"] = layers.ratio(seconds,
                                                                  total)
    return metrics
