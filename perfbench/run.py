"""The repository's end-to-end benchmark.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload suite-cold --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --record-golden

Workloads (``BENCHMARK.json`` says why each was chosen; ``workloads.json``
records env, rates, mix and which layers each one exercises):

* ``suite-cold``: ``hiperrf-experiments all`` in a fresh process on an
  empty ``REPRO_CACHE_DIR``;
* ``suite-warm``: the same on a copy of a cache filled by one untimed
  ``suite-cold`` run of the same source tree;
* ``service-open``: ``python -m repro.service`` driven by a seeded
  open-loop generator (``open_loop.py``, ``loadgen.py``).

With ``--trace 0`` the last stdout line is a JSON object with every
end-to-end metric; with ``--trace 1`` it has every per-layer metric,
measured by wrapping each layer's entry points (``layers.py``) in a
separate traced pass, plus ``trace_overhead_frac`` against an untraced
pass of the same inputs.

Every run clears ambient ``REPRO_*`` variables, sets only the ones its
workload defines and works in a fresh temporary directory under
``.bench_build/`` in the checkout.  Correctness gates: each
experiment's rendered output must match the digest recorded in
``golden.json`` (the Monte Carlo wall-clock ``throughput:`` line
masked), and a seeded sample of service artifacts must equal
``repro.service.run_job_naive`` bitwise.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402

ROOT = Path.cwd()
STATE = ROOT / ".bench_build" / "perfbench"
GOLDEN = HERE / "golden.json"

WORKLOADS = ("suite-cold", "suite-warm", "service-open")
#: Set-up-only launches per run, on top of the one each measured
#: repeat contributes; set-up time is their median.
SUITE_SETUP_LAUNCHES = 2
SERVICE_SETUP_LAUNCHES = 2
CHILD_TIMEOUT_S = 170

#: Per-workload record: env, rates, mix and the interaction list.
WORKLOADS_SPEC = json.loads((HERE / "workloads.json").read_text())


def exercised(workload: str) -> List[str]:
    """Spans the interaction list says ``workload`` must call."""
    return [span for entry in WORKLOADS_SPEC["interactions"]
            if workload in entry["exercised_by"] for span in entry["spans"]]


class BenchError(RuntimeError):
    pass


# -- environment -------------------------------------------------------------


def base_env() -> Dict[str, str]:
    """Ambient environment minus every ``REPRO_*`` variable."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    paths = [str(ROOT / "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def suite_env(cache_dir: Path) -> Dict[str, str]:
    env = base_env()
    env["REPRO_SWEEP_WORKERS"] = "1"
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    return env


def source_digest() -> str:
    """Content hash of the program's source tree (keys the warm fill)."""
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(src)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:24]


# -- suite workloads ---------------------------------------------------------


def run_suite_child(env: Dict[str, str], workdir: Path, tag: str,
                    trace: bool = False,
                    setup_only: bool = False) -> Dict[str, Any]:
    """One fresh process; adds ``setup_s`` (launch to runner imported)."""
    out = workdir / f"{tag}.json"
    command = [sys.executable, str(HERE / "suite_child.py"),
               "--out", str(out), "--trace", str(int(trace))]
    if trace:
        command += ["--spans", str(STATE / "last-suite-spans.jsonl")]
    if setup_only:
        command.append("--setup-only")
    launched = time.monotonic()
    proc = subprocess.run(command, env=env, cwd=ROOT,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT_S)
    exited = time.monotonic()
    if proc.returncode != 0:
        raise BenchError(f"suite child failed ({proc.returncode}): "
                         f"{proc.stderr[-2000:]}")
    result = json.loads(out.read_text())
    result["setup_s"] = result["ready"] - launched
    result["launch_to_exit_s"] = exited - launched
    return result


def load_golden() -> Dict[str, str]:
    if not GOLDEN.is_file():
        raise BenchError(f"{GOLDEN} is missing; run --record-golden")
    return json.loads(GOLDEN.read_text())["digests"]


def bad_experiments(result: Dict[str, Any],
                    golden: Dict[str, str]) -> List[str]:
    """Experiments that raised or whose output differs from golden."""
    return sorted(name for name in layers.EXPERIMENT_NAMES
                  if name in result["failures"]
                  or result["digests"].get(name) != golden.get(name))


def warm_fill(workdir: Path, golden: Dict[str, str]) -> Path:
    """A cache filled by one untimed cold run of this source tree.

    Kept under ``.bench_build`` keyed by the source digest, so later
    runs of the same tree copy it instead of filling again.
    """
    fill = STATE / "warm-fill" / source_digest()
    if fill.is_dir():
        return fill
    cache = workdir / "fill-cache"
    cache.mkdir()
    result = run_suite_child(suite_env(cache), workdir, "fill")
    bad = bad_experiments(result, golden)
    if bad:
        raise BenchError(f"warm fill run failed on {', '.join(bad)}")
    fill.parent.mkdir(parents=True, exist_ok=True)
    for stale in fill.parent.iterdir():
        shutil.rmtree(stale, ignore_errors=True)
    cache.rename(fill)
    return fill


def suite_repeat(workdir: Path, index: int, fill: Optional[Path],
                 trace: bool) -> Dict[str, Any]:
    cache = workdir / f"cache-{index}"
    if fill is not None:
        shutil.copytree(fill, cache)
    else:
        cache.mkdir()
    try:
        return run_suite_child(suite_env(cache), workdir, f"run-{index}",
                               trace=trace)
    finally:
        shutil.rmtree(cache, ignore_errors=True)


def run_suite(workload: str, seconds: float, trace: bool,
              workdir: Path) -> Dict[str, Any]:
    golden = load_golden()
    fill = warm_fill(workdir, golden) if workload == "suite-warm" else None
    repeats: List[Dict[str, Any]] = []
    if trace:
        # Untraced repeats bracket the traced one, so drift in machine
        # speed during the run does not pass for tracing overhead.
        for index, traced in enumerate((False, True, False)):
            repeats.append(suite_repeat(workdir, index, fill, traced))
    else:
        # Start another repeat only while it is expected to end in time.
        started = time.monotonic()
        took: List[float] = []
        while not took or (time.monotonic() - started
                           + statistics.median(took) <= seconds):
            begun = time.monotonic()
            repeats.append(suite_repeat(workdir, len(repeats), fill, False))
            took.append(time.monotonic() - begun)
    failed = sum(len(bad_experiments(r, golden)) for r in repeats)
    attempted = len(layers.EXPERIMENT_NAMES) * len(repeats)
    correct = failed == 0 and all(r["exit_code"] == 0 for r in repeats)
    if trace:
        before, traced, after = repeats
        metrics = layers.layer_metrics(traced["trace"])
        metrics.update({name: 0.0 for name in layers.SERVICE_ONLY})
        plain_wall = (before["wall_s"] + after["wall_s"]) / 2
        metrics["trace_overhead_frac"] = traced["wall_s"] / plain_wall - 1
        missing = coverage_gaps(workload, traced["trace"])
        if missing:
            print(f"no calls recorded for: {', '.join(missing)}",
                  file=sys.stderr)
            correct = False
    else:
        setups = [run_suite_child(base_env(), workdir, f"setup-{i}",
                                  setup_only=True)["setup_s"]
                  for i in range(SUITE_SETUP_LAUNCHES)]
        setups += [r["setup_s"] for r in repeats]
        metrics = {
            "wall_s": statistics.median(r["wall_s"] for r in repeats),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"]
                                             for r in repeats),
            "ok_frac": 1.0 - failed / attempted,
            # A suite job is one command, from launch to exit.
            "p50_s": statistics.median(r["launch_to_exit_s"]
                                       for r in repeats),
        }
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def coverage_gaps(workload: str, summary: Dict[str, Dict[str, float]]
                  ) -> List[str]:
    return [name for name in exercised(workload)
            if summary.get(name, {}).get("calls", 0) == 0]


# -- service workload --------------------------------------------------------


def run_service(seed: int, seconds: float, trace: bool,
                workdir: Path) -> Dict[str, Any]:
    import open_loop

    env = base_env()
    plain = open_loop.run_load(env, workdir, seed, seconds, trace=False,
                               check=True)
    runs = [plain]
    if trace:
        runs.append(open_loop.run_load(env, workdir, seed, seconds,
                                       trace=True, check=True))
    attempted = sum(r["submitted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    correct = all(not r["mismatches"] for r in runs)
    for r in runs:
        for problem in r["mismatches"] + r["errors"]:
            print(f"service: {problem}", file=sys.stderr)
    heavy, light = plain["phases"]["heavy"], plain["phases"]["light"]
    if trace:
        traced = runs[1]
        metrics = layers.layer_metrics(traced["trace"])
        metrics.update({f"experiments.{name}_s": 0.0
                        for name in layers.EXPERIMENT_NAMES})
        metrics.update(open_loop.service_layer_metrics(traced))
        metrics.update({
            "harness.light_p50_s": light["p50_s"],
            "harness.light_tail_s": light["tail_s"],
            "harness.heavy_p50_s": heavy["p50_s"],
            "harness.heavy_tail_s": heavy["tail_s"],
            "harness.heavy_slo_frac": heavy["slo_frac"],
            "harness.heavy_jobs_per_s": heavy["jobs_per_s"],
        })
        # Same schedule twice; CPU time is far steadier than latency.
        metrics["trace_overhead_frac"] = traced["cpu_s"] / plain["cpu_s"] - 1
        missing = coverage_gaps("service-open", traced["trace"])
        if missing:
            print(f"no calls recorded for: {', '.join(missing)}",
                  file=sys.stderr)
            correct = False
    else:
        setups = [plain["setup_s"]]
        for i in range(SERVICE_SETUP_LAUNCHES):
            cache = workdir / f"setup-cache-{i}"
            cache.mkdir()
            service, setup = open_loop.start_service(env, cache)
            service.close()
            setups.append(setup)
        metrics = {
            "wall_s": plain["wall_s"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": plain["peak_rss_mb"],
            "ok_frac": 1.0 - plain["failed"] / plain["submitted"],
            "p50_s": heavy["p50_s"],
        }
    print(json.dumps({"phases": plain["phases"]}), file=sys.stderr)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


# -- entry point -------------------------------------------------------------


def metric_units() -> Dict[str, Dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {section: {m["name"]: m["unit"] for m in spec[section]}
            for section in ("end_to_end", "per_layer")}


def record_golden(workdir: Path) -> None:
    cache = workdir / "golden-cache"
    cache.mkdir()
    result = run_suite_child(suite_env(cache), workdir, "golden")
    if result["failures"]:
        raise BenchError(f"experiments raised: {sorted(result['failures'])}")
    GOLDEN.write_text(json.dumps({"digests": result["digests"]}, indent=2,
                                 sort_keys=True) + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true",
                        help="re-record golden.json from a cold run")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no src/repro under {ROOT}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    if not args.record_golden and args.workload is None:
        parser.error("--workload is required")
    # Hermetic: children get base_env(); the harness itself imports the
    # program only for the naive service comparison, under the same rules.
    for name in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[name]
    sys.path.insert(1, str(ROOT / "src"))
    (STATE / "tmp").mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=STATE / "tmp"))
    try:
        if args.record_golden:
            record_golden(workdir)
            return 0
        units = metric_units()["per_layer" if args.trace
                                else "end_to_end"]
        if args.workload == "service-open":
            result = run_service(args.seed, args.seconds, bool(args.trace),
                                 workdir)
        else:
            result = run_suite(args.workload, args.seconds, bool(args.trace),
                               workdir)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    values = result["metrics"]
    if not all(math.isfinite(v) for v in values.values()):
        print(f"perfbench: unmeasured metrics: {values}", file=sys.stderr)
        return 1
    if set(values) != set(units):
        print(f"perfbench: metric set differs from BENCHMARK.json: "
              f"{sorted(set(values) ^ set(units))}", file=sys.stderr)
        return 1
    result["metrics"] = {name: {"value": values[name], "unit": units[name]}
                         for name in units}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
