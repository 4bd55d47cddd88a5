"""One fresh-process run of ``hiperrf-experiments all``.

Usage (the harness in ``run.py`` launches this; the environment carries
``PYTHONPATH``, ``REPRO_CACHE_DIR`` and ``REPRO_SWEEP_WORKERS``)::

    python perfbench/suite_child.py --out result.json [--trace 1]
    python perfbench/suite_child.py --out result.json --setup-only

The runner import is the first thing the process does, so the time from
launch to ``ready`` is interpreter start plus the runner's import.  The
child then runs ``repro.experiments.runner.main(["all"])`` with stdout
captured, and records per experiment the digest of its rendered output
(the Monte Carlo wall-clock ``throughput:`` line masked), whether it
raised, and how long it took.
"""

import time

import repro.experiments.runner as runner

READY = time.monotonic()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

#: The one wall-clock line in rendered output (Monte Carlo report).
MASKED_PREFIX = "throughput:"


def masked_digest(text: str) -> str:
    lines = [("throughput: <masked>" if line.startswith(MASKED_PREFIX)
              else line) for line in text.split("\n")]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    if args.setup_only:
        with open(args.out, "w") as handle:
            json.dump({"ready": READY}, handle)
        return 0

    tracer = None
    if args.trace:
        import layers
        from tracer import Tracer

        tracer = Tracer()
        layers.install(tracer)

    digests, failures, durations = {}, {}, {}

    def capture(name, fn):
        def run(**kwargs):
            frame = tracer.begin(f"experiments.{name}") if tracer else None
            start = time.perf_counter()
            try:
                text = fn(**kwargs)
            except Exception:
                failures[name] = traceback.format_exc(limit=3)
                text = ""
            finally:
                durations[name] = time.perf_counter() - start
                if frame is not None:
                    tracer.end(frame)
            digests[name] = masked_digest(text)
            return text
        return run

    for name, fn in list(runner.EXPERIMENTS.items()):
        runner.EXPERIMENTS[name] = capture(name, fn)

    sink = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink):
        code = runner.main(["all"])
    wall = time.perf_counter() - start
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {
        "ready": READY,
        "wall_s": wall,
        "peak_rss_mb": peak_kb / 1024.0,
        "exit_code": code,
        "digests": digests,
        "failures": failures,
        "durations": durations,
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        if args.spans:
            tracer.dump(args.spans)
    with open(args.out, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
