"""Seeded open-loop request schedule and latency statistics.

Pure Python with no project imports, so the self-tests can check it
without starting a service.

The schedule has two fixed-rate phases, ``light`` then ``heavy``.  Each
phase is a Poisson process conditioned on its arrival count: the count
is ``rate * duration`` and the arrival times are uniform order
statistics over the phase.  The job mix is stratified the same way:
each kind gets ``round(weight * count)`` requests, shuffled by the
seed.  Conditioning removes seed-to-seed swings in how much work a run
offers, which would otherwise dominate the spread of tail latency.

A seeded share of requests is not fresh:

* ``repeat``: an exact copy of an earlier request's experiment and
  params (a result-cache hit, or coalesced if still in flight);
* ``share``: a margins grid sent a few milliseconds after an earlier
  margins grid, inside the service's micro-batch window, with one
  operating point in common (item-level coalescing with a stranger).
"""

from __future__ import annotations

import math
import random
import statistics
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: (name, arrivals per second, share of the run's measuring seconds).
#: Capacity of the mix below is about 6 jobs/s on a 2-core x86 host;
#: light runs at about 40% of it and heavy at about 80%.
PHASES: Tuple[Tuple[str, float, float], ...] = (
    ("light", 2.4, 0.4),
    ("heavy", 4.8, 0.6),
)

#: Request kinds and their share of requests.  Chosen so that each
#: dispatch kind (hcdro, cpu, pulse, call) takes at least about 15% of
#: service dispatch time in the traced run.
MIX: Tuple[Tuple[str, float], ...] = (
    ("margins", 0.12),
    ("figure14", 0.44),
    ("pulse_rf", 0.30),
    ("figure15", 0.08),
    ("banking", 0.06),
)

REPEAT_SHARE = 0.12
SHARE_SHARE = 0.25        # of margins requests
SHARE_OFFSET_S = 0.005    # well inside the 25 ms micro-batch window

#: A job finishing later than this after its due time misses the SLO.
SLO_S = 2.0

#: Tail percentiles keep at least this many samples beyond them.
TAIL_MIN_BEYOND = 10

_FIGURE14_WORKLOADS = ("vvadd", "median", "multiply", "qsort", "rsort",
                       "towers", "spmv", "dhrystone", "mcf", "sjeng",
                       "libquantum")
_OVERHEAD_DESIGNS = ("hiperrf", "dual_bank_hiperrf",
                     "dual_bank_hiperrf_ideal")
#: Pulse geometries (registers, width): jobs on one geometry share a
#: compiled netlist and coalesce into one lane batch.
PULSE_GEOMETRIES = ((16, 16), (32, 16))
#: Cheap HC-DRO transient: one topology group per grid.
MARGIN_BASE: Dict[str, Any] = {"write_counts": [2], "reads": 1,
                               "settle_ps": 5.0, "pulse_spacing_ps": 10.0}


@dataclass
class Request:
    index: int
    phase: str
    due_s: float
    experiment: str
    params: Dict[str, Any]
    origin: str = "fresh"   # fresh | repeat | share
    source: Optional[int] = None


def _margins(rng: random.Random) -> Dict[str, Any]:
    scales = sorted(round(rng.uniform(0.90, 1.10), 3) for _ in range(2))
    return dict(MARGIN_BASE, scales=scales)


def _figure14(rng: random.Random) -> Dict[str, Any]:
    designs = ["ndro_rf"] + rng.sample(_OVERHEAD_DESIGNS, rng.randint(1, 2))
    return {"workloads": [rng.choice(_FIGURE14_WORKLOADS)],
            "designs": designs, "scale": round(rng.uniform(0.5, 1.0), 2)}


def _pulse_rf(rng: random.Random) -> Dict[str, Any]:
    registers, width = rng.choice(PULSE_GEOMETRIES)
    pattern = [[rng.randrange(registers), rng.randrange(1 << width)]
               for _ in range(6)]
    return {"registers": registers, "width": width, "pattern": pattern}


def _figure15(rng: random.Random) -> Dict[str, Any]:
    return {"cell_pitch_um": round(rng.uniform(60.0, 90.0), 1)}


def _banking(rng: random.Random) -> Dict[str, Any]:
    return {"scale": round(rng.uniform(0.10, 0.15), 3),
            "max_instructions": 100_000}


PARAMS = {"margins": _margins, "figure14": _figure14,
          "pulse_rf": _pulse_rf, "figure15": _figure15,
          "banking": _banking}


def _stratified(rng: random.Random, count: int,
                weights: Sequence[Tuple[str, float]]) -> List[str]:
    """Exactly ``round(weight * count)`` of each name, shuffled."""
    names: List[str] = []
    for name, weight in weights:
        names.extend([name] * int(round(weight * count)))
    heaviest = max(weights, key=lambda entry: entry[1])[0]
    names = (names + [heaviest] * count)[:count]
    rng.shuffle(names)
    return names


def build_requests(seed: int, seconds: float) -> List[Request]:
    """The run's whole schedule, a pure function of ``seed``."""
    rng = random.Random(seed)
    requests: List[Request] = []
    start = 0.0
    for phase, rate, share in PHASES:
        duration = share * seconds
        count = max(1, int(round(rate * duration)))
        times = sorted(start + rng.uniform(0.0, duration)
                       for _ in range(count))
        for due, kind in zip(times, _stratified(rng, count, MIX)):
            requests.append(Request(len(requests), phase, due, kind,
                                    PARAMS[kind](rng)))
        start += duration
    margins = [r for r in requests if r.experiment == "margins"]
    shares = set(rng.sample(range(1, len(margins)),
                            int(round(SHARE_SHARE * (len(margins) - 1))))) \
        if len(margins) > 1 else set()
    for position in sorted(shares):
        request, source = margins[position], margins[position - 1]
        if source.origin == "share" or source.phase != request.phase:
            continue   # share with a fresh grid of the same phase only
        shared = rng.choice(source.params["scales"])
        scales = sorted({shared, round(rng.uniform(0.90, 1.10), 3)})
        request.params = dict(MARGIN_BASE, scales=scales)
        request.due_s = source.due_s + SHARE_OFFSET_S
        request.origin, request.source = "share", source.index
    # Repeats copy an earlier request of the same kind as it was sent,
    # so the mix stays exactly stratified; their number is fixed too.
    origins = _stratified(rng, len(requests) - 1, (
        ("repeat", REPEAT_SHARE), ("fresh", 1.0 - REPEAT_SHARE)))
    for request, origin in zip(requests[1:], origins):
        earlier = [r for r in requests[:request.index]
                   if r.experiment == request.experiment
                   and r.origin != "repeat"]
        if origin == "repeat" and request.origin == "fresh" and earlier:
            source = rng.choice(earlier)
            request.params = source.params
            request.origin, request.source = "repeat", source.index
    requests.sort(key=lambda r: (r.due_s, r.index))
    return requests


# -- statistics ------------------------------------------------------------


def tail_percentile(values: Sequence[float],
                    min_beyond: int = TAIL_MIN_BEYOND
                    ) -> Tuple[float, float, int]:
    """Highest percentile keeping ``min_beyond`` samples above it.

    Returns ``(value, percentile, samples)``.  The value is the sample
    at rank ``n - min_beyond`` (1-based), so exactly ``min_beyond``
    samples lie beyond it; with too few samples it is the median.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return math.nan, math.nan, 0
    rank = n - min_beyond
    if rank < (n + 1) // 2:
        rank = (n + 1) // 2
    return ordered[rank - 1], 100.0 * rank / n, n


@dataclass
class Outcome:
    """What became of one request: due time and server-side finish."""

    request: Request
    due_wall: float
    sent_wall: Optional[float] = None
    finished_wall: Optional[float] = None
    ok: bool = False
    error: Optional[str] = None
    job_id: Optional[str] = None

    @property
    def latency_s(self) -> Optional[float]:
        """From when the request was due, not when it was sent."""
        if not self.ok or self.finished_wall is None:
            return None
        return self.finished_wall - self.due_wall


def phase_stats(outcomes: Sequence[Outcome], phase: str) -> Dict[str, Any]:
    """Latency median/tail, SLO share and throughput of one phase.

    Failed, refused and unfinished jobs have no latency: they are left
    out of the percentiles and count as SLO misses.
    """
    mine = [o for o in outcomes if o.request.phase == phase]
    latencies = [o.latency_s for o in mine if o.latency_s is not None]
    tail, pct, samples = tail_percentile(latencies)
    within = sum(1 for lat in latencies if lat <= SLO_S)
    finished = [o.finished_wall for o in mine
                if o.ok and o.finished_wall is not None]
    span = (max(finished) - min(o.due_wall for o in mine)) \
        if finished else math.nan
    return {
        "submitted": len(mine),
        "done": len(latencies),
        "failed": len(mine) - len(latencies),
        "p50_s": statistics.median(latencies) if latencies else math.nan,
        "tail_s": tail,
        "tail_percentile": pct,
        "tail_samples": samples,
        "slo_frac": within / len(mine) if mine else math.nan,
        "jobs_per_s": len(finished) / span if finished and span > 0
        else math.nan,
    }
