"""Layer boundaries the traced run wraps, and the per-layer metrics.

Each entry names one public function or method of a layer.  The span
name is the metric prefix: ``cpu.compiled.replay_tape`` yields
``cpu.compiled.replay_tape_s`` and ``cpu.compiled.replay_tape_calls``.
A counter turns a call's arguments or result into a work count (lanes,
ops, cache hits) summed over the run.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from tracer import Tracer, wrap_function, wrap_method


def _lanes_arg(index: int):
    def count(args: tuple, kwargs: dict, result: Any) -> float:
        return float(len(args[index]))
    return count


def _hit(args: tuple, kwargs: dict, result: Any) -> float:
    return 0.0 if result is None else 1.0


def _tape_ops(args: tuple, kwargs: dict, result: Any) -> Optional[float]:
    return None if result is None else float(result.instructions)


def _solver_lanes(args: tuple, kwargs: dict, result: Any) -> float:
    return float(len(args[0].circuits))


def _montecarlo_lanes(args: tuple, kwargs: dict, result: Any) -> float:
    return float(args[0].lanes)


#: (kind, module, attribute, span name, counter).  ``generator`` spans
#: time only the generator's own steps (see ``tracer``).
WRAPS = [
    ("method", "repro.isa.executor", "Executor.run",
     "isa.executor.run", None),
    ("generator", "repro.isa.executor", "Executor.trace",
     "isa.executor.run", None),
    ("function", "repro.cpu.optape", "tape_for_program",
     "cpu.optape.tape_for_program", _tape_ops),
    ("method", "repro.cpu.optape", "TraceCache.get",
     "cpu.optape.trace_cache_get", _hit),
    ("function", "repro.cpu.compiled", "replay_tape",
     "cpu.compiled.replay_tape", None),
    ("function", "repro.cpu.compiled", "design_tables",
     "cpu.compiled.design_tables", None),
    ("function", "repro.cpu.batched", "replay_lanes",
     "cpu.batched.replay_lanes", _lanes_arg(1)),
    ("method", "repro.josim.solver", "TransientSolver.run",
     "josim.solver.scalar_run", None),
    ("method", "repro.josim.solver", "BatchedTransientSolver.run_reduced",
     "josim.solver.batched_run", _solver_lanes),
    ("function", "repro.josim.sweep", "run_configs",
     "josim.sweep.run_configs", None),
    ("function", "repro.josim.montecarlo", "run_lanes",
     "josim.montecarlo.run_lanes", _montecarlo_lanes),
    ("method", "repro.pulse.engine", "Engine.compile",
     "pulse.engine.compile", None),
    ("method", "repro.pulse.engine", "Engine.run",
     "pulse.engine.run", None),
    ("function", "repro.pulse.batched", "run_lanes",
     "pulse.batched.run_lanes", _lanes_arg(1)),
    ("method", "repro.experiments.parallel", "ResultCache.get",
     "parallel.result_cache.get", _hit),
    ("method", "repro.experiments.parallel", "ResultCache.put",
     "parallel.result_cache.put", None),
]

DISPATCH_KINDS = ("hcdro", "cpu", "pulse", "call")

EXPERIMENT_NAMES = (
    "table1", "table2", "table3", "table4", "fullchip", "figure14",
    "figure15", "timing", "josim", "scaling", "wire_cpi", "alternatives",
    "ablations", "margins", "montecarlo", "synthesis", "memory", "energy",
    "banking", "skew", "faults", "scheduling", "profiles")


def install(tracer: Tracer, service: bool = False) -> None:
    """Wrap every layer boundary; ``service`` adds the dispatchers."""
    for kind, module, attr, name, counter in WRAPS:
        if kind == "function":
            wrap_function(tracer, module, attr, name, counter)
        else:
            wrap_method(tracer, module, attr, name, counter,
                        generator=kind == "generator")
    if service:
        from repro.service import adapters

        # dispatch_group looks its dispatcher up in this table per call.
        for kind in DISPATCH_KINDS:
            original = adapters.DISPATCHERS[kind]
            adapters.DISPATCHERS[kind] = _dispatch_wrapper(
                tracer, original, f"service.dispatch.{kind}")


def _dispatch_wrapper(tracer: Tracer, fn: Any, name: str) -> Any:
    def wrapper(payloads: Any) -> Any:
        frame = tracer.begin(name)
        try:
            return fn(payloads)
        finally:
            tracer.end(frame, float(len(payloads)))
    return wrapper


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(summary: Dict[str, Dict[str, float]]
                  ) -> Dict[str, float]:
    """Per-layer metric values from a tracer summary (0 when unused)."""
    def get(name: str, field: str) -> float:
        return float(summary.get(name, {}).get(field, 0.0))

    metrics: Dict[str, float] = {}
    for name in EXPERIMENT_NAMES:
        metrics[f"experiments.{name}_s"] = get(f"experiments.{name}",
                                               "total_s")
    for name in ("isa.executor.run", "cpu.compiled.replay_tape",
                 "cpu.compiled.design_tables", "josim.solver.scalar_run",
                 "pulse.engine.compile", "pulse.engine.run"):
        metrics[f"{name}_s"] = get(name, "total_s")
        metrics[f"{name}_calls"] = get(name, "calls")
    tape = "cpu.optape.tape_for_program"
    metrics[f"{tape}_self_s"] = get(tape, "self_s")
    metrics[f"{tape}_calls"] = get(tape, "calls")
    metrics["cpu.optape.trace_cache_hit_ratio"] = ratio(
        get("cpu.optape.trace_cache_get", "count"),
        get("cpu.optape.trace_cache_get", "calls"))
    metrics["cpu.optape.tape_ops"] = get(tape, "count")
    for name in ("cpu.batched.replay_lanes", "pulse.batched.run_lanes"):
        metrics[f"{name}_s"] = get(name, "total_s")
        metrics[f"{name}_calls"] = get(name, "calls")
        metrics[name.rsplit(".", 1)[0] + ".lanes_per_call"] = ratio(
            get(name, "count"), get(name, "calls"))
    batched = "josim.solver.batched_run"
    metrics[f"{batched}_s"] = get(batched, "total_s")
    metrics[f"{batched}_calls"] = get(batched, "calls")
    metrics["josim.solver.batched_lanes"] = get(batched, "count")
    metrics["josim.sweep.run_configs_s"] = get("josim.sweep.run_configs",
                                               "total_s")
    montecarlo = "josim.montecarlo.run_lanes"
    metrics[f"{montecarlo}_s"] = get(montecarlo, "total_s")
    metrics["josim.montecarlo.lanes_per_s"] = ratio(
        get(montecarlo, "count"), get(montecarlo, "total_s"))
    cache = "parallel.result_cache"
    metrics[f"{cache}.get_s"] = get(f"{cache}.get", "total_s")
    metrics[f"{cache}.hit_ratio"] = ratio(get(f"{cache}.get", "count"),
                                           get(f"{cache}.get", "calls"))
    metrics[f"{cache}.put_s"] = get(f"{cache}.put", "total_s")
    metrics[f"{cache}.put_calls"] = get(f"{cache}.put", "calls")
    for kind in DISPATCH_KINDS:
        name = f"service.dispatch.{kind}"
        metrics[f"{name}_s"] = get(name, "total_s")
        metrics[f"{name}_calls"] = get(name, "calls")
        metrics[f"{name}_items_per_call"] = ratio(get(name, "count"),
                                                   get(name, "calls"))
    return metrics


def per_layer_names() -> List[str]:
    """Every per-layer metric the benchmark reports, in order."""
    return list(layer_metrics({})) + SERVICE_ONLY + ["trace_overhead_frac"]


#: Per-layer metrics the service harness adds beyond ``layer_metrics``.
SERVICE_ONLY = [
    "service.dispatch_busy_frac",
    "service.item_cache_hit_ratio",
    "service.item_coalesced_ratio",
    "service.largest_group",
    "harness.gen_lag_tail_s",
    # Phase breakdown of the untraced pass of the same schedule.
    "harness.light_p50_s",
    "harness.light_tail_s",
    "harness.heavy_p50_s",
    "harness.heavy_tail_s",
    "harness.heavy_slo_frac",
    "harness.heavy_jobs_per_s",
] + [f"service.dispatch.{kind}_share" for kind in DISPATCH_KINDS]
