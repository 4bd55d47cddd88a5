"""Decomposition, dispatch grouping, and the naive comparator."""

from __future__ import annotations

import json
import math
import random
from collections.abc import Sized

import pytest

from repro.service.adapters import (
    _LaneMetrics,
    CPU_LANE_METRICS,
    PULSE_LANE_METRICS,
    SUPPORTED_EXPERIMENTS,
    compute_item,
    cpu_lane_stats,
    decompose,
    dispatch_group,
    jsonable,
    pulse_lane_stats,
    run_job_naive,
)

#: Cheap HC-DRO operating points: short settle/spacing keep a scalar
#: transient in the ~100 ms range instead of seconds.
CHEAP_MARGINS = {"scales": [0.95, 1.0], "write_counts": [0, 2], "reads": 2,
                 "settle_ps": 10.0, "pulse_spacing_ps": 15.0}


class TestRegistry:
    def test_supported_experiments(self):
        assert "figure14" in SUPPORTED_EXPERIMENTS
        assert "margins" in SUPPORTED_EXPERIMENTS
        assert SUPPORTED_EXPERIMENTS == tuple(sorted(SUPPORTED_EXPERIMENTS))

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            decompose("nope", {})


class TestJsonable:
    def test_dataclass_enum_and_tuple(self):
        import dataclasses
        import enum

        class Color(enum.Enum):
            RED = "red"

        @dataclasses.dataclass
        class Point:
            x: int
            tags: tuple

        out = jsonable({"p": Point(1, ("a",)), "c": Color.RED, 2.5: "k"})
        assert out == {"p": {"x": 1, "tags": ["a"]}, "c": "red", "2.5": "k"}
        json.dumps(out)  # wire-safe

    def test_numpy_scalars(self):
        import numpy as np

        assert jsonable(np.float64(1.5)) == 1.5
        assert jsonable([np.int64(3)]) == [3]


class TestMarginsAdapter:
    def test_items_group_by_topology(self):
        job = decompose("margins", CHEAP_MARGINS)
        assert len(job.items) == 4  # 2 scales x 2 write counts
        groups = {item.group for item in job.items}
        assert len(groups) == 2  # one per write count (reads/timestep equal)
        assert all(item.kind == "hcdro" for item in job.items)

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            decompose("margins", {"scales": []})

    def test_naive_equals_grouped_dispatch(self):
        job = decompose("margins", CHEAP_MARGINS)
        by_group = {}
        for item in job.items:
            by_group.setdefault(item.group, []).append(item)
        values = {}
        for group_items in by_group.values():
            outs = dispatch_group("hcdro", [i.payload for i in group_items])
            for item, out in zip(group_items, outs):
                values[item.digest()] = out
        batched = job.recompose([values[item.digest()]
                                 for item in job.items])
        naive = run_job_naive("margins", CHEAP_MARGINS)
        assert json.dumps(batched, sort_keys=True) == \
            json.dumps(naive, sort_keys=True)

    def test_large_group_runs_in_capped_batches(self, monkeypatch):
        """A coalesced group bigger than the sweep's lane cap runs as
        several capped batched transients, and each item still gets the
        value a solo scalar run gives."""
        import repro.josim.testbench as testbench
        from repro.josim import sweep

        monkeypatch.setattr(sweep, "BATCH_LANES", 2)
        sizes = []
        original = testbench.run_hcdro_batch

        def spy(configs, *args, **kwargs):
            sizes.append(len(configs))
            return original(configs, *args, **kwargs)

        monkeypatch.setattr(testbench, "run_hcdro_batch", spy)
        job = decompose("margins", dict(
            CHEAP_MARGINS, scales=[0.9, 0.95, 1.0, 1.05, 1.1],
            write_counts=[2]))
        assert len({item.group for item in job.items}) == 1
        values = dispatch_group("hcdro", [i.payload for i in job.items])
        assert sizes == [2, 2, 1]
        assert values == [compute_item(item) for item in job.items]


class TestFigure14Adapter:
    def test_key_matches_cli_cache_contract(self):
        """Service items must hit the same figure14-v1 entries the CLI
        sweep writes, so the two front-ends share warm caches."""
        from repro.cpu import CoreConfig
        from repro.experiments.parallel import stable_key

        job = decompose("figure14", {"scale": 0.3, "workloads": ["vvadd"],
                                     "designs": ["ndro_rf", "hiperrf"]})
        item = job.items[0]
        assert item.namespace == "figure14-v1"
        cli_key = ("vvadd", 0.3, ["ndro_rf", "hiperrf"], CoreConfig(),
                   400_000)
        assert stable_key(item.key) == stable_key(cli_key)

    def test_baseline_design_always_present(self):
        job = decompose("figure14", {"workloads": ["vvadd"],
                                     "designs": ["hiperrf"]})
        assert "ndro_rf" in job.items[0].payload[2]

    def test_unknown_design_rejected(self):
        with pytest.raises(ValueError, match="unknown design"):
            decompose("figure14", {"designs": ["warp_drive"]})

    def test_design_union_dispatch_matches_naive(self):
        """Two strangers' design sets replay one tape; each must get the
        exact rows a solo run would have produced."""
        a = decompose("figure14", {"scale": 0.3, "workloads": ["vvadd"],
                                   "designs": ["ndro_rf", "hiperrf"]})
        b = decompose("figure14", {"scale": 0.3, "workloads": ["vvadd"],
                                   "designs": ["ndro_rf",
                                               "dual_bank_hiperrf"]})
        merged = dispatch_group("cpu", [a.items[0].payload,
                                        b.items[0].payload])
        naive_a = run_job_naive("figure14",
                                {"scale": 0.3, "workloads": ["vvadd"],
                                 "designs": ["ndro_rf", "hiperrf"]})
        assert a.recompose([merged[0]]) == naive_a
        assert set(merged[1]["overhead_percent"]) == {"dual_bank_hiperrf"}

    def test_lane_batched_group_matches_solo(self):
        """A coalesced design-union dispatch (one lane batch) must hand
        each item the bitwise-identical value a solo dispatch returns."""
        a = decompose("figure14", {"scale": 0.3, "workloads": ["towers"],
                                   "designs": ["ndro_rf", "hiperrf"]})
        b = decompose("figure14", {"scale": 0.3, "workloads": ["towers"],
                                   "designs": ["ndro_rf",
                                               "dual_bank_hiperrf_ideal"]})
        merged = dispatch_group("cpu", [a.items[0].payload,
                                        b.items[0].payload])
        solo_a = dispatch_group("cpu", [a.items[0].payload])
        solo_b = dispatch_group("cpu", [b.items[0].payload])
        assert merged[0] == solo_a[0]
        assert merged[1] == solo_b[0]

    def test_cpu_lane_metrics_record_design_union(self):
        CPU_LANE_METRICS.reset()
        a = decompose("figure14", {"scale": 0.3, "workloads": ["vvadd"],
                                   "designs": ["ndro_rf", "hiperrf"]})
        b = decompose("figure14", {"scale": 0.3, "workloads": ["vvadd"],
                                   "designs": ["ndro_rf",
                                               "dual_bank_hiperrf"]})
        dispatch_group("cpu", [a.items[0].payload, b.items[0].payload])
        dispatch_group("cpu", [a.items[0].payload])
        stats = cpu_lane_stats()
        assert stats["dispatches"] == 2
        assert stats["lanes_total"] == 5   # 3-design union, then 2 solo
        assert stats["batches_coalesced"] == 2
        assert stats["lanes_max"] == 3


class TestPulseAdapter:
    def test_roundtrip_and_validation(self):
        out = run_job_naive("pulse_rf", {"registers": 4, "width": 4,
                                         "pattern": [[1, 5], [3, 9]]})
        assert out["stored"] == {"1": 5, "3": 9}
        assert out["read"] == {"1": 5, "3": 9}
        with pytest.raises(ValueError, match="register"):
            decompose("pulse_rf", {"registers": 2, "pattern": [[5, 1]]})
        with pytest.raises(ValueError, match="bits"):
            decompose("pulse_rf", {"width": 2, "pattern": [[1, 99]]})

    def test_same_geometry_shares_one_group(self):
        a = decompose("pulse_rf", {"pattern": [[1, 1]]})
        b = decompose("pulse_rf", {"pattern": [[2, 2]]})
        assert a.items[0].group == b.items[0].group
        assert a.items[0].digest() != b.items[0].digest()

    def test_lane_batched_group_matches_solo(self):
        """Strangers coalesced into one lane batch must each get the
        exact artifact a solo dispatch would have produced."""
        params_a = {"pattern": [[1, 5], [2, 9]]}
        params_b = {"pattern": [[3, 0xE4], [3, 0x1B]]}
        a = decompose("pulse_rf", params_a)
        b = decompose("pulse_rf", params_b)
        merged = dispatch_group("pulse", [a.items[0].payload,
                                          b.items[0].payload])
        assert a.recompose([merged[0]]) == run_job_naive("pulse_rf",
                                                         params_a)
        assert b.recompose([merged[1]]) == run_job_naive("pulse_rf",
                                                         params_b)

    def test_lane_metrics_record_occupancy(self):
        PULSE_LANE_METRICS.reset()
        payloads = [decompose("pulse_rf", {"pattern": [[r, r]]})
                    .items[0].payload for r in (1, 2, 3)]
        dispatch_group("pulse", payloads)      # one 3-lane batch
        dispatch_group("pulse", payloads[:1])  # one singleton
        stats = pulse_lane_stats()
        assert stats["dispatches"] == 2
        assert stats["lanes_total"] == 4
        assert stats["batches_coalesced"] == 1
        assert stats["lanes_max"] == 3
        assert stats["lanes_p50"] == 1.0
        assert stats["lanes_p95"] == 3.0

    def test_lane_metrics_stay_bounded(self):
        """100k dispatches keep one histogram entry per lane count and
        report what a sort of every recorded dispatch would."""
        rng = random.Random(7)
        recorded = [rng.choice((1, 2, 3)) for _ in range(100_000)]
        metrics = _LaneMetrics()
        for lanes in recorded:
            metrics.record(lanes)

        ordered = sorted(recorded)

        def rank(p):
            index = min(len(ordered) - 1,
                        max(0, math.ceil(p * len(ordered)) - 1))
            return float(ordered[index])

        assert metrics.snapshot() == {
            "dispatches": len(ordered),
            "lanes_total": sum(ordered),
            "batches_coalesced": sum(1 for n in ordered if n > 1),
            "lanes_max": ordered[-1],
            "lanes_p50": rank(0.50),
            "lanes_p95": rank(0.95),
        }
        stored = [value for value in vars(metrics).values()
                  if isinstance(value, Sized)]
        assert stored and all(len(value) <= 3 for value in stored)

    def test_lane_metrics_empty_snapshot(self):
        PULSE_LANE_METRICS.reset()
        stats = pulse_lane_stats()
        assert stats["dispatches"] == 0
        assert stats["lanes_p50"] == 0.0
