"""Cross-tier equivalence: reference vs compiled vs batched lanes.

Every scenario drives the *same* per-lane program three ways:

* live on a fresh reference engine (one engine per lane - the ground
  truth),
* as captured stimulus lanes through ``run_lanes(tier="compiled")``
  (sequential snapshot/restore replay),
* as the same lanes through ``run_lanes(tier="batched")`` (one shared
  vectorized event wheel).

The tiers must agree on *everything*, per lane: error type and text,
delivered-event count, final clock, the full delivery trace (order, not
just content), probe pulse times and component state.  Lane counts
cover L in {1, 2, 7, 64}, lanes retire unevenly, and strict-timing
faults and per-lane ``max_events`` exhaustion hit only some lanes of a
batch.
"""

from __future__ import annotations

import pytest

from repro.pulse import (
    DRO,
    Engine,
    HCDRO,
    JTL,
    Probe,
    SplitTree,
    capture_stimulus,
    install_lane,
    run_lanes,
)
from repro.pulse import batched as batched_mod
from repro.pulse.demux import NdrocDemux
from repro.rf.geometry import RFGeometry
from repro.rf.netlist import PulseHiPerRF, PulseNdroRF

LANE_COUNTS = (1, 2, 7, 64)


# -- harness ------------------------------------------------------------


def _reference_outcome(build, program, lane: int, strict: bool):
    engine = Engine(strict_timing=strict)
    handle = build(engine)
    engine.trace = []
    error = None
    try:
        program(engine, handle, lane)
    except Exception as exc:  # noqa: BLE001 - compared, not hidden
        error = (type(exc).__name__, str(exc))
    probes = {name: list(comp.times_ps)
              for name, comp in engine._components.items()
              if isinstance(comp, Probe)}
    return {
        "error": error,
        "trace": list(engine.trace),
        "delivered": engine.total_delivered,
        "now_ps": engine.now_ps,
        "probes": probes,
    }


def assert_tiers_match(build, program, lanes: int,
                       strict: bool = True) -> list:
    """Run ``lanes`` lanes of one scenario on all three tiers."""
    references = [_reference_outcome(build, program, lane, strict)
                  for lane in range(lanes)]

    engine = Engine(strict_timing=strict)
    handle = build(engine)
    compiled = engine.compile()
    stimuli = []
    for lane in range(lanes):
        with capture_stimulus(engine) as capture:
            program(engine, handle, lane)
        stimuli.append(capture.stimulus())

    sequential = run_lanes(compiled, stimuli, tier="compiled", trace=True)
    batched = run_lanes(compiled, stimuli, tier="batched", trace=True)

    # Batched vs compiled: full LaneOutcome equality (state columns,
    # pending events, probes, traces, errors - everything).
    assert batched == sequential

    # Both lane tiers vs the per-lane reference ground truth.
    for reference, outcome in zip(references, batched):
        assert outcome.error == reference["error"]
        assert outcome.delivered == reference["delivered"]
        assert outcome.now_ps == reference["now_ps"]
        assert outcome.trace == reference["trace"]
        install_lane(compiled, outcome)
        lane_probes = {name: list(comp.times_ps)
                       for name, comp in engine._components.items()
                       if isinstance(comp, Probe)}
        assert lane_probes == reference["probes"]
    return batched


# -- netlist builders and per-lane programs -----------------------------


def build_jtl_chain(engine):
    stages = [engine.add(JTL(f"j{i}", delay_ps=1.5 + 0.25 * (i % 3)))
              for i in range(20)]
    for a, b in zip(stages, stages[1:]):
        a.connect("out", b, "in", delay_ps=0.5)
    probe = engine.add(Probe("end"))
    stages[-1].connect("out", probe, "in")
    return stages[0], probe


def program_jtl(engine, handle, lane):
    """Lane k injects k+1 pulses: every lane retires at a different time."""
    head, _ = handle
    for i in range(lane + 1):
        engine.schedule(head, "in", 10.0 + 7.0 * i)
    engine.run()


def build_dro_column(engine):
    cells = [engine.add(DRO(f"col.c{i}")) for i in range(8)]
    data_tree = SplitTree(engine, "col.data", 8)
    clk_tree = SplitTree(engine, "col.clk", 8)
    for i, cell in enumerate(cells):
        comp, port = data_tree.outputs[i]
        comp.connect(port, cell, "d", delay_ps=1.0)
        comp, port = clk_tree.outputs[i]
        comp.connect(port, cell, "clk", delay_ps=1.0)
        probe = engine.add(Probe(f"col.p{i}"))
        cell.connect("q", probe, "in")
    return data_tree, clk_tree


def program_dro_column(engine, handle, lane):
    data_tree, clk_tree = handle
    t = 10.0
    for _ in range(1 + lane % 5):  # store/read round count varies per lane
        engine.schedule(*data_tree.inp, t)
        engine.schedule(*clk_tree.inp, t + 40.0)
        t += 100.0
    engine.run(until_ps=t)


def build_hcdro(engine):
    cell = engine.add(HCDRO("hc"))
    probe = engine.add(Probe("out"))
    cell.connect("q", probe, "in", delay_ps=1.0)
    return cell, probe


def program_hcdro(engine, handle, lane):
    """Store (lane % 4) fluxons, then read four times."""
    cell, _ = handle
    spacing = cell.min_pulse_spacing_ps
    t = 10.0
    for _ in range(lane % 4):
        engine.schedule(cell, "d", t)
        t += spacing
    for _ in range(4):
        engine.schedule(cell, "clk", t)
        t += spacing
    engine.run()


def program_hcdro_faulty(engine, handle, lane):
    """Even lanes violate the HC-DRO pulse spacing; odd lanes are clean."""
    cell, _ = handle
    spacing = cell.min_pulse_spacing_ps
    engine.schedule(cell, "d", 10.0)
    if lane % 2 == 0:
        engine.schedule(cell, "d", 11.0)  # far too close: strict error
    else:
        engine.schedule(cell, "d", 10.0 + spacing)
        engine.schedule(cell, "clk", 10.0 + 2 * spacing)
    engine.run()


def build_demux(engine):
    demux = NdrocDemux(engine, "dx", 8)
    for leaf in range(8):
        probe = engine.add(Probe(f"leaf{leaf}"))
        comp, port = demux.leaf(leaf)
        comp.connect(port, probe, "in")
    return demux


def program_demux(engine, handle, lane):
    demux = handle
    t = 50.0
    for address in ((lane * 3 + i) % 8 for i in range(1 + lane % 3)):
        demux.apply_select(address, t)
        demux.fire(t + 30.0)
        demux.apply_reset(t + 120.0)
        t += 200.0
    engine.run()


def build_hiperrf(engine):
    return PulseHiPerRF(engine, RFGeometry(4, 8))


def program_hiperrf(engine, rf, lane):
    """Write a lane-dependent word, read it back restoringly."""
    register = lane % 4
    value = (0x35 + 0x49 * lane) & 0xFF
    t = rf.write_word(register, value, 0.0)
    settle = rf.schedule_read(register, t, loopback=True)
    rf._broadcast(rf.hcr_read_tree, settle + 5.0)
    rf._broadcast(rf.hcr_reset_tree, settle + 15.0)
    engine.run(until_ps=t + 2 * rf.op_period_ps)


def program_hiperrf_budget(engine, rf, lane):
    """Odd lanes exhaust a tiny per-lane event budget mid-flight."""
    rf.schedule_write(lane % 4, 0xA, 50.0)
    if lane % 2:
        engine.run(max_events=100)
    else:
        engine.run(until_ps=2 * rf.op_period_ps)


def build_ndrorf(engine):
    return PulseNdroRF(engine, RFGeometry(4, 8), 400.0)


def program_ndrorf(engine, rf, lane):
    register = lane % 4
    value = (0x1F * (lane + 1)) & 0xFF
    rf.schedule_write(register, value, 0.0)
    engine.run(until_ps=rf.op_period_ps)
    rf.read_word(register, rf.op_period_ps + 50.0)


SCENARIOS = {
    "jtl_chain": (build_jtl_chain, program_jtl, True),
    "dro_column": (build_dro_column, program_dro_column, True),
    "hcdro": (build_hcdro, program_hcdro, True),
    "demux": (build_demux, program_demux, True),
    "hiperrf": (build_hiperrf, program_hiperrf, True),
    "ndro_rf": (build_ndrorf, program_ndrorf, True),
}


# -- the suite ----------------------------------------------------------


class TestCrossTierEquivalence:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    @pytest.mark.parametrize("lanes", LANE_COUNTS)
    def test_all_netlists_all_lane_counts(self, name, lanes):
        build, program, strict = SCENARIOS[name]
        if lanes == 64 and name in ("hiperrf", "ndro_rf"):
            pytest.skip("64 reference builds of a full RF are too slow "
                        "for tier-1; covered at L<=7")
        assert_tiers_match(build, program, lanes, strict)

    @pytest.mark.parametrize("lanes", (2, 7))
    def test_strict_timing_faults_per_lane(self, lanes):
        outcomes = assert_tiers_match(build_hcdro, program_hcdro_faulty,
                                      lanes)
        for outcome in outcomes:
            if outcome.lane % 2 == 0:
                assert outcome.error is not None
                assert outcome.error[0] == "TimingViolationError"
                assert "1.00 ps apart" in outcome.error[1]
            else:
                assert outcome.error is None

    def test_lenient_mode_dissipates_identically(self):
        outcomes = assert_tiers_match(build_hcdro, program_hcdro_faulty,
                                      4, strict=False)
        assert all(outcome.error is None for outcome in outcomes)

    @pytest.mark.parametrize("lanes", (2, 7))
    def test_max_events_exhaustion_per_lane(self, lanes):
        outcomes = assert_tiers_match(build_hiperrf,
                                      program_hiperrf_budget, lanes)
        for outcome in outcomes:
            if outcome.lane % 2:
                assert outcome.error is not None
                assert outcome.error[0] == "SimulationError"
                assert outcome.delivered == 100
            else:
                assert outcome.error is None


class TestTierSelection:
    def test_on_error_raise_carries_lane_index(self):
        engine = Engine(strict_timing=True)
        handle = build_hcdro(engine)
        compiled = engine.compile()
        stimuli = []
        for lane in range(3):
            with capture_stimulus(engine) as capture:
                program_hcdro_faulty(engine, handle, lane)
            stimuli.append(capture.stimulus())
        with pytest.raises(Exception, match="lane 0:"):
            run_lanes(compiled, stimuli, tier="batched", on_error="raise")


    @pytest.mark.parametrize("tier", (None, "batched", "compiled"))
    def test_no_stimuli_no_outcomes(self, tier):
        compiled = Engine(strict_timing=True).compile()
        assert run_lanes(compiled, [], tier=tier) == []


class TestWavePathEquivalence:
    """Both wave admission paths (vectorized and scalar-fallback) agree."""

    @pytest.mark.parametrize("wave_min", (1, 100000))
    def test_wave_min_threshold(self, monkeypatch, wave_min):
        monkeypatch.setattr(batched_mod, "_DEFAULT_MIN_VECTOR_WAVE", wave_min)
        assert_tiers_match(build_hiperrf, program_hiperrf, 4)
