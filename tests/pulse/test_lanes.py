"""Lane replay vs the reference engine.

Every scenario drives the *same* per-lane program two ways:

* live on a fresh reference engine (one engine per lane - the ground
  truth: the components' own ``on_pulse``),
* as captured stimulus lanes through ``run_lanes`` (snapshot/restore
  replay on the compiled backend).

Both must agree per lane on error type and text, delivered-event
count, pending-event count, final clock, the full delivery trace
(order, not just content), probe pulse times and every component's
state.  Lane counts cover L in {1, 2, 7, 64}, lanes retire unevenly,
strict-timing faults and per-lane ``max_events`` exhaustion hit only
some lanes of a batch, and hypothesis draws random pin injections.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TimingViolationError
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
from repro.pulse.demux import NdrocDemux
from repro.rf.geometry import RFGeometry
from repro.rf.netlist import PulseHiPerRF, PulseNdroRF

LANE_COUNTS = (1, 2, 7, 64)


# -- harness ------------------------------------------------------------


_SCALARS = (bool, int, float, str, type(None))


def _component_state(engine) -> dict:
    """Every component's scalar-valued attributes (cell state, counters,
    probe times), keyed by component name."""
    state = {}
    for name, comp in engine._components.items():
        fields = {}
        for key, value in vars(comp).items():
            if isinstance(value, _SCALARS):
                fields[key] = value
            elif isinstance(value, (list, dict)) and all(
                    isinstance(v, _SCALARS) for v in
                    (value.values() if isinstance(value, dict) else value)):
                fields[key] = value
        state[name] = fields
    return state


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
        "pending": engine.pending_events,
        "probes": probes,
        "state": _component_state(engine),
    }


def capture_lanes(engine, handle, program, lanes: int) -> list:
    """Record ``lanes`` runs of ``program`` as replayable stimuli."""
    stimuli = []
    for lane in range(lanes):
        with capture_stimulus(engine) as capture:
            program(engine, handle, lane)
        stimuli.append(capture.stimulus())
    return stimuli


def assert_lanes_match_reference(build, program, lanes: int,
                                 strict: bool = True) -> list:
    """Run ``lanes`` lanes of one scenario; compare each to a solo
    reference-engine run of the same program."""
    references = [_reference_outcome(build, program, lane, strict)
                  for lane in range(lanes)]

    engine = Engine(strict_timing=strict)
    handle = build(engine)
    compiled = engine.compile()
    stimuli = capture_lanes(engine, handle, program, lanes)
    outcomes = run_lanes(compiled, stimuli, trace=True)

    assert [outcome.lane for outcome in outcomes] == list(range(lanes))
    for reference, outcome in zip(references, outcomes):
        assert outcome.error == reference["error"]
        assert outcome.delivered == reference["delivered"]
        assert outcome.pending == reference["pending"]
        assert outcome.now_ps == reference["now_ps"]
        assert outcome.trace == reference["trace"]
        install_lane(compiled, outcome)
        lane_probes = {name: list(comp.times_ps)
                       for name, comp in engine._components.items()
                       if isinstance(comp, Probe)}
        assert lane_probes == reference["probes"]
        assert _component_state(engine) == reference["state"]
    return outcomes


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
        assert_lanes_match_reference(build, program, lanes, strict)

    @pytest.mark.parametrize("lanes", (2, 7))
    def test_strict_timing_faults_per_lane(self, lanes):
        outcomes = assert_lanes_match_reference(
            build_hcdro, program_hcdro_faulty, lanes)
        for outcome in outcomes:
            if outcome.lane % 2 == 0:
                assert outcome.error is not None
                assert outcome.error[0] == "TimingViolationError"
                assert "1.00 ps apart" in outcome.error[1]
            else:
                assert outcome.error is None

    def test_lenient_mode_dissipates_identically(self):
        outcomes = assert_lanes_match_reference(
            build_hcdro, program_hcdro_faulty, 4, strict=False)
        assert all(outcome.error is None for outcome in outcomes)

    @pytest.mark.parametrize("lanes", (2, 7))
    def test_max_events_exhaustion_per_lane(self, lanes):
        outcomes = assert_lanes_match_reference(
            build_hiperrf, program_hiperrf_budget, lanes)
        for outcome in outcomes:
            if outcome.lane % 2:
                assert outcome.error is not None
                assert outcome.error[0] == "SimulationError"
                assert outcome.delivered == 100
            else:
                assert outcome.error is None


class TestLaneApi:
    def test_on_error_raise_carries_lane_index(self):
        engine = Engine(strict_timing=True)
        handle = build_hcdro(engine)
        compiled = engine.compile()
        stimuli = capture_lanes(engine, handle, program_hcdro_faulty, 3)
        reference = _reference_outcome(build_hcdro, program_hcdro_faulty,
                                       0, strict=True)
        etype, message = reference["error"]
        with pytest.raises(TimingViolationError) as info:
            run_lanes(compiled, stimuli, on_error="raise")
        assert type(info.value).__name__ == etype
        assert str(info.value) == f"lane 0: {message}"

    @pytest.mark.parametrize(
        "options", ({}, {"on_error": "raise"}, {"trace": True}),
        ids=("default", "raise", "trace"))
    def test_no_stimuli_no_outcomes(self, options):
        compiled = Engine(strict_timing=True).compile()
        assert run_lanes(compiled, [], **options) == []


# -- random stimuli ------------------------------------------------------


def _input_pins(build) -> list:
    engine = Engine()
    build(engine)
    return [(comp.name, port) for comp in engine.components()
            for port in comp.INPUTS]


HCDRO_PINS = _input_pins(build_hcdro)
HIPERRF_PINS = _input_pins(build_hiperrf)


def injection_lanes(pins, max_injections: int):
    """1-4 lanes, each a list of (component, port, time) injections.

    Times sit on a 2.5 ps grid so same-time ties (and their schedule
    order) occur often.
    """
    injection = st.tuples(st.sampled_from(pins),
                          st.integers(0, 400).map(lambda k: 2.5 * k))
    return st.lists(st.lists(injection, max_size=max_injections),
                    min_size=1, max_size=4)


def program_injections(lanes):
    def program(engine, _handle, lane):
        for (name, port), time_ps in lanes[lane]:
            engine.schedule(engine.component(name), port, time_ps)
        engine.run(max_events=5000)
    return program


class TestRandomInjections:
    """Random pin injections: every lane equals a solo reference run."""

    @settings(max_examples=100, deadline=None)
    @given(lanes=injection_lanes(HCDRO_PINS, 10), strict=st.booleans())
    def test_hcdro(self, lanes, strict):
        assert_lanes_match_reference(build_hcdro, program_injections(lanes),
                                     len(lanes), strict)

    @settings(max_examples=60, deadline=None)
    @given(lanes=injection_lanes(HIPERRF_PINS, 24), strict=st.booleans())
    def test_hiperrf(self, lanes, strict):
        assert_lanes_match_reference(build_hiperrf,
                                     program_injections(lanes),
                                     len(lanes), strict)
