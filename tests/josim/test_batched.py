"""Batched lane-parallel solver vs the compiled scalar oracle.

The batched backend must be a pure optimisation: for same-topology
lane batches of the JTL, DRO and HC-DRO decks every per-lane trajectory
must agree with a scalar `TransientSolver` run of the identical circuit
to 1e-9 in phase, with the same recording contract (uneven strides,
final-step recording, per-lane durations) and the same
`SimulationError` behaviour — except that batched errors additionally
name the failing lane and its label.
"""

import math

import numpy as np
import pytest

import repro.josim.solver as solver_mod
from repro.errors import SimulationError
from repro.josim import BatchedTransientSolver, TransientSolver
from repro.josim.cells import (
    RECOMMENDED_READ_PULSE_UA,
    RECOMMENDED_WRITE_PULSE_UA,
    build_dro_cell,
    build_hcdro_cell,
    build_jtl_stage,
)
from repro.josim.fluxon import junction_fluxons
from repro.josim.solver import topology_signature
from repro.josim.sweep import HCDROConfig
from repro.josim.testbench import HCDROTestbench, run_hcdro_batch


def _jtl_deck(bias_fraction=0.7, ic_ua=100.0, amplitude_ua=500.0):
    handles = build_jtl_stage(bias_fraction=bias_fraction, ic_ua=ic_ua)
    handles.circuit.pulse("PIN", handles.input_node, start_ps=10.0,
                          amplitude_ua=amplitude_ua)
    return handles.circuit


def _dro_deck(write_scale=1.0, read_scale=1.0):
    handles = build_dro_cell()
    ckt = handles.circuit
    ckt.pulse("W0", handles.input_node, start_ps=20.0,
              amplitude_ua=RECOMMENDED_WRITE_PULSE_UA * write_scale,
              width_ps=3.0)
    ckt.pulse("R0", handles.clock_node, start_ps=80.0,
              amplitude_ua=RECOMMENDED_READ_PULSE_UA * read_scale,
              width_ps=3.0)
    return ckt


def _hcdro_deck(read_scale=1.0, bias_ua=75.0):
    handles = build_hcdro_cell(j2_bias_ua=bias_ua)
    ckt = handles.circuit
    for k in range(3):
        ckt.pulse(f"W{k}", handles.input_node, start_ps=20.0 + 25.0 * k,
                  amplitude_ua=RECOMMENDED_WRITE_PULSE_UA, width_ps=3.0)
    for k in range(4):
        ckt.pulse(f"R{k}", handles.clock_node, start_ps=130.0 + 25.0 * k,
                  amplitude_ua=RECOMMENDED_READ_PULSE_UA * read_scale,
                  width_ps=3.0)
    return ckt


#: (deck factory, lane parameter tuples, duration, junctions to count)
LANE_DECKS = {
    "jtl": (_jtl_deck, [(0.6,), (0.7,), (0.75,)], 60.0, ["J1", "J2"]),
    "dro": (_dro_deck, [(0.95, 1.0), (1.0, 1.0), (1.05, 0.97)], 130.0,
            ["J1", "J2", "J3"]),
    "hcdro": (_hcdro_deck, [(0.95, 73.0), (1.0, 75.0), (1.05, 77.0)],
              260.0, ["J1", "J2", "J3"]),
}


def _assert_lanes_match_scalar(factory, lane_params, duration, junctions,
                               record_every=1, durations=None):
    circuits = [factory(*params) for params in lane_params]
    batched = BatchedTransientSolver(circuits, timestep_ps=0.05).run(
        durations if durations is not None else duration,
        record_every=record_every)
    for lane, params in enumerate(lane_params):
        lane_duration = (durations[lane] if durations is not None
                         else duration)
        scalar = TransientSolver(factory(*params), timestep_ps=0.05).run(
            lane_duration, record_every=record_every)
        assert batched[lane].times_ps.shape == scalar.times_ps.shape
        np.testing.assert_allclose(batched[lane].times_ps,
                                   scalar.times_ps)
        max_dphi = float(np.max(np.abs(
            batched[lane].phases - scalar.phases)))
        assert max_dphi <= 1e-9, f"lane {lane}: max |dphi| = {max_dphi:.3e}"
        for jj in junctions:
            assert (junction_fluxons(batched[lane], jj)
                    == junction_fluxons(scalar, jj)), (lane, jj)


class TestBatchedEquivalence:
    @pytest.mark.parametrize("deck_name", sorted(LANE_DECKS))
    def test_lanes_match_scalar(self, deck_name):
        factory, lane_params, duration, junctions = LANE_DECKS[deck_name]
        _assert_lanes_match_scalar(factory, lane_params, duration,
                                   junctions)

    def test_uneven_lane_durations_retire_early(self):
        """Lanes with shorter programs retire and still match scalar."""
        factory, lane_params, _, junctions = LANE_DECKS["jtl"]
        _assert_lanes_match_scalar(factory, lane_params, None, junctions,
                                   durations=[40.0, 60.0, 25.0])

    def test_uneven_recording_stride(self):
        """record_every that doesn't divide the step count still records
        each lane's true final step."""
        factory, lane_params, _, junctions = LANE_DECKS["jtl"]
        _assert_lanes_match_scalar(factory, lane_params, None, junctions,
                                   record_every=7,
                                   durations=[40.0, 60.0, 25.0])

    def test_single_lane_batch(self):
        factory, lane_params, duration, junctions = LANE_DECKS["dro"]
        _assert_lanes_match_scalar(factory, lane_params[:1], duration,
                                   junctions)

    def test_batched_source_fallback_matches_table(self, monkeypatch):
        """Forcing the per-step source path must not change trajectories."""
        circuits = [_jtl_deck(0.7), _jtl_deck(0.65)]
        table = BatchedTransientSolver(circuits, timestep_ps=0.05).run(60.0)
        monkeypatch.setattr(solver_mod, "_SOURCE_TABLE_LIMIT", 0)
        circuits = [_jtl_deck(0.7), _jtl_deck(0.65)]
        fallback = BatchedTransientSolver(
            circuits, timestep_ps=0.05).run(60.0)
        for lane in range(2):
            max_dphi = float(np.max(np.abs(
                table[lane].phases - fallback[lane].phases)))
            assert max_dphi <= 1e-12, f"lane {lane}: {max_dphi:.3e}"


class TestChunkedExecution:
    """Reduction order and the source-table bound over one lane batch."""

    def test_run_reduced_streams_in_lane_order(self):
        circuits = [_jtl_deck(0.6 + 0.02 * k) for k in range(5)]
        full = BatchedTransientSolver(circuits, timestep_ps=0.05).run(40.0)
        circuits = [_jtl_deck(0.6 + 0.02 * k) for k in range(5)]
        seen = []

        def reduce(lane, result):
            seen.append(lane)
            return float(result.phases[-1].max())

        reduced = BatchedTransientSolver(
            circuits, timestep_ps=0.05).run_reduced(40.0, reduce)
        assert seen == [0, 1, 2, 3, 4]
        assert reduced == [float(r.phases[-1].max()) for r in full]

    def test_source_table_limit_accounts_for_batch_lanes(self, monkeypatch):
        """Three lanes must trip a limit one lane fits under — and the
        per-step fallback must reproduce the table path's trajectories."""
        circuits = [_jtl_deck(0.6), _jtl_deck(0.7), _jtl_deck(0.75)]
        table = BatchedTransientSolver(circuits, timestep_ps=0.05).run(60.0)

        calls = []
        original = solver_mod._BatchedStamps.source_residual

        def spy(self, times):
            calls.append(np.size(times))
            return original(self, times)

        monkeypatch.setattr(solver_mod._BatchedStamps, "source_residual",
                            spy)
        # 60 ps / 0.05 ps = 1200 steps x 4 nodes: one lane needs 4800
        # table entries, three lanes 14400 - set the limit between.
        monkeypatch.setattr(solver_mod, "_SOURCE_TABLE_LIMIT", 5000)
        circuits = [_jtl_deck(0.6), _jtl_deck(0.7), _jtl_deck(0.75)]
        fallback = BatchedTransientSolver(
            circuits, timestep_ps=0.05).run(60.0)
        assert len(calls) > 100, "expected per-step source evaluation"
        assert max(calls) == 1, "fallback must evaluate one step at a time"
        for lane in range(3):
            max_dphi = float(np.max(np.abs(
                table[lane].phases - fallback[lane].phases)))
            assert max_dphi <= 1e-12, f"lane {lane}: {max_dphi:.3e}"


class TestTopologySignature:
    def test_parameter_changes_keep_signature(self):
        assert (topology_signature(_jtl_deck(0.6, ic_ua=80.0))
                == topology_signature(_jtl_deck(0.75, ic_ua=120.0)))

    def test_different_topologies_differ(self):
        assert (topology_signature(_jtl_deck())
                != topology_signature(_dro_deck()))

    def test_structure_compiled_once_per_signature(self):
        solver_mod.clear_structure_cache()
        first = BatchedTransientSolver([_jtl_deck(0.6), _jtl_deck(0.7)])
        second = BatchedTransientSolver([_jtl_deck(0.75)])
        assert first._structure is second._structure
        assert len(solver_mod._STRUCTURE_CACHE) == 1


class TestBatchedValidation:
    def test_empty_batch_rejected(self):
        with pytest.raises(SimulationError, match="empty"):
            BatchedTransientSolver([])

    def test_mixed_topologies_rejected(self):
        with pytest.raises(SimulationError, match="lane 1.*topology"):
            BatchedTransientSolver([_jtl_deck(), _dro_deck()])

    def test_label_count_must_match(self):
        with pytest.raises(SimulationError, match="labels"):
            BatchedTransientSolver([_jtl_deck(), _jtl_deck(0.6)],
                                   labels=["only-one"])

    def test_invalid_timestep_and_duration(self):
        with pytest.raises(SimulationError):
            BatchedTransientSolver([_jtl_deck()], timestep_ps=0.0)
        with pytest.raises(SimulationError):
            BatchedTransientSolver([_jtl_deck()]).run(0.0)
        with pytest.raises(SimulationError):
            BatchedTransientSolver([_jtl_deck()]).run(
                [10.0], record_every=0)


class TestBatchedErrorReporting:
    def test_poisoned_lane_is_named(self):
        """A lane that cannot converge names itself; the error message
        carries the lane index and its label."""
        circuits = [_jtl_deck(0.7),
                    _jtl_deck(0.7, amplitude_ua=float("nan")),
                    _jtl_deck(0.65)]
        solver = BatchedTransientSolver(
            circuits, timestep_ps=0.05,
            labels=["good-a", "poisoned", "good-b"])
        with pytest.raises(SimulationError, match=r"lane 1 \(poisoned\)"):
            solver.run(60.0)

    def test_healthy_lanes_unaffected_by_poison_topology(self):
        """The same healthy lane parameters run fine without the poison
        lane — the failure above is the poisoned lane's, not the batch
        machinery's."""
        results = BatchedTransientSolver(
            [_jtl_deck(0.7), _jtl_deck(0.65)], timestep_ps=0.05).run(60.0)
        assert len(results) == 2
        for result in results:
            assert junction_fluxons(result, "J2") == 1


class TestBatchedTestbench:
    def test_batch_matches_scalar_testbench(self):
        configs = [HCDROConfig(writes=2, reads=3),
                   HCDROConfig(writes=2, reads=3,
                               read_amplitude_ua=1.05
                               * RECOMMENDED_READ_PULSE_UA),
                   HCDROConfig(writes=2, reads=3, j2_bias_ua=73.0)]
        reports = run_hcdro_batch(configs)
        for config, report in zip(configs, reports):
            bench = HCDROTestbench(
                handles=build_hcdro_cell(j2_bias_ua=config.j2_bias_ua),
                write_amplitude_ua=config.write_amplitude_ua,
                read_amplitude_ua=config.read_amplitude_ua,
                pulse_width_ps=config.pulse_width_ps,
                pulse_spacing_ps=config.pulse_spacing_ps,
                timestep_ps=config.timestep_ps)
            scalar = bench.run(writes=config.writes, reads=config.reads,
                               settle_ps=config.settle_ps)
            assert report.stored_after_writes == scalar.stored_after_writes
            assert report.stored_at_end == scalar.stored_at_end
            assert report.output_pulses == scalar.output_pulses
            max_dphi = float(np.max(np.abs(
                report.result.phases - scalar.result.phases)))
            assert max_dphi <= 1e-9

    def test_run_batch_classmethod_delegates(self):
        reports = HCDROTestbench.run_batch(
            [HCDROConfig(writes=1, reads=2),
             HCDROConfig(writes=1, reads=2, j2_bias_ua=74.0)])
        assert [r.stored_after_writes for r in reports] == [1, 1]
        assert [r.output_pulses for r in reports] == [1, 1]

    def test_empty_batch_is_empty(self):
        assert run_hcdro_batch([]) == []

    def test_mismatched_stimulus_counts_rejected(self):
        with pytest.raises(SimulationError, match="lane 1.*writes"):
            run_hcdro_batch([HCDROConfig(writes=1, reads=2),
                             HCDROConfig(writes=2, reads=2)])

    def test_mismatched_timestep_rejected(self):
        with pytest.raises(SimulationError, match="lane 1.*timestep"):
            run_hcdro_batch([HCDROConfig(writes=0, reads=0),
                             HCDROConfig(writes=0, reads=0,
                                         timestep_ps=0.1)])

    def test_poisoned_config_named_in_error(self):
        """One bad operating point in a batch must be identifiable from
        the exception alone: lane index plus the config repr."""
        poison = HCDROConfig(writes=1, reads=1,
                             write_amplitude_ua=float("nan"))
        with pytest.raises(SimulationError) as excinfo:
            run_hcdro_batch([HCDROConfig(writes=1, reads=1), poison])
        message = str(excinfo.value)
        assert "lane 1" in message
        assert "HCDROConfig" in message
        assert "nan" in message

    def test_uneven_settle_times_share_a_batch(self):
        """settle/spacing are lane data: lanes with different durations
        run in one batch and match their scalar equivalents."""
        configs = [HCDROConfig(writes=1, reads=1, settle_ps=20.0),
                   HCDROConfig(writes=1, reads=1, settle_ps=40.0)]
        reports = run_hcdro_batch(configs)
        durations = [r.result.times_ps[-1] for r in reports]
        assert durations[0] == pytest.approx(20.0 + 25.0 + 20.0 + 25.0
                                             + 20.0)
        assert durations[1] == pytest.approx(20.0 + 25.0 + 40.0 + 25.0
                                             + 40.0)
        for report in reports:
            assert report.stored_after_writes == 1
            assert report.output_pulses == 1


def test_batched_phase_physics_sane():
    """A supercritically biased lane rotates; a subcritical lane locks —
    batching must not couple lanes."""
    def biased(ic, bias):
        from repro.josim import Circuit

        ckt = Circuit()
        ckt.jj("J1", "a", "gnd", critical_current_ua=ic)
        ckt.bias("IB", "a", current_ua=bias)
        return ckt

    results = BatchedTransientSolver(
        [biased(100.0, 150.0), biased(100.0, 70.0)],
        timestep_ps=0.05).run(100.0)
    assert results[0].junction_phase("J1")[-1] > 4 * math.pi
    assert results[1].junction_phase("J1")[-1] == pytest.approx(
        math.asin(0.7), abs=0.02)
