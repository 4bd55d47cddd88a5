"""Design-set dispatch: ``replay_lanes`` over the compiled tier.

:func:`~repro.cpu.batched.replay_lanes` replays one op tape per lane
through :func:`~repro.cpu.compiled.replay_tape`.  This suite pins what
the dispatch itself adds: ascending lane order (a *shared* stateful
memory model sees the sequential-sweep access order), results landing
in their lane slots, lane-indexed register validation, and the
per-tape memoizations the replay relies on.
"""

import pytest

from repro.cpu import CoreConfig, OpTape, RFTimingModel
from repro.cpu.batched import Lane, replay_lanes
from repro.cpu.compiled import design_tables, replay_tape
from repro.errors import ExecutionError
from repro.experiments.figure14 import FIGURE14_WORKLOADS
from repro.isa import assemble
from repro.mem import DirectMappedCache
from repro.workloads import get_workload

SCALE = 0.3
MAX_INSTRUCTIONS = 60_000


def result_key(result):
    """Every integer the acceptance criteria compare, plus the CPI."""
    return (result.instructions, result.total_cycles, result.cpi,
            result.stalls.as_dict(), result.branches_taken, result.loads)


def small_cache():
    return DirectMappedCache(lines=16, line_size=16, hit_cycles=2,
                             miss_cycles=40)


@pytest.fixture(scope="module")
def some_tapes():
    """Tapes of the first three Figure 14 workloads."""
    tapes = {}
    for name in FIGURE14_WORKLOADS[:3]:
        program = assemble(get_workload(name).build(SCALE))
        tapes[name] = OpTape.from_program(
            program, max_instructions=MAX_INSTRUCTIONS)
    return tapes


class TestMemoryModelFallback:
    def test_memory_lanes_match_scalar(self, some_tapes):
        """Lanes with private stateful models (order-dependent latency)."""
        config = CoreConfig()
        for name, tape in some_tapes.items():
            lanes = [Lane(RFTimingModel.for_design(d, config), config,
                          memory_model=small_cache())
                     for d in ("ndro_rf", "hiperrf")]
            got = replay_lanes(tape, lanes)
            want = [replay_tape(tape, lane.rf, lane.config,
                                memory_model=small_cache())
                    for lane in lanes]
            for g, w in zip(got, want):
                assert result_key(g) == result_key(w), name

    def test_shared_model_sees_ascending_lane_order(self, some_tapes):
        """One cache instance shared by three lanes: its hit/miss history
        depends on the replay order, so equality with a sequential sweep
        over a twin instance proves the documented ascending-lane order."""
        config = CoreConfig()
        designs = ("ndro_rf", "hiperrf", "dual_bank_hiperrf")
        for name, tape in some_tapes.items():
            shared = small_cache()
            lanes = [Lane(RFTimingModel.for_design(d, config), config,
                          memory_model=shared) for d in designs]
            got = replay_lanes(tape, lanes)
            twin = small_cache()
            want = [replay_tape(tape, lane.rf, lane.config,
                                memory_model=twin) for lane in lanes]
            for g, w in zip(got, want):
                assert result_key(g) == result_key(w), name

    def test_mixed_vector_and_memory_lanes_keep_order(self, some_tapes):
        """Memory-model lanes interleaved with plain lanes must land
        back in their original slots."""
        config = CoreConfig()
        for name, tape in some_tapes.items():
            lanes = [
                Lane(RFTimingModel.for_design("hiperrf", config), config),
                Lane(RFTimingModel.for_design("ndro_rf", config), config,
                     memory_model=small_cache()),
                Lane(RFTimingModel.for_design("dual_bank_hiperrf", config),
                     config),
                Lane(RFTimingModel.for_design("hiperrf", config), config,
                     memory_model=small_cache()),
            ]
            got = replay_lanes(tape, lanes)
            want = [replay_tape(tape, lane.rf, lane.config,
                                memory_model=(small_cache()
                                              if lane.memory_model
                                              else None))
                    for lane in lanes]
            for g, w in zip(got, want):
                assert result_key(g) == result_key(w), name


class TestValidationAndTiers:
    def test_validation_error_carries_lane_index(self, some_tapes):
        """A lane whose register file is too small for the tape names
        itself; healthy lanes before it do not mask the error."""
        tape = next(iter(some_tapes.values()))
        wide = CoreConfig()
        narrow = CoreConfig(num_registers=8)
        lanes = [
            Lane(RFTimingModel.for_design("hiperrf", wide), wide),
            Lane(RFTimingModel.for_design("hiperrf", narrow), narrow),
        ]
        with pytest.raises(ExecutionError, match=r"lane 1 \(hiperrf\)"):
            replay_lanes(tape, lanes)


class TestMemoization:
    def test_design_tables_lru_returns_cached_arrays(self, some_tapes):
        tape = next(iter(some_tapes.values()))
        rf = RFTimingModel.for_design("hiperrf", CoreConfig())
        first = design_tables(tape, rf)
        again = design_tables(tape, rf)
        assert first[0] is again[0] and first[1] is again[1]

    def test_content_fingerprint_is_stable_and_content_keyed(self):
        program = assemble(get_workload("vvadd").build(SCALE))
        a = OpTape.from_program(program, max_instructions=MAX_INSTRUCTIONS)
        b = OpTape.from_program(program, max_instructions=MAX_INSTRUCTIONS)
        assert a.content_fingerprint() == a.content_fingerprint()
        assert a.content_fingerprint() == b.content_fingerprint()
        other = assemble(get_workload("towers").build(SCALE))
        c = OpTape.from_program(other, max_instructions=MAX_INSTRUCTIONS)
        assert c.content_fingerprint() != a.content_fingerprint()

