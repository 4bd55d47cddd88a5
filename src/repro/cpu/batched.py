"""Design-set dispatch: one op tape replayed across design lanes.

The headline sweeps - Figure 14's design columns, the banking ladder,
the ablation policies, the service's design-union CPU groups - replay
one tape under several timing models.  A *lane* is one
``(RFTimingModel, CoreConfig, memory_model)`` combination (memory
latency rides on the config); :func:`replay_lanes` replays every lane
through the compiled tier (:func:`repro.cpu.compiled.replay_tape`) and
returns the results in lane order.

Lanes replay in ascending lane order, so a stateful memory model
(``FlatMemory``, ``DirectMappedCache``) shared by several lanes sees the
same access-call order as a sequential sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence

from repro.cpu.compiled import replay_tape
from repro.cpu.config import CoreConfig
from repro.cpu.optape import OpTape
from repro.cpu.pipeline import PipelineResult
from repro.cpu.rf_model import RFTimingModel
from repro.errors import ExecutionError


@dataclass
class Lane:
    """One replay lane: a design plus its core configuration.

    ``memory_model`` (optional, stateful) is consulted per load/store in
    program order - see the module docstring for the lane order.
    """

    rf: RFTimingModel
    config: CoreConfig = field(default_factory=CoreConfig)
    memory_model: Optional[Any] = None


def lanes_for_designs(designs: Sequence[str],
                      config: Optional[CoreConfig] = None) -> List[Lane]:
    """Build one :class:`Lane` per design name under a shared config."""
    config = config or CoreConfig()
    return [Lane(RFTimingModel.for_design(name, config), config)
            for name in designs]


def replay_lanes(tape: OpTape,
                 lanes: Sequence[Lane]) -> List[PipelineResult]:
    """Replay one tape across ``lanes``; one result per lane, in order.

    Every lane is validated against the tape before any replays, so an
    error names the offending lane.
    """
    for index, lane in enumerate(lanes):
        _validate_lane(tape, index, lane)
    return [replay_tape(tape, lane.rf, lane.config,
                        memory_model=lane.memory_model)
            for lane in lanes]


def _validate_lane(tape: OpTape, index: int, lane: Lane) -> None:
    if tape.signature_count == 0:
        return
    top = max(int(tape.sig_srcs.max()), int(tape.sig_dest.max()))
    if top >= lane.config.num_registers:
        raise ExecutionError(
            f"lane {index} ({lane.rf.name}): tape addresses register "
            f"{top}, outside the {lane.config.num_registers}-register "
            "file")
