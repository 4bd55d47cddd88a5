"""A compact superconducting circuit transient solver (JoSim stand-in).

The paper designed and verified its DRO / HC-DRO cells with JoSim, a
SPICE-class simulator for Josephson junction circuits.  This package
implements the same physics at the scale the reproduction needs:

* RCSJ junction model (``I = Ic sin(phi) + V/R + C dV/dt``) in the
  *phase domain*: node phases are the state variables and every element
  current is expressed through them,
* modified nodal analysis with trapezoidal integration and a Newton
  solve per timestep,
* fluxon bookkeeping: a 2*pi phase slip of a junction is one fluxon
  passing through it, so storage-loop occupancy is read directly off the
  junction phases.

Units: ps, uA, pH, mV, and Ohm-scale resistances entered in mV/uA
(1 mV/uA = 1 kOhm; helpers convert).  With these choices the flux
quantum is ``PHI0 = 2.0678 mV*ps`` and a 20 pH loop stores one fluxon at
~103 uA circulating current - exactly the regime of the paper's HC-DRO
(L2 ~ 20 pH, Ic ~ 110 uA).
"""

from repro.josim.elements import (
    BiasCurrent,
    Capacitor,
    Inductor,
    JosephsonJunction,
    PulseCurrent,
    Resistor,
)
from repro.josim.circuit import Circuit
from repro.josim.solver import (
    BatchedTransientSolver,
    TransientResult,
    TransientSolver,
    topology_signature,
)
from repro.josim.fluxon import junction_fluxons, loop_fluxons
from repro.josim.cells import (
    build_dro_cell,
    build_hcdro_cell,
    build_jtl_stage,
)
from repro.josim.sweep import (
    HCDROConfig,
    HCDROSummary,
    run_configs,
    simulate_hcdro,
    simulate_hcdro_batch,
    sweep_map,
    topology_key,
)
from repro.josim.montecarlo import (
    SpreadSpec,
    YieldConfig,
    YieldReport,
    run_yield_analysis,
)

__all__ = [
    "BatchedTransientSolver",
    "BiasCurrent",
    "Capacitor",
    "Circuit",
    "HCDROConfig",
    "HCDROSummary",
    "Inductor",
    "JosephsonJunction",
    "PulseCurrent",
    "Resistor",
    "SpreadSpec",
    "TransientResult",
    "TransientSolver",
    "YieldConfig",
    "YieldReport",
    "build_dro_cell",
    "build_hcdro_cell",
    "build_jtl_stage",
    "junction_fluxons",
    "loop_fluxons",
    "run_configs",
    "run_yield_analysis",
    "simulate_hcdro",
    "simulate_hcdro_batch",
    "sweep_map",
    "topology_key",
    "topology_signature",
]
