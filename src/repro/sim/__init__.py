"""Execution engine: runs workloads on the simulated testbed.

* :mod:`repro.sim.affinity` — thread placement policies (compact /
  scatter) and their NUMA consequences,
* :mod:`repro.sim.mpi` — the alpha–beta inter-node communication model,
* :mod:`repro.sim.trace` — run records and results,
* :mod:`repro.sim.batch` — the simulator: one vectorized array program
  that resolves RAPL caps against workload demand for many configs at
  once and produces times, powers, energies, and hardware-event
  counters (plus the run cache),
* :mod:`repro.sim.engine` — the execution engine: side-effect-free
  evaluation, and runs that program caps and account energy.
"""

from repro.sim.affinity import Placement, make_placement, placement_for
from repro.sim.mpi import CommModel
from repro.sim.trace import NodeRunRecord, RunResult
from repro.sim.engine import ExecutionConfig, ExecutionEngine

__all__ = [
    "Placement",
    "make_placement",
    "placement_for",
    "CommModel",
    "NodeRunRecord",
    "RunResult",
    "ExecutionConfig",
    "ExecutionEngine",
]
