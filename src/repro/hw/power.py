"""Ground-truth analytic power model.

The paper's Eqs. 5–9 give the structure of the power the simulated
hardware draws:

* package power = base + Σ active-core load (Eq. 7), where per-core load
  has a leakage term and a dynamic term super-linear in frequency and
  proportional to the core's activity factor (memory-stalled cores draw
  less dynamic power);
* DRAM power = base + load linear in delivered bandwidth (Eq. 9);
* node power = Σ package + Σ DRAM + other (Eq. 5).

:class:`~repro.sim.batch.BatchEvaluator` evaluates all three, over many
configurations at once, when it solves a run.  :class:`PowerModel`
keeps the scalar package equation for the time-stepped
:class:`~repro.hw.governor.RaplGovernor`, and :class:`PowerBreakdown`
is the per-domain split the power meter records.

CLIP never reads these equations directly — it observes power through
the RAPL interface and meter, and *fits its own* model from profiles,
preserving the paper's methodology.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SpecError
from repro.hw.specs import NodeSpec

__all__ = ["PowerModel", "PowerBreakdown"]


@dataclass(frozen=True)
class PowerBreakdown:
    """Instantaneous node power split by RAPL-visible domain (watts).

    ``gpu_w`` is ``None`` on CPU-only nodes — the domain is *absent*,
    not zero, so consumers can distinguish "no accelerator" from "an
    idle accelerator".  All domain arithmetic (totals, scaling) is
    table-driven over :data:`CAPPED_DOMAIN_FIELDS`: a new domain added
    to the table participates in every aggregate automatically and can
    never be silently dropped from a total.
    """

    pkg_w: float
    dram_w: float
    other_w: float
    gpu_w: float | None = None

    #: Cappable domain fields, in summation order.  ``other_w`` stays
    #: outside: it is real wall power but no RAPL domain controls it.
    CAPPED_DOMAIN_FIELDS = ("pkg_w", "dram_w", "gpu_w")

    def present_domains(self) -> tuple[tuple[str, float], ...]:
        """The cappable domains this node actually has, in table order."""
        return tuple(
            (name, value)
            for name in self.CAPPED_DOMAIN_FIELDS
            if (value := getattr(self, name)) is not None
        )

    @property
    def total_w(self) -> float:
        """Wall power of the node."""
        return self.capped_w + self.other_w

    @property
    def capped_w(self) -> float:
        """Power under cap-domain control (PKG + DRAM [+ GPU])."""
        total = 0.0
        for _, value in self.present_domains():
            total = total + value
        return total

    def scaled(self, factor: float) -> "PowerBreakdown":
        """Apply a node-wide efficiency multiplier (variability).

        Scales every present cappable domain; ``other_w`` (fans, board)
        does not vary with silicon quality.
        """
        scaled = {
            name: value * factor for name, value in self.present_domains()
        }
        return PowerBreakdown(other_w=self.other_w, **scaled)


class PowerModel:
    """Analytic power model for one node specification.

    Parameters
    ----------
    node:
        Static node description supplying all coefficients.
    efficiency:
        Node-wide multiplier on PKG and DRAM power modelling
        manufacturing variability; 1.0 is the nominal part.
    """

    def __init__(self, node: NodeSpec, efficiency: float = 1.0):
        if efficiency <= 0:
            raise SpecError(f"efficiency must be > 0, got {efficiency}")
        self._node = node
        self._efficiency = float(efficiency)

    @property
    def node(self) -> NodeSpec:
        """The node specification this model describes."""
        return self._node

    @property
    def efficiency(self) -> float:
        """Variability multiplier applied to PKG and DRAM power."""
        return self._efficiency

    def core_power(self, f, activity=1.0):
        """Power of one active core at frequency *f* (Hz).

        ``activity`` in [0, 1] scales only the dynamic term: a core
        stalled on memory keeps leaking but clocks fewer transitions.
        Accepts scalars or arrays and broadcasts.
        """
        spec = self._node.socket.core
        f = np.asarray(f, dtype=np.float64)
        act = np.asarray(activity, dtype=np.float64)
        if np.any(f < 0):
            raise SpecError("frequency must be >= 0")
        if np.any((act < 0) | (act > 1)):
            raise SpecError("activity must lie in [0, 1]")
        rel = f / self._node.socket.f_nominal
        dyn = spec.p_dyn_w * np.power(rel, spec.dyn_exponent) * act
        out = spec.p_leak_w + dyn
        return float(out) if out.ndim == 0 else out

    def pkg_power(self, n_active: int, f, activity=1.0):
        """Package power (Eq. 7) with *n_active* cores at frequency *f*.

        All active cores are assumed to share one frequency, matching
        how caps are resolved (socket-uniform throttling).
        """
        socket = self._node.socket
        if not 0 <= n_active <= socket.n_cores:
            raise SpecError(
                f"n_active {n_active} outside [0, {socket.n_cores}]"
            )
        base = socket.p_base_w
        out = (base + n_active * np.asarray(self.core_power(f, activity))) * self._efficiency
        out = np.asarray(out)
        return float(out) if out.ndim == 0 else out
