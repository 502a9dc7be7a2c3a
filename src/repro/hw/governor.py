"""Time-stepped RAPL governor (running-average power limiting).

The simulator (:class:`~repro.sim.batch.BatchEvaluator`) jumps straight
to the steady state a cap settles at.  Real RAPL gets there
*dynamically*: the hardware enforces the limit on a **running average**
over a configurable time window (PL1/tau in the MSR), stepping the
P-state down while the window average exceeds the limit and back up
when headroom appears.  Transient excursions above the limit are legal
as long as the average complies.

:class:`RaplGovernor` reproduces those dynamics so settling time,
transient overshoot, and cap-tracking under phase changes can be
studied — and so the meter can record realistic saw-tooth traces.  It
settles within one P-state of the highest ladder frequency whose
package power fits the cap (checked in ``tests/hw/test_governor.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import PowerDomainError
from repro.hw.dvfs import FrequencyLadder
from repro.hw.rapl import Domain, RaplInterface
from repro.units import check_positive

__all__ = ["GovernorSample", "RaplGovernor"]

#: Step the P-state up only when the window average sits below this
#: fraction of the limit (hysteresis against oscillation).
RAISE_HEADROOM = 0.97


@dataclass(frozen=True)
class GovernorSample:
    """One governor interval."""

    t_s: float
    frequency_hz: float
    power_w: float
    window_avg_w: float
    limit_w: float

    @property
    def over_limit(self) -> bool:
        """Whether the instantaneous power exceeded the limit."""
        return self.power_w > self.limit_w * (1 + 1e-9)


class RaplGovernor:
    """Moving-average PKG-limit controller for one node."""

    def __init__(
        self,
        rapl: RaplInterface,
        window_s: float = 1.0,
        interval_s: float = 0.05,
    ):
        check_positive(window_s, "window_s")
        check_positive(interval_s, "interval_s")
        if interval_s > window_s:
            raise PowerDomainError("interval must not exceed the window")
        self._rapl = rapl
        self._ladder = FrequencyLadder.from_socket(rapl.model.node.socket)
        self._window_n = max(int(round(window_s / interval_s)), 1)
        self._interval = interval_s
        self._f = self._ladder.f_max
        self._history: list[float] = []
        self._t = 0.0

    @property
    def frequency_hz(self) -> float:
        """Current P-state."""
        return self._f

    def reset(self, frequency_hz: float | None = None) -> None:
        """Clear history; optionally re-pin the starting P-state."""
        self._history.clear()
        self._t = 0.0
        self._f = (
            self._ladder.quantize_down(frequency_hz)
            if frequency_hz is not None
            else self._ladder.f_max
        )

    def step(
        self,
        active_per_socket,
        activity: float,
        demanded_frequency_hz: float | None = None,
    ) -> GovernorSample:
        """Advance one interval and apply the control law.

        Returns the interval's sample *before* the control action, i.e.
        the power actually drawn during the interval — the quantity the
        window averages.
        """
        model = self._rapl.model
        limit = self._rapl.domain(Domain.PKG).effective_cap_w
        f_demand = (
            self._ladder.quantize_down(demanded_frequency_hz)
            if demanded_frequency_hz is not None
            else self._ladder.f_max
        )
        f = min(self._f, f_demand)
        power = float(
            sum(model.pkg_power(int(n), f, activity) for n in active_per_socket)
        )
        self._history.append(power)
        if len(self._history) > self._window_n:
            self._history.pop(0)
        avg = float(np.mean(self._history))
        sample = GovernorSample(
            t_s=self._t,
            frequency_hz=f,
            power_w=power,
            window_avg_w=avg,
            limit_w=limit,
        )
        self._t += self._interval

        # control law: instantaneous overshoot steps down immediately;
        # the average recovering with headroom steps back up
        if power > limit * (1 + 1e-9):
            self._f = self._ladder.step_down(f)
        elif avg < limit * RAISE_HEADROOM and f < f_demand:
            self._f = self._ladder.step_up(f)
        return sample

    def run(
        self,
        n_steps: int,
        active_per_socket,
        activity: float,
        demanded_frequency_hz: float | None = None,
    ) -> list[GovernorSample]:
        """Advance *n_steps* intervals under a constant load phase."""
        return [
            self.step(active_per_socket, activity, demanded_frequency_hz)
            for _ in range(n_steps)
        ]

    def settled_frequency(
        self,
        active_per_socket,
        activity: float,
        n_steps: int = 200,
    ) -> float:
        """Frequency the control loop settles at for a constant load."""
        samples = self.run(n_steps, active_per_socket, activity)
        tail = samples[-10:]
        return float(np.median([s.frequency_hz for s in tail]))
