"""Dynamic voltage and frequency scaling (DVFS).

:class:`FrequencyLadder` wraps a socket's discrete P-state table and
answers "what frequencies may I run at?": quantization onto the ladder
and its neighbouring P-states.  The simulator quantizes capped and
pinned frequencies with it, and the time-stepped
:class:`~repro.hw.governor.RaplGovernor` walks it one step at a time.
A frequency pin reaches a run through
:attr:`ExecutionConfig.frequency_hz <repro.sim.engine.ExecutionConfig>`.
"""

from __future__ import annotations

import bisect
from collections.abc import Sequence

from repro.errors import SpecError
from repro.hw.specs import SocketSpec

__all__ = ["FrequencyLadder"]


class FrequencyLadder:
    """An ascending table of permitted core frequencies (Hz)."""

    def __init__(self, frequencies: Sequence[float]):
        freqs = tuple(float(f) for f in frequencies)
        if not freqs:
            raise SpecError("frequency ladder must be non-empty")
        if any(f <= 0 for f in freqs):
            raise SpecError("frequencies must be positive")
        if tuple(sorted(freqs)) != freqs or len(set(freqs)) != len(freqs):
            raise SpecError("frequency ladder must be strictly ascending")
        self._freqs = freqs

    @classmethod
    def from_socket(cls, socket: SocketSpec) -> "FrequencyLadder":
        """Build the ladder declared by a socket specification."""
        return cls(socket.freq_ladder)

    @property
    def frequencies(self) -> tuple[float, ...]:
        """All permitted frequencies, ascending."""
        return self._freqs

    @property
    def f_min(self) -> float:
        """Lowest P-state."""
        return self._freqs[0]

    @property
    def f_max(self) -> float:
        """Highest P-state (turbo ceiling)."""
        return self._freqs[-1]

    def __len__(self) -> int:
        return len(self._freqs)

    def __contains__(self, f: float) -> bool:
        i = bisect.bisect_left(self._freqs, f)
        return i < len(self._freqs) and abs(self._freqs[i] - f) < 1e-3

    def quantize_down(self, f: float) -> float:
        """Largest ladder frequency <= *f* (clamped to ``f_min``)."""
        i = bisect.bisect_right(self._freqs, f + 1e-6)
        return self._freqs[max(0, i - 1)]

    def step_down(self, f: float) -> float:
        """One P-state below *f* (saturating at ``f_min``)."""
        i = bisect.bisect_left(self._freqs, f - 1e-6)
        return self._freqs[max(0, i - 1)]

    def step_up(self, f: float) -> float:
        """One P-state above *f* (saturating at ``f_max``)."""
        i = bisect.bisect_right(self._freqs, f + 1e-6)
        return self._freqs[min(len(self._freqs) - 1, i)]
