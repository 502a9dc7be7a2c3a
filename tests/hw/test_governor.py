"""Tests for the time-stepped RAPL governor."""

import numpy as np
import pytest

from repro.errors import PowerDomainError
from repro.hw.dvfs import FrequencyLadder
from repro.hw.governor import RaplGovernor
from repro.hw.power import PowerModel
from repro.hw.rapl import Domain, RaplInterface
from repro.hw.specs import haswell_node


@pytest.fixture()
def rapl():
    return RaplInterface(PowerModel(haswell_node()))


def make_governor(rapl, **kw):
    return RaplGovernor(rapl, **kw)


class TestControlLaw:
    def test_settles_at_steady_state_frequency(self, rapl):
        rapl.set_cap(Domain.PKG, 150.0)
        gov = make_governor(rapl)
        settled = gov.settled_frequency([12, 12], 0.9)
        # the analytic steady state: the highest P-state whose package
        # power fits the cap
        model = rapl.model
        ladder = FrequencyLadder.from_socket(model.node.socket)
        steady = max(
            f
            for f in ladder.frequencies
            if sum(model.pkg_power(n, f, 0.9) for n in (12, 12)) <= 150.0
        )
        # the dynamic loop oscillates at most one P-state around it
        assert settled in (
            steady, ladder.step_up(steady), ladder.step_down(steady)
        )

    def test_window_average_complies_after_settling(self, rapl):
        rapl.set_cap(Domain.PKG, 150.0)
        gov = make_governor(rapl)
        samples = gov.run(300, [12, 12], 0.9)
        tail = samples[-50:]
        avg = np.mean([s.power_w for s in tail])
        assert avg <= 150.0 * 1.02

    def test_transient_overshoot_allowed_then_averaged_out(self, rapl):
        rapl.set_cap(Domain.PKG, 130.0)
        gov = make_governor(rapl)
        samples = gov.run(200, [12, 12], 1.0)
        # the first interval starts at turbo: instantaneous power is
        # legally above the limit...
        assert samples[0].over_limit
        # ...then the controller settles into a dither between the two
        # adjacent P-states whose *average* complies (real RAPL hits
        # non-quantized limits exactly this way)
        tail = samples[-40:]
        assert np.mean([s.window_avg_w for s in tail]) <= 130.0 * 1.01
        assert np.mean([s.over_limit for s in tail]) < 0.6

    def test_uncapped_stays_at_demand(self, rapl):
        gov = make_governor(rapl)
        samples = gov.run(50, [2, 2], 0.5, demanded_frequency_hz=2.0e9)
        assert samples[-1].frequency_hz == pytest.approx(2.0e9)

    def test_recovers_after_load_drop(self, rapl):
        rapl.set_cap(Domain.PKG, 150.0)
        gov = make_governor(rapl)
        gov.run(200, [12, 12], 1.0)  # heavy phase: throttled
        f_heavy = gov.frequency_hz
        gov.run(200, [2, 2], 0.5)  # light phase: headroom returns
        assert gov.frequency_hz > f_heavy

    def test_monotone_settle_in_cap(self, rapl):
        freqs = []
        for cap in (110.0, 150.0, 200.0):
            rapl.set_cap(Domain.PKG, cap)
            gov = make_governor(rapl)
            freqs.append(gov.settled_frequency([12, 12], 0.9))
        assert freqs == sorted(freqs)


class TestMechanics:
    def test_reset(self, rapl):
        gov = make_governor(rapl)
        gov.run(20, [12, 12], 1.0)
        gov.reset(frequency_hz=1.5e9)
        assert gov.frequency_hz == pytest.approx(1.5e9)

    def test_time_advances_per_interval(self, rapl):
        gov = make_governor(rapl, interval_s=0.1)
        samples = gov.run(5, [2, 2], 0.5)
        assert samples[-1].t_s == pytest.approx(0.4)

    def test_rejects_interval_above_window(self, rapl):
        with pytest.raises(PowerDomainError):
            make_governor(rapl, window_s=0.1, interval_s=0.5)

    def test_rejects_bad_window(self, rapl):
        with pytest.raises(ValueError):
            make_governor(rapl, window_s=0.0)
