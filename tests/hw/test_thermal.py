"""Tests for the package thermal model."""

import pytest

from repro.errors import SpecError
from repro.hw.thermal import ThermalModel, ThermalSpec


class TestSpec:
    def test_defaults_sane(self):
        spec = ThermalSpec()
        # an uncapped 120 W package equilibrates below the junction
        # limit in a normal machine room
        assert spec.steady_state_c(120.0) < spec.t_junction_max_c
        assert spec.max_sustainable_power_w() > 120.0

    def test_tau(self):
        spec = ThermalSpec(r_c_per_w=0.5, c_j_per_c=100.0)
        assert spec.tau_s == pytest.approx(50.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ThermalSpec(r_c_per_w=0.0)
        with pytest.raises(SpecError):
            ThermalSpec(t_junction_max_c=20.0, t_ambient_c=28.0)
        with pytest.raises(SpecError):
            ThermalSpec(t_hysteresis_c=-1.0)


class TestDynamics:
    def test_starts_at_ambient(self):
        model = ThermalModel()
        assert model.temperature_c == pytest.approx(ThermalSpec().t_ambient_c)

    def test_converges_to_steady_state(self):
        model = ThermalModel()
        spec = model.spec
        model.run(100.0, duration_s=10 * spec.tau_s, dt_s=5.0)
        assert model.temperature_c == pytest.approx(
            spec.steady_state_c(100.0), abs=0.1
        )

    def test_exact_solution_step_size_independent(self):
        a = ThermalModel()
        b = ThermalModel()
        a.run(150.0, duration_s=60.0, dt_s=1.0)
        b.run(150.0, duration_s=60.0, dt_s=15.0)
        assert a.temperature_c == pytest.approx(b.temperature_c, rel=1e-9)

    def test_monotone_warming_under_constant_power(self):
        model = ThermalModel()
        temps = [s.temperature_c for s in model.run(150.0, 120.0, dt_s=2.0)]
        assert temps == sorted(temps)

    def test_cooling_after_load_drop(self):
        model = ThermalModel()
        model.run(150.0, 200.0)
        hot = model.temperature_c
        model.run(20.0, 200.0)
        assert model.temperature_c < hot

    def test_rejects_negative_power(self):
        with pytest.raises(SpecError):
            ThermalModel().step(-1.0, 1.0)


class TestThrottle:
    def _hot_spec(self):
        # a failing fan: resistance doubles, sustainable power halves
        return ThermalSpec(r_c_per_w=0.9)

    def test_unsustainable_power_throttles(self):
        model = ThermalModel(self._hot_spec())
        assert model.spec.max_sustainable_power_w() < 100.0
        samples = model.run(110.0, duration_s=2000.0, dt_s=5.0)
        assert any(s.throttled for s in samples)

    def test_sustainable_power_never_throttles(self):
        model = ThermalModel()
        samples = model.run(120.0, duration_s=5000.0, dt_s=10.0)
        assert not any(s.throttled for s in samples)

    def test_hysteresis_holds_throttle(self):
        spec = self._hot_spec()
        model = ThermalModel(spec)
        model.reset(temperature_c=spec.t_junction_max_c - 0.5)
        model.step(200.0, 10.0)  # unsustainable burst trips PROCHOT
        assert model.throttled
        model.step(0.0, 1.0)  # cools a little, still inside the band
        assert model.throttled
        model.step(0.0, 10 * spec.tau_s)  # cools far below: releases
        assert not model.throttled

    def test_time_to_throttle_analytic(self):
        spec = self._hot_spec()
        model = ThermalModel(spec)
        eta = model.time_to_throttle_s(120.0)
        assert eta is not None and eta > 0
        # integrate just short of eta: not yet throttled
        model.run(120.0, duration_s=eta * 0.95, dt_s=eta / 200)
        assert not model.throttled
        model.run(120.0, duration_s=eta * 0.1, dt_s=eta / 200)
        assert model.throttled

    def test_time_to_throttle_none_when_sustainable(self):
        model = ThermalModel()
        assert model.time_to_throttle_s(100.0) is None

    def test_time_to_throttle_zero_when_hot(self):
        spec = self._hot_spec()
        model = ThermalModel(spec)
        model.reset(temperature_c=spec.t_junction_max_c + 1.0)
        assert model.time_to_throttle_s(150.0) == 0.0
