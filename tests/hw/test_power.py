"""Unit and property tests for the ground-truth power model."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import SpecError
from repro.hw.power import PowerModel
from repro.hw.specs import haswell_node
from repro.units import ghz

NODE = haswell_node()


@pytest.fixture()
def model():
    return PowerModel(NODE)


class TestCorePower:
    def test_idle_core_draws_leakage_only(self, model):
        assert model.core_power(0.0) == pytest.approx(NODE.socket.core.p_leak_w)

    def test_nominal_full_activity(self, model):
        expected = NODE.socket.core.p_leak_w + NODE.socket.core.p_dyn_w
        assert model.core_power(NODE.socket.f_nominal) == pytest.approx(expected)

    def test_activity_scales_dynamic_only(self, model):
        f = NODE.socket.f_nominal
        full = model.core_power(f, 1.0)
        half = model.core_power(f, 0.5)
        leak = NODE.socket.core.p_leak_w
        assert half - leak == pytest.approx((full - leak) / 2)

    def test_vectorized_over_frequency(self, model):
        freqs = np.array([ghz(1.2), ghz(2.3), ghz(3.1)])
        out = model.core_power(freqs)
        assert out.shape == (3,)
        assert np.all(np.diff(out) > 0)

    def test_rejects_bad_activity(self, model):
        with pytest.raises(SpecError):
            model.core_power(ghz(2.0), 1.5)

    @given(
        st.floats(min_value=1.2e9, max_value=3.1e9),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_core_power_bounded(self, f, act):
        model = PowerModel(NODE)
        p = model.core_power(f, act)
        core = NODE.socket.core
        assert core.p_leak_w <= p <= core.p_leak_w + core.p_dyn_w * (
            3.1 / 2.3
        ) ** core.dyn_exponent + 1e-9


class TestPkgPower:
    def test_monotone_in_cores(self, model):
        f = NODE.socket.f_nominal
        powers = [model.pkg_power(n, f) for n in range(13)]
        assert powers == sorted(powers)

    def test_monotone_in_frequency(self, model):
        powers = [model.pkg_power(12, ghz(g)) for g in (1.2, 1.8, 2.3, 3.1)]
        assert powers == sorted(powers)

    def test_zero_cores_is_base(self, model):
        assert model.pkg_power(0, ghz(2.3)) == pytest.approx(
            NODE.socket.p_base_w
        )

    def test_rejects_too_many_cores(self, model):
        with pytest.raises(SpecError):
            model.pkg_power(13, ghz(2.3))

    def test_efficiency_scales_pkg(self):
        hot = PowerModel(NODE, efficiency=1.1)
        cold = PowerModel(NODE, efficiency=1.0)
        assert hot.pkg_power(12, ghz(2.3)) == pytest.approx(
            1.1 * cold.pkg_power(12, ghz(2.3))
        )

    def test_rejects_nonpositive_efficiency(self):
        with pytest.raises(SpecError):
            PowerModel(NODE, efficiency=0.0)


class TestPowerBreakdownDomains:
    """Table-driven domain accounting on the per-node breakdown."""

    _w = st.floats(min_value=0.0, max_value=500.0, allow_nan=False)

    @given(pkg=_w, dram=_w, other=_w, gpu=st.one_of(st.none(), _w))
    def test_total_is_sum_of_present_domains(self, pkg, dram, other, gpu):
        from repro.hw.power import PowerBreakdown

        bd = PowerBreakdown(pkg_w=pkg, dram_w=dram, other_w=other, gpu_w=gpu)
        present = dict(bd.present_domains())
        assert bd.capped_w == pytest.approx(sum(present.values()))
        assert bd.total_w == pytest.approx(sum(present.values()) + other)
        if gpu is None:
            assert "gpu_w" not in present  # absent, not zero
        else:
            assert present["gpu_w"] == gpu

    @given(pkg=_w, dram=_w, other=_w, gpu=st.one_of(st.none(), _w),
           factor=st.floats(min_value=0.0, max_value=3.0))
    def test_scaled_preserves_domain_absence(self, pkg, dram, other, gpu, factor):
        from repro.hw.power import PowerBreakdown

        bd = PowerBreakdown(pkg_w=pkg, dram_w=dram, other_w=other, gpu_w=gpu)
        scaled = bd.scaled(factor)
        assert (scaled.gpu_w is None) == (gpu is None)
        assert scaled.other_w == other  # uncapped share never scales
        assert scaled.pkg_w == pytest.approx(pkg * factor)
        if gpu is not None:
            assert scaled.gpu_w == pytest.approx(gpu * factor)

    def test_capped_domain_table_covers_every_capped_field(self):
        from dataclasses import fields

        from repro.hw.power import PowerBreakdown

        names = {f.name for f in fields(PowerBreakdown)}
        table = set(PowerBreakdown.CAPPED_DOMAIN_FIELDS)
        assert table <= names
        assert names - table == {"other_w"}
