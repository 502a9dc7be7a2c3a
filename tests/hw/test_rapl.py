"""Unit tests for the RAPL registers and the caps they hold.

Caps are resolved by the simulator; ``TestResolve`` checks them on one
node through ``ExecutionEngine.evaluate``, and the rest of what caps do
to a running workload is tested in ``tests/sim/test_engine.py``.
"""

import functools

import pytest
from hypothesis import given, settings, strategies as st

from repro.hw.power import PowerModel
from repro.hw.rapl import (
    ENERGY_UNIT_J,
    ENERGY_WRAP,
    Domain,
    OperatingPoint,
    RaplDomain,
    RaplInterface,
)
from repro.hw.cluster import SimulatedCluster
from repro.hw.specs import haswell_node, haswell_testbed
from repro.sim.engine import ExecutionConfig, ExecutionEngine
from repro.workloads.apps import all_apps, get_app

NODE = haswell_node()
_APPS = sorted(a.name for a in all_apps())


@pytest.fixture()
def rapl():
    return RaplInterface(PowerModel(NODE))


class TestRaplDomain:
    def test_cap_defaults_to_none(self):
        reg = RaplDomain(Domain.PKG, 240.0)
        assert reg.cap_w is None
        assert reg.effective_cap_w == pytest.approx(240.0)

    def test_cap_clipped_to_domain_max(self):
        reg = RaplDomain(Domain.PKG, 240.0)
        reg.set_cap(500.0)
        assert reg.effective_cap_w == pytest.approx(240.0)

    def test_energy_accumulates(self):
        reg = RaplDomain(Domain.PKG, 240.0)
        reg.accumulate(100.0, 2.0)
        assert reg.energy_j == pytest.approx(200.0)

    def test_register_wraps(self):
        reg = RaplDomain(Domain.PKG, 240.0)
        # enough energy to wrap the 32-bit register at least once
        joules = ENERGY_WRAP * ENERGY_UNIT_J * 1.25
        reg.accumulate(joules, 1.0)
        assert reg.read_energy_register() < ENERGY_WRAP
        assert reg.energy_j == pytest.approx(joules)

    def test_register_monotone_between_wraps(self):
        reg = RaplDomain(Domain.DRAM, 56.0)
        prev = reg.read_energy_register()
        for _ in range(5):
            reg.accumulate(20.0, 0.5)
            cur = reg.read_energy_register()
            assert cur > prev
            prev = cur

    def test_clear_cap(self):
        reg = RaplDomain(Domain.PKG, 240.0)
        reg.set_cap(100.0)
        reg.set_cap(None)
        assert reg.cap_w is None


class TestRaplInterface:
    def test_clear_caps(self, rapl):
        rapl.set_cap(Domain.PKG, 100.0)
        rapl.set_cap(Domain.DRAM, 20.0)
        rapl.clear_caps()
        assert all(v is None for v in rapl.caps().values())


@functools.lru_cache(maxsize=None)
def _engine() -> ExecutionEngine:
    # evaluate() touches no hardware state, so examples share one engine
    return ExecutionEngine(SimulatedCluster(haswell_testbed()), seed=0)


def _resolve(app, n_threads, **caps):
    cfg = ExecutionConfig(n_nodes=1, n_threads=n_threads, **caps)
    return _engine().evaluate(get_app(app), cfg).nodes[0].operating_point


class TestResolve:
    @settings(max_examples=60, deadline=None)
    @given(
        cap=st.floats(min_value=40.0, max_value=260.0),
        app=st.sampled_from(_APPS),
        n_threads=st.integers(min_value=1, max_value=24),
    )
    def test_cap_respected_unless_flagged(self, cap, app, n_threads):
        op = _resolve(app, n_threads, pkg_cap_w=cap)
        if not op.cpu_cap_violated:
            assert op.pkg_power_w <= cap * (1 + 1e-6)

    @settings(max_examples=40, deadline=None)
    @given(
        cap=st.floats(min_value=9.0, max_value=40.0),
        app=st.sampled_from(_APPS),
        n_threads=st.integers(min_value=1, max_value=24),
    )
    def test_dram_cap_respected_unless_flagged(self, cap, app, n_threads):
        op = _resolve(app, n_threads, dram_cap_w=cap)
        if not op.mem_cap_violated:
            assert op.dram_power_w <= cap * (1 + 1e-6)


class TestEnergyAccounting:
    def test_accumulate_integrates_operating_point(self, rapl):
        op = OperatingPoint(
            frequency_hz=2.0e9,
            bandwidth_per_socket=(3e10, 3e10),
            pkg_power_w=180.0,
            dram_power_w=22.5,
            cpu_throttled=False,
            mem_throttled=False,
        )
        rapl.accumulate(op.pkg_power_w, op.dram_power_w, op.gpu_power_w, 10.0)
        assert rapl.energy_j(Domain.PKG) == pytest.approx(op.pkg_power_w * 10.0)
        assert rapl.energy_j(Domain.DRAM) == pytest.approx(op.dram_power_w * 10.0)
