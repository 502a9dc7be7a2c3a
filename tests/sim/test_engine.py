"""Unit, integration, and property tests for the execution engine."""

import functools
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import SchedulingError
from repro.hw.cluster import SimulatedCluster
from repro.hw.numa import AffinityKind
from repro.hw.rapl import MIN_DUTY_CYCLE
from repro.hw.specs import haswell_testbed, mixed_gpu_testbed, mixed_testbed
from repro.sim.engine import ExecutionConfig, ExecutionEngine
from repro.workloads.apps import GPU_APPS, all_apps, get_app


@pytest.fixture()
def comd():
    return get_app("comd")


@pytest.fixture()
def spmz():
    return get_app("sp-mz.C")


class TestConfigValidation:
    def test_rejects_zero_nodes(self):
        with pytest.raises(SchedulingError):
            ExecutionConfig(n_nodes=0, n_threads=4)

    def test_rejects_zero_threads(self):
        with pytest.raises(SchedulingError):
            ExecutionConfig(n_nodes=1, n_threads=0)

    def test_rejects_mismatched_per_node_caps(self):
        with pytest.raises(SchedulingError):
            ExecutionConfig(n_nodes=2, n_threads=4, per_node_caps=((100.0, 20.0),))

    def test_rejects_mismatched_node_ids(self):
        with pytest.raises(SchedulingError):
            ExecutionConfig(n_nodes=2, n_threads=4, node_ids=(0,))

    def test_caps_for_uniform(self):
        cfg = ExecutionConfig(n_nodes=2, n_threads=4, pkg_cap_w=100.0, dram_cap_w=20.0)
        assert cfg.caps_for(0) == (100.0, 20.0)
        assert cfg.caps_for(1) == (100.0, 20.0)
        assert cfg.node_budget_w == pytest.approx(120.0)

    def test_caps_for_per_node(self):
        cfg = ExecutionConfig(
            n_nodes=2, n_threads=4, per_node_caps=((100.0, 20.0), (110.0, 25.0))
        )
        assert cfg.caps_for(1) == (110.0, 25.0)


class TestRunBasics:
    def test_result_shape(self, engine, comd):
        r = engine.run(comd, ExecutionConfig(n_nodes=4, n_threads=12, iterations=5))
        assert r.n_nodes == 4
        assert len(r.nodes) == 4
        assert r.iterations == 5
        assert r.total_time_s == pytest.approx(5 * r.t_step_s)
        assert r.performance == pytest.approx(5 / r.total_time_s)

    def test_record_built_result_has_the_same_columns(self, engine, comd):
        r = engine.run(comd, ExecutionConfig(n_nodes=3, n_threads=12, iterations=2))
        rebuilt = replace(r)  # passes the records back through ``nodes``
        assert rebuilt == r
        assert rebuilt.nodes == r.nodes
        assert rebuilt.columns.records() == r.nodes
        assert rebuilt.columns.avg_pkg_w == r.columns.avg_pkg_w

    def test_rejects_too_many_nodes(self, engine, comd):
        with pytest.raises(SchedulingError):
            engine.run(comd, ExecutionConfig(n_nodes=9, n_threads=4))

    def test_rejects_too_many_threads(self, engine, comd):
        with pytest.raises(SchedulingError):
            engine.run(comd, ExecutionConfig(n_nodes=1, n_threads=25))

    def test_deterministic(self, comd):
        r1 = ExecutionEngine(SimulatedCluster.testbed(), seed=1).run(
            comd, ExecutionConfig(n_nodes=4, n_threads=12, iterations=3)
        )
        r2 = ExecutionEngine(SimulatedCluster.testbed(), seed=1).run(
            comd, ExecutionConfig(n_nodes=4, n_threads=12, iterations=3)
        )
        assert r1.total_time_s == r2.total_time_s
        assert r1.nodes[0].events.event1 == r2.nodes[0].events.event1

    def test_node_selection(self, engine, comd):
        r = engine.run(
            comd,
            ExecutionConfig(n_nodes=2, n_threads=12, node_ids=(5, 7), iterations=2),
        )
        assert [n.node_id for n in r.nodes] == [5, 7]

    def test_affinity_override(self, engine, comd):
        r = engine.run(
            comd,
            ExecutionConfig(
                n_nodes=1, n_threads=8, affinity=AffinityKind.COMPACT, iterations=2
            ),
        )
        assert r.affinity == "compact"


class TestPowerBehaviour:
    def test_caps_respected(self, engine, spmz):
        r = engine.run(
            spmz,
            ExecutionConfig(
                n_nodes=4, n_threads=24, pkg_cap_w=150.0, dram_cap_w=25.0, iterations=2
            ),
        )
        for rec in r.nodes:
            op = rec.operating_point
            if not op.cpu_cap_violated:
                assert op.pkg_power_w <= 150.0 * (1 + 1e-6)
            if not op.mem_cap_violated:
                assert op.dram_power_w <= 25.0 * (1 + 1e-6)

    def test_tighter_cap_never_faster(self, engine, comd):
        free = engine.run(
            comd, ExecutionConfig(n_nodes=4, n_threads=24, iterations=2)
        )
        capped = engine.run(
            comd,
            ExecutionConfig(
                n_nodes=4, n_threads=24, pkg_cap_w=120.0, dram_cap_w=20.0, iterations=2
            ),
        )
        assert capped.performance <= free.performance * (1 + 1e-9)

    def test_duty_cycling_under_starved_cap(self, engine, comd):
        r = engine.run(
            comd,
            ExecutionConfig(
                n_nodes=1, n_threads=24, pkg_cap_w=65.0, dram_cap_w=20.0, iterations=2
            ),
        )
        op = r.nodes[0].operating_point
        assert op.duty_cycle < 1.0
        assert op.effective_frequency_hz < engine.cluster.spec.node.socket.f_min

    def test_energy_consistent_with_avg_power(self, engine, comd):
        r = engine.run(comd, ExecutionConfig(n_nodes=4, n_threads=12, iterations=3))
        assert r.energy_j == pytest.approx(r.avg_power_w * r.total_time_s)

    def test_rapl_counters_accumulate(self, engine, comd):
        r = engine.run(comd, ExecutionConfig(n_nodes=1, n_threads=12, iterations=3))
        node = engine.cluster.node(0)
        from repro.hw.rapl import Domain

        assert node.rapl.energy_j(Domain.PKG) > 0
        assert node.rapl.energy_j(Domain.DRAM) > 0

    def test_meter_records_run(self, engine, comd):
        r = engine.run(comd, ExecutionConfig(n_nodes=1, n_threads=12, iterations=3))
        meter = engine.cluster.node(0).meter
        assert meter.elapsed_s == pytest.approx(r.total_time_s)

    def test_per_node_caps_differentiate(self, engine, comd):
        r = engine.run(
            comd,
            ExecutionConfig(
                n_nodes=2,
                n_threads=24,
                per_node_caps=((110.0, 25.0), (190.0, 25.0)),
                iterations=2,
            ),
        )
        f0 = r.nodes[0].operating_point.frequency_hz
        f1 = r.nodes[1].operating_point.frequency_hz
        assert f1 > f0

    def test_idle_board_above_gpu_cap_is_flagged(self):
        # host-only work on device nodes: the boards idle at ~18 W, so
        # a 10 W GPU cap is breached and must say so
        engine = ExecutionEngine(SimulatedCluster(mixed_gpu_testbed()), seed=42)
        r = engine.evaluate(
            get_app("comd"),
            ExecutionConfig(
                n_nodes=4, n_threads=12, pkg_cap_w=150.0, dram_cap_w=25.0,
                gpu_cap_w=10.0,
            ),
        )
        for rec in r.nodes:
            op = rec.operating_point
            assert op.gpu_power_w > 10.0
            assert op.gpu_cap_violated and op.cap_violated
            assert not op.gpu_throttled


class TestCapResolution:
    """What one node's caps do to its operating point."""

    @staticmethod
    def _op(engine, app, n_threads=24, **kw):
        cfg = ExecutionConfig(n_nodes=1, n_threads=n_threads, **kw)
        return engine.evaluate(get_app(app), cfg).nodes[0].operating_point

    def test_light_uncapped_run_reaches_turbo(self, engine):
        op = self._op(engine, "comd", n_threads=2)
        assert op.frequency_hz == engine.cluster.spec.node.socket.f_max
        assert op.duty_cycle == 1.0
        assert not (op.cpu_throttled or op.mem_throttled)

    def test_factory_pl1_limits_allcore_turbo(self, engine):
        # 24 busy cores cannot all hold max turbo under the default PL1
        socket = engine.cluster.spec.node.socket
        op = self._op(engine, "comd")
        assert op.frequency_hz < socket.f_max
        assert op.cpu_throttled
        assert op.pkg_power_w <= 2 * socket.tdp_w * (1 + 1e-9)

    def test_dram_cap_lowers_bandwidth_ceiling(self, engine):
        free = self._op(engine, "stream")
        capped = self._op(engine, "stream", dram_cap_w=12.0)
        assert capped.bandwidth_per_socket[0] < free.bandwidth_per_socket[0]
        assert capped.dram_power_w <= 12.0 * (1 + 1e-9) < free.dram_power_w
        assert not capped.mem_cap_violated

    def test_dram_cap_not_binding(self, engine):
        free = self._op(engine, "comd")
        op = self._op(engine, "comd", dram_cap_w=36.0)
        assert not op.mem_throttled
        assert op.bandwidth_per_socket == free.bandwidth_per_socket

    def test_dram_cap_below_base_clamps(self, engine):
        op = self._op(engine, "stream", dram_cap_w=2.0)
        assert op.mem_cap_violated and op.mem_throttled and op.cap_violated
        assert op.dram_power_w > 2.0

    def test_pkg_cap_below_static_is_violated(self, engine):
        op = self._op(engine, "comd", pkg_cap_w=30.0)
        assert op.cpu_cap_violated and op.cap_violated
        assert op.frequency_hz == engine.cluster.spec.node.socket.f_min
        assert op.duty_cycle == MIN_DUTY_CYCLE
        assert op.pkg_power_w > 30.0

    def test_duty_cycle_honours_cap_between_floors(self, engine):
        # below what 24 cores draw at f_min, above static power
        op = self._op(engine, "comd", pkg_cap_w=70.0)
        assert MIN_DUTY_CYCLE < op.duty_cycle < 1.0
        assert not op.cpu_cap_violated
        assert op.pkg_power_w <= 70.0 * (1 + 1e-6)

    def test_frequency_pin_quantizes_down(self, engine):
        assert self._op(engine, "comd", frequency_hz=1.5e9).frequency_hz == 1.5e9
        assert self._op(engine, "comd", frequency_hz=1.55e9).frequency_hz == 1.5e9


_CAP_FLEETS = {
    "haswell": haswell_testbed,
    "mixed": mixed_testbed,
    "mixed-gpu": mixed_gpu_testbed,
}
_CAP_APPS = sorted(a.name for a in all_apps() + GPU_APPS)


@functools.lru_cache(maxsize=None)
def _fleet_engine(fleet: str) -> ExecutionEngine:
    # evaluate() touches no hardware state, so examples share engines
    return ExecutionEngine(SimulatedCluster(_CAP_FLEETS[fleet]()), seed=0)


class TestCapsHoldUnlessFlagged:
    @settings(max_examples=60, deadline=None)
    @example(
        fleet="mixed-gpu", app="comd", n_nodes=4, n_threads=12,
        pkg=150.0, dram=25.0, gpu=10.0,
    )
    @given(
        fleet=st.sampled_from(sorted(_CAP_FLEETS)),
        app=st.sampled_from(_CAP_APPS),
        n_nodes=st.integers(min_value=1, max_value=8),
        n_threads=st.integers(min_value=1, max_value=24),
        pkg=st.floats(min_value=20.0, max_value=300.0),
        dram=st.floats(min_value=1.0, max_value=60.0),
        gpu=st.floats(min_value=5.0, max_value=300.0),
    )
    def test_every_domain_within_its_cap_unless_flagged(
        self, fleet, app, n_nodes, n_threads, pkg, dram, gpu
    ):
        cfg = ExecutionConfig(
            n_nodes=n_nodes, n_threads=n_threads,
            pkg_cap_w=pkg, dram_cap_w=dram, gpu_cap_w=gpu,
        )
        tol = 1 + 1e-6
        for rec in _fleet_engine(fleet).evaluate(get_app(app), cfg).nodes:
            op = rec.operating_point
            assert op.cpu_cap_violated or op.pkg_power_w <= pkg * tol
            assert op.mem_cap_violated or op.dram_power_w <= dram * tol
            assert op.gpu_cap_violated or op.gpu_power_w <= gpu * tol


class TestThrottleEvents:
    """``throttle_events`` counts one event per throttled domain per run."""

    def test_one_event_per_throttled_domain_per_run(self, engine, comd):
        from repro.hw.rapl import Domain

        rapl = engine.cluster.node(0).rapl
        pkg, dram = rapl.domain(Domain.PKG), rapl.domain(Domain.DRAM)
        # both caps below what the run needs (DRAM under its base power)
        starved = ExecutionConfig(
            n_nodes=1, n_threads=24, pkg_cap_w=65.0, dram_cap_w=5.0, iterations=2
        )
        op = engine.run(comd, starved).nodes[0].operating_point
        assert op.cpu_throttled and op.mem_throttled
        assert (pkg.throttle_events, dram.throttle_events) == (1, 1)
        engine.run(comd, starved)
        assert (pkg.throttle_events, dram.throttle_events) == (2, 2)
        # an unthrottled run and a side-effect-free evaluation add none
        free = ExecutionConfig(n_nodes=1, n_threads=2, iterations=2)
        assert not engine.run(comd, free).nodes[0].operating_point.cpu_throttled
        engine.evaluate(comd, starved)
        assert (pkg.throttle_events, dram.throttle_events) == (2, 2)

    def test_gpu_domain_counts_device_throttling(self):
        from repro.hw.rapl import Domain
        from repro.hw.specs import gpu_testbed

        engine = ExecutionEngine(SimulatedCluster(gpu_testbed()), seed=42)
        cfg = ExecutionConfig(n_nodes=2, n_threads=12, gpu_cap_w=60.0, iterations=2)
        result = engine.run(get_app("minife-gpu"), cfg)
        for rec in result.nodes:
            assert rec.operating_point.gpu_throttled
            gpu = engine.cluster.node(rec.node_id).rapl.domain(Domain.GPU)
            assert gpu.throttle_events == 1


class TestRunUnderEnforcedCaps:
    """``run`` solves under the caps the registers enforce and does
    every hardware side effect on every call."""

    #: Both caps bind: every run throttles PKG and DRAM.
    STARVED = ExecutionConfig(
        n_nodes=2, n_threads=24, pkg_cap_w=65.0, dram_cap_w=5.0, iterations=2
    )

    def test_repeat_run_writes_caps_and_accounts(self, engine, comd):
        from repro.hw.rapl import Domain

        first = engine.run(comd, self.STARVED)
        node = engine.cluster.node(1)
        rapl = node.rapl
        pkg, dram = rapl.domain(Domain.PKG), rapl.domain(Domain.DRAM)
        energy = (pkg.energy_j, dram.energy_j)
        meter_j = node.meter.energy_j
        writes = rapl.actuation_stats["writes"]
        rapl.clear_caps()
        assert engine.run(comd, self.STARVED) == first
        assert rapl.snapshot_caps()["pkg"] == (65.0, 65.0)
        assert rapl.snapshot_caps()["dram"] == (5.0, 5.0)
        assert rapl.actuation_stats["writes"] == 2 * writes
        assert (pkg.energy_j, dram.energy_j) == (2 * energy[0], 2 * energy[1])
        assert (pkg.throttle_events, dram.throttle_events) == (2, 2)
        assert node.meter.energy_j == 2 * meter_j
        assert node.meter.elapsed_s == 2 * first.total_time_s

    def test_drifted_write_runs_under_enforced_caps(self, engine, comd):
        from repro.hw.actuation import FaultyActuation

        first = engine.run(comd, self.STARVED)
        node = engine.cluster.node(0)
        node.rapl.actuation = FaultyActuation(drift_prob=1.0, drift_frac=0.1)
        drifted = engine.run(comd, self.STARVED)
        assert node.rapl.enforced_caps()[0] == pytest.approx(65.0 * 1.1)
        enforced = tuple(
            engine.cluster.node(i).rapl.enforced_caps() for i in (0, 1)
        )
        assert drifted == engine.evaluate(
            comd, replace(self.STARVED, per_node_caps=enforced)
        )
        assert drifted.nodes[0] != first.nodes[0]

    def test_partial_write_runs_under_enforced_caps(self, engine, comd):
        from repro.hw.actuation import FaultyActuation

        engine.run(comd, replace(self.STARVED, pkg_cap_w=150.0))
        first = engine.evaluate(comd, self.STARVED)
        node = engine.cluster.node(0)
        node.rapl.actuation = FaultyActuation(partial_prob=1.0)
        partial = engine.run(comd, self.STARVED)  # lands halfway, at 107.5 W
        assert node.rapl.enforced_caps()[0] == pytest.approx(107.5)
        assert partial == engine.evaluate(
            comd, replace(self.STARVED, per_node_caps=((107.5, 5.0), (65.0, 5.0)))
        )
        assert partial.nodes[0] != first.nodes[0]


class TestClusterSemantics:
    def test_slowest_node_paces_step(self, engine, comd):
        r = engine.run(comd, ExecutionConfig(n_nodes=8, n_threads=24, iterations=2))
        assert r.t_step_s == pytest.approx(
            max(n.t_iter_s for n in r.nodes) + r.comm_s
        )

    def test_variability_creates_imbalance_under_cap(self, engine, comd):
        r = engine.run(
            comd,
            ExecutionConfig(
                n_nodes=8, n_threads=24, pkg_cap_w=130.0, dram_cap_w=20.0, iterations=2
            ),
        )
        assert r.imbalance > 1.0

    def test_more_nodes_faster_for_scalable_app(self, engine, comd):
        r2 = engine.run(comd, ExecutionConfig(n_nodes=2, n_threads=24, iterations=2))
        r8 = engine.run(comd, ExecutionConfig(n_nodes=8, n_threads=24, iterations=2))
        assert r8.performance > r2.performance

    def test_comm_cost_included(self, engine):
        halo = get_app("bt-mz.C")
        r = engine.run(halo, ExecutionConfig(n_nodes=8, n_threads=12, iterations=2))
        assert r.comm_s > 0

    def test_phase_thread_override_slows(self, engine):
        bt = get_app("bt-mz.C")
        base = engine.run(bt, ExecutionConfig(n_nodes=1, n_threads=24, iterations=2))
        forced = engine.run(
            bt,
            ExecutionConfig(
                n_nodes=1, n_threads=24, iterations=2,
                phase_threads={"solve": 4},
            ),
        )
        assert forced.performance < base.performance

    def test_summary_is_readable(self, engine, comd):
        r = engine.run(comd, ExecutionConfig(n_nodes=2, n_threads=12, iterations=2))
        s = r.summary()
        assert "comd" in s and "2 nodes" in s


class TestFixedPointRobustness:
    @settings(max_examples=25, deadline=None)
    @given(
        n_threads=st.integers(min_value=1, max_value=24),
        pkg=st.floats(min_value=60.0, max_value=260.0),
        dram=st.floats(min_value=10.0, max_value=36.0),
        app_name=st.sampled_from(["comd", "sp-mz.C", "stream", "bt-mz.C"]),
    )
    def test_any_config_converges(self, n_threads, pkg, dram, app_name):
        engine = ExecutionEngine(SimulatedCluster.testbed(), seed=0)
        r = engine.run(
            get_app(app_name),
            ExecutionConfig(
                n_nodes=2, n_threads=n_threads,
                pkg_cap_w=pkg, dram_cap_w=dram, iterations=1,
            ),
        )
        assert r.total_time_s > 0
        assert r.avg_power_w > 0
        assert r.peak_power_w >= 0


class TestWeakScaling:
    def test_weak_keeps_full_domain_per_node(self, engine, comd):
        one = engine.run(
            comd, ExecutionConfig(n_nodes=1, n_threads=24, iterations=2)
        )
        weak8 = engine.run(
            comd,
            ExecutionConfig(n_nodes=8, n_threads=24, iterations=2, scaling="weak"),
        )
        # per-node work identical: instructions per node match 1-node run
        assert weak8.nodes[0].events.event6 == pytest.approx(
            one.nodes[0].events.event6, rel=0.05
        )

    def test_weak_efficiency_near_one_for_light_comm(self, engine, comd):
        one = engine.run(
            comd, ExecutionConfig(n_nodes=1, n_threads=24, iterations=2)
        )
        weak8 = engine.run(
            comd,
            ExecutionConfig(n_nodes=8, n_threads=24, iterations=2, scaling="weak"),
        )
        efficiency = one.t_step_s / weak8.t_step_s
        assert 0.9 <= efficiency <= 1.0 + 1e-9

    def test_weak_halo_volume_constant(self, engine):
        from repro.workloads.apps import get_app

        app = get_app("bt-mz.C")
        comm = engine.comm_model
        assert comm.halo_bytes(app, 8, "weak") == pytest.approx(
            comm.halo_bytes(app, 1, "weak")
        )
        assert comm.halo_bytes(app, 8, "strong") < comm.halo_bytes(app, 1, "strong")

    def test_strong_faster_than_weak_per_step(self, engine, comd):
        strong = engine.run(
            comd, ExecutionConfig(n_nodes=8, n_threads=24, iterations=2)
        )
        weak = engine.run(
            comd,
            ExecutionConfig(n_nodes=8, n_threads=24, iterations=2, scaling="weak"),
        )
        assert strong.t_step_s < weak.t_step_s

    def test_unknown_scaling_rejected(self):
        with pytest.raises(SchedulingError):
            ExecutionConfig(n_nodes=1, n_threads=2, scaling="diagonal")

    def test_unknown_scaling_rejected_by_comm(self, engine, comd):
        from repro.errors import WorkloadError

        with pytest.raises(WorkloadError):
            engine.comm_model.halo_bytes(comd, 4, "diagonal")
