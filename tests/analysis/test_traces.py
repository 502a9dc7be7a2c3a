"""Tests for trace export and run audits."""

import pytest

from repro.analysis.traces import (
    audit_cap_violations,
    cluster_trace_csv,
    samples_to_csv,
    summarize_run,
)
from repro.hw.cluster import SimulatedCluster
from repro.hw.specs import mixed_gpu_testbed
from repro.sim.engine import ExecutionConfig, ExecutionEngine
from repro.workloads.apps import get_app


@pytest.fixture()
def run(engine):
    return engine.run(
        get_app("comd"),
        ExecutionConfig(
            n_nodes=2, n_threads=24, pkg_cap_w=150.0, dram_cap_w=25.0, iterations=3
        ),
    )


class TestCsv:
    def test_samples_csv_shape(self, engine, run):
        csv = samples_to_csv(engine.cluster.node(0).meter.samples())
        lines = csv.strip().splitlines()
        assert lines[0] == "t_s,pkg_w,dram_w,other_w,total_w"
        assert len(lines) > 1
        assert all(len(line.split(",")) == 5 for line in lines[1:])

    def test_cluster_csv_covers_participants(self, engine, run):
        csv = cluster_trace_csv(engine.cluster)
        node_ids = {line.split(",")[0] for line in csv.strip().splitlines()[1:]}
        assert node_ids == {"0", "1"}

    def test_empty_meter_header_only(self, engine):
        csv = samples_to_csv(engine.cluster.node(5).meter.samples())
        assert csv.strip().splitlines() == ["t_s,pkg_w,dram_w,other_w,total_w"]


class TestAudit:
    def test_clean_run_has_no_violations(self, run):
        assert audit_cap_violations(run) == []

    def test_starved_cap_is_flagged(self, engine):
        result = engine.run(
            get_app("comd"),
            ExecutionConfig(
                n_nodes=1, n_threads=24, pkg_cap_w=40.0, dram_cap_w=25.0,
                iterations=2,
            ),
        )
        violations = audit_cap_violations(result)
        assert len(violations) == 1
        assert violations[0].domain == "pkg"
        assert violations[0].steady_power_w > 40.0

    @pytest.mark.parametrize("app_name", ["comd", "minife-gpu"])
    def test_gpu_breach_is_flagged(self, app_name):
        """A device cap under the board floor is a violation too: the
        idle boards of a host-only app and the busy boards of an
        offloading one both run above 10 W."""
        engine = ExecutionEngine(SimulatedCluster(mixed_gpu_testbed()), seed=42)
        result = engine.evaluate(
            get_app(app_name),
            ExecutionConfig(n_nodes=8, n_threads=12, gpu_cap_w=10.0, iterations=2),
        )
        breached = [
            rec for rec in result.nodes if rec.operating_point.gpu_cap_violated
        ]
        gpu = [v for v in audit_cap_violations(result) if v.domain == "gpu"]
        assert [rec.node_id for rec in breached] == [0, 1, 2, 3]  # device slots
        assert [v.node_id for v in gpu] == [0, 1, 2, 3]
        assert [v.steady_power_w for v in gpu] == [
            rec.operating_point.gpu_power_w for rec in breached
        ]
        assert all(v.steady_power_w > 10.0 for v in gpu)


class TestSummary:
    def test_summary_fields(self, run):
        s = summarize_run(run)
        assert s["app"] == "comd"
        assert s["n_nodes"] == 2
        assert s["performance"] == pytest.approx(run.performance)
        assert s["energy_j"] == pytest.approx(run.energy_j)
        assert s["cap_violations"] == 0
        assert s["min_frequency_ghz"] <= s["max_frequency_ghz"]

    def test_duty_cycling_flagged(self, engine):
        result = engine.run(
            get_app("comd"),
            ExecutionConfig(
                n_nodes=1, n_threads=24, pkg_cap_w=65.0, dram_cap_w=20.0,
                iterations=2,
            ),
        )
        assert summarize_run(result)["any_duty_cycling"] is True


class TestThermalAssessment:
    def test_normal_run_sustainable(self, run):
        from repro.analysis.traces import assess_thermals

        for a in assess_thermals(run):
            assert a.sustainable
            assert a.time_to_throttle_s is None
            assert a.steady_state_c < 100.0

    def test_degraded_cooling_flags_unsustainable(self, engine, run):
        from repro.analysis.traces import assess_thermals
        from repro.hw.thermal import ThermalSpec

        hot = ThermalSpec(r_c_per_w=1.4, t_ambient_c=35.0)
        assessments = assess_thermals(run, spec=hot)
        assert any(not a.sustainable for a in assessments)
        for a in assessments:
            if not a.sustainable:
                assert a.time_to_throttle_s is not None
                assert a.time_to_throttle_s > 0
