"""Cross-cutting property-based tests.

Invariants that hold across the whole stack for *arbitrary* valid
inputs — the hypothesis net under the example-based suites.  Shared
immutable state is module-cached because hypothesis forbids
function-scoped fixtures inside @given.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.coordination import coordinate_power
from repro.hw.cluster import SimulatedCluster
from repro.hw.numa import AffinityKind, NumaTopology
from repro.hw.specs import haswell_node
from repro.sim.affinity import make_placement
from repro.sim.engine import ExecutionConfig, ExecutionEngine
from repro.workloads.characteristics import WorkloadCharacteristics
from repro.workloads.model import (
    GroundTruthModel,
    true_inflection_point,
    true_scalability_class,
)

NODE = haswell_node()
TOPO = NumaTopology(NODE)
MODEL = GroundTruthModel(NODE)
FULL_BW = np.full(2, NODE.socket.memory.peak_bandwidth)

_ENGINE = None


def engine():
    global _ENGINE
    if _ENGINE is None:
        _ENGINE = ExecutionEngine(SimulatedCluster.testbed(), seed=5)
    return _ENGINE


def random_app(draw_bpi, draw_sync, draw_serial, draw_ipc):
    return WorkloadCharacteristics(
        name="prop-app",
        instructions_per_iter=5e10,
        bytes_per_instruction=draw_bpi,
        serial_fraction=draw_serial,
        sync_cost_s=draw_sync,
        ipc_fraction=draw_ipc,
        shared_fraction=0.2,
    )


app_strategy = st.builds(
    random_app,
    draw_bpi=st.floats(min_value=0.0, max_value=6.0),
    draw_sync=st.floats(min_value=0.0, max_value=0.05),
    draw_serial=st.floats(min_value=0.0, max_value=0.05),
    draw_ipc=st.floats(min_value=0.2, max_value=0.8),
)


class TestModelProperties:
    @settings(max_examples=60, deadline=None)
    @given(app=app_strategy)
    def test_class_and_np_are_consistent(self, app):
        cls = true_scalability_class(app, NODE)
        np_ = true_inflection_point(app, NODE)
        assert cls in ("linear", "logarithmic", "parabolic")
        assert 2 <= np_ <= NODE.n_cores
        # the ratio rule and the piecewise knee are *different*
        # instruments (a ratio-linear Amdahl app can still have an
        # interior curvature knee), so no cross-constraint beyond the
        # range checks above — that independence is itself the finding
        # the paper's two-step method (classify, then fit) relies on

    @settings(max_examples=40, deadline=None)
    @given(
        app=app_strategy,
        n=st.integers(min_value=1, max_value=23),
    )
    def test_time_decreases_or_saturates_in_threads_when_sync_free(self, app, n):
        if app.sync_cost_s > 0:
            return
        t1 = MODEL.phase_time(app, [min(n, 12), max(n - 12, 0)], 2.3e9, FULL_BW)
        t2 = MODEL.phase_time(
            app, [min(n + 1, 12), max(n + 1 - 12, 0)], 2.3e9, FULL_BW
        )
        # +1 thread never hurts a sync-free app beyond the odd penalty
        assert t2.t_iter_s <= t1.t_iter_s * 1.02

    @settings(max_examples=40, deadline=None)
    @given(
        app=app_strategy,
        f1=st.floats(min_value=1.2e9, max_value=3.0e9),
        df=st.floats(min_value=1e7, max_value=1e9),
    )
    def test_time_monotone_in_frequency(self, app, f1, df):
        t_lo = MODEL.phase_time(app, [6, 6], f1, FULL_BW)
        t_hi = MODEL.phase_time(app, [6, 6], f1 + df, FULL_BW)
        assert t_hi.t_iter_s <= t_lo.t_iter_s * (1 + 1e-9)

    @settings(max_examples=40, deadline=None)
    @given(app=app_strategy, shared=st.floats(min_value=0.0, max_value=1.0))
    def test_remote_traffic_never_speeds_memory(self, app, shared):
        local = MODEL.phase_time(app, [6, 6], 2.3e9, FULL_BW, 0.0)
        remote = MODEL.phase_time(app, [6, 6], 2.3e9, FULL_BW, shared * 0.5)
        assert remote.memory_s >= local.memory_s * (1 - 1e-12)


class TestPlacementProperties:
    @settings(max_examples=60)
    @given(
        n=st.integers(min_value=1, max_value=24),
        s1=st.floats(min_value=0.0, max_value=1.0),
        s2=st.floats(min_value=0.0, max_value=1.0),
        kind=st.sampled_from(list(AffinityKind)),
    )
    def test_remote_fraction_monotone_in_sharing(self, n, s1, s2, kind):
        lo, hi = sorted((s1, s2))
        p_lo = make_placement(TOPO, n, kind, lo)
        p_hi = make_placement(TOPO, n, kind, hi)
        assert p_lo.remote_fraction <= p_hi.remote_fraction + 1e-12

    @settings(max_examples=60)
    @given(n=st.integers(min_value=1, max_value=24))
    def test_compact_never_more_remote_than_scatter(self, n):
        compact = make_placement(TOPO, n, AffinityKind.COMPACT, 0.5)
        scatter = make_placement(TOPO, n, AffinityKind.SCATTER, 0.5)
        assert compact.remote_fraction <= scatter.remote_fraction + 1e-12


class TestCoordinationProperties:
    @settings(max_examples=50)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n=st.integers(min_value=2, max_value=8),
    )
    def test_permutation_equivariance(self, seed, n):
        rng = np.random.default_rng(seed)
        factors = np.clip(1 + 0.08 * rng.standard_normal(n), 0.85, 1.15)
        budgets = coordinate_power(200.0 * n, factors, lo_w=120.0, hi_w=280.0)
        perm = rng.permutation(n)
        permuted = coordinate_power(
            200.0 * n, factors[perm], lo_w=120.0, hi_w=280.0
        )
        np.testing.assert_allclose(permuted, budgets[perm], rtol=1e-9)

    @settings(max_examples=50)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n=st.integers(min_value=2, max_value=8),
    )
    def test_less_efficient_never_gets_less(self, seed, n):
        rng = np.random.default_rng(seed)
        factors = np.clip(1 + 0.08 * rng.standard_normal(n), 0.85, 1.15)
        budgets = coordinate_power(200.0 * n, factors, lo_w=120.0, hi_w=280.0)
        order = np.argsort(factors)
        sorted_budgets = budgets[order]
        assert np.all(np.diff(sorted_budgets) >= -1e-9)


class TestHeterogeneousCoordinationProperties:
    """Per-node [lo, hi] arrays — the mixed-cluster coordination form."""

    @staticmethod
    def _bounds(rng, n):
        # distinct per-node acceptable ranges, hi strictly above lo
        lo = rng.uniform(60.0, 160.0, n)
        hi = lo + rng.uniform(20.0, 160.0, n)
        return lo, hi

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n=st.integers(min_value=1, max_value=8),
        slack=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_respects_budget_and_per_node_bounds(self, seed, n, slack):
        rng = np.random.default_rng(seed)
        lo, hi = self._bounds(rng, n)
        factors = np.clip(1 + 0.08 * rng.standard_normal(n), 0.85, 1.15)
        # any budget from the summed floors to the summed ceilings
        total = float(lo.sum() + slack * (hi.sum() - lo.sum()))
        budgets = coordinate_power(total, factors, lo_w=lo, hi_w=hi)
        assert budgets.shape == (n,)
        assert float(budgets.sum()) <= total + 1e-6
        assert np.all(budgets >= lo - 1e-9)
        assert np.all(budgets <= hi + 1e-9)

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n=st.integers(min_value=2, max_value=8),
    )
    def test_saturating_budget_pins_every_node_at_ceiling(self, seed, n):
        rng = np.random.default_rng(seed)
        lo, hi = self._bounds(rng, n)
        factors = np.clip(1 + 0.08 * rng.standard_normal(n), 0.85, 1.15)
        budgets = coordinate_power(float(hi.sum()), factors, lo_w=lo, hi_w=hi)
        np.testing.assert_allclose(budgets, hi, rtol=1e-9, atol=1e-6)

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n=st.integers(min_value=2, max_value=8),
    )
    def test_scalar_bounds_agree_with_uniform_arrays(self, seed, n):
        rng = np.random.default_rng(seed)
        factors = np.clip(1 + 0.08 * rng.standard_normal(n), 0.85, 1.15)
        scalar = coordinate_power(200.0 * n, factors, lo_w=120.0, hi_w=280.0)
        arrays = coordinate_power(
            200.0 * n,
            factors,
            lo_w=np.full(n, 120.0),
            hi_w=np.full(n, 280.0),
        )
        # one code path: scalar bounds broadcast, so the splits agree
        # bit for bit
        np.testing.assert_array_equal(arrays, scalar)

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=64),
        lo=st.floats(min_value=20.0, max_value=400.0),
    )
    def test_summed_floors_never_split_below_the_floor(self, n, lo):
        """A budget of exactly the summed floors (the emergency
        throttle's) gives every node at least its floor, exactly:
        ``total / n`` may round an ulp under ``lo`` and must be clipped."""
        budgets = coordinate_power(
            float(sum([lo] * n)), np.ones(n), lo_w=lo, hi_w=lo + 200.0
        )
        assert np.all(budgets >= lo), (budgets.min(), lo)


class TestExecutionProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        app=app_strategy,
        n_nodes=st.integers(min_value=1, max_value=8),
        n_threads=st.integers(min_value=1, max_value=24),
    )
    def test_run_result_internally_consistent(self, app, n_nodes, n_threads):
        r = engine().run(
            app,
            ExecutionConfig(
                n_nodes=n_nodes, n_threads=n_threads, iterations=2
            ),
        )
        assert r.total_time_s == pytest.approx(2 * r.t_step_s)
        assert r.t_step_s >= max(rec.t_iter_s for rec in r.nodes)
        assert r.imbalance >= 1.0 - 1e-9
        assert r.energy_j == pytest.approx(r.avg_power_w * r.total_time_s)
        for rec in r.nodes:
            assert 0.0 < rec.busy_fraction <= 1.0 + 1e-9
            assert rec.events.event6 > 0
