"""Tests for the Configuration Recommendation Module."""

import pytest

from repro.core.perfmodel import PerformancePredictor
from repro.core.powermodel import ClipPowerModel
from repro.core.recommend import Recommender
from repro.errors import InfeasibleBudgetError
from repro.workloads.apps import get_app


@pytest.fixture()
def recommender_for(profiler, engine, trained_inflection):
    node = engine.cluster.spec.node

    def build(name):
        app = get_app(name)
        profile = profiler.profile(app)
        np_pred = None
        if profile.scalability_class.is_nonlinear:
            np_pred = trained_inflection.predict(profile)
            profile = profiler.confirm(app, profile, np_pred)
        return Recommender(
            profile,
            PerformancePredictor(profile, np_pred),
            ClipPowerModel(profile, node),
        )

    return build


class TestUnboundedConcurrency:
    def test_linear_uses_all_cores(self, recommender_for):
        assert recommender_for("comd").unbounded_concurrency() == 24

    def test_logarithmic_uses_all_cores(self, recommender_for):
        assert recommender_for("bt-mz.C").unbounded_concurrency() == 24

    def test_parabolic_stops_at_np(self, recommender_for):
        rec = recommender_for("sp-mz.C")
        assert rec.unbounded_concurrency() == rec.predictor.inflection_point


class TestRecommend:
    def test_config_fields_consistent(self, recommender_for):
        cfg = recommender_for("comd").recommend(220.0)
        assert cfg.node_budget_w == pytest.approx(cfg.pkg_cap_w + cfg.dram_cap_w)
        assert cfg.node_budget_w <= 220.0 * (1 + 1e-9)
        assert cfg.predicted_perf > 0
        assert cfg.predicted_frequency_hz > 0

    def test_linear_app_holds_full_concurrency(self, recommender_for):
        # a comfortable budget: linear apps never drop threads
        cfg = recommender_for("comd").recommend(230.0)
        assert cfg.n_threads == 24

    def test_linear_app_reduces_only_when_forced(self, recommender_for):
        rec = recommender_for("comd")
        floor24 = rec.power_model.power_range(24).node_lo_w
        cfg = rec.recommend(floor24 * 0.85)
        assert cfg.n_threads < 24

    def test_parabolic_never_exceeds_np(self, recommender_for):
        rec = recommender_for("sp-mz.C")
        np_ = rec.predictor.inflection_point
        for budget in (130.0, 180.0, 260.0):
            assert rec.recommend(budget).n_threads <= np_

    def test_log_app_prefers_frequency_at_low_budget(self, recommender_for):
        rec = recommender_for("tealeaf")
        lo_cfg = rec.recommend(120.0)
        hi_cfg = rec.recommend(260.0)
        assert lo_cfg.n_threads <= hi_cfg.n_threads

    def test_infeasible_raises(self, recommender_for):
        with pytest.raises(InfeasibleBudgetError):
            recommender_for("comd").recommend(25.0)

    def test_memory_app_gets_dram_share(self, recommender_for):
        cfg = recommender_for("stream").recommend(200.0)
        assert cfg.dram_cap_w > 15.0

    def test_affinity_matches_profile(self, recommender_for):
        rec = recommender_for("tealeaf")
        assert rec.recommend(200.0).affinity is rec.profile.affinity

    def test_min_floor_below_allcore_floor(self, recommender_for):
        rec = recommender_for("bt-mz.C")
        assert rec.min_floor_w() <= rec.power_model.power_range(24).node_lo_w

    def test_more_budget_never_worse_prediction(self, recommender_for):
        rec = recommender_for("bt-mz.C")
        perfs = [rec.recommend(b).predicted_perf for b in (140.0, 180.0, 240.0)]
        assert perfs == sorted(perfs)

    def test_even_concurrency_only(self, recommender_for):
        for name in ("comd", "bt-mz.C", "sp-mz.C"):
            cfg = recommender_for(name).recommend(180.0)
            assert cfg.n_threads % 2 == 0
