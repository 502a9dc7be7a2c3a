"""Golden-number regression tests.

The reproduction's value is that the evaluation *shapes* are stable: a
refactor of the substrate or the scheduler must not silently shift the
headline numbers.  These tests pin key quantities at seed 42 with loose
tolerances — tight enough to catch a behavioural regression, loose
enough to survive benign model recalibration (update the constants
consciously when calibration changes, and re-check EXPERIMENTS.md).
"""

import pytest

from repro.core.knowledge import KnowledgeDB
from repro.core.scheduler import ClipScheduler
from repro.sim.engine import ExecutionConfig
from repro.workloads.apps import get_app

#: Fig.-6 classification ratios at seed 42 (tolerance 10 %).
GOLDEN_RATIOS = {
    "comd": 0.514,
    "minimd": 0.508,
    "bt-mz.C": 0.920,
    "cloverleaf.128": 0.810,
    "sp-mz.C": 1.077,
    "tealeaf": 1.048,
}

#: Unbounded All-In throughput (it/s) on the 8-node testbed.
GOLDEN_UNBOUNDED_PERF = {
    "comd": 14.7,
    "sp-mz.C": 1.0,
    "stream": 14.4,
}


class TestGoldenRatios:
    @pytest.mark.parametrize("name,expected", sorted(GOLDEN_RATIOS.items()))
    def test_classification_ratio(self, profiler, name, expected):
        profile = profiler.profile(get_app(name))
        assert profile.ratio == pytest.approx(expected, rel=0.10), name


class TestGoldenThroughput:
    @pytest.mark.parametrize(
        "name,expected", sorted(GOLDEN_UNBOUNDED_PERF.items())
    )
    def test_unbounded_allin_perf(self, engine, name, expected):
        r = engine.run(
            get_app(name),
            ExecutionConfig(n_nodes=8, n_threads=24, iterations=3),
        )
        assert r.performance == pytest.approx(expected, rel=0.15), name


class TestGoldenDecisions:
    def test_spmz_decision_at_1200(self, engine, trained_inflection):
        clip = ClipScheduler(
            engine, inflection=trained_inflection, knowledge=KnowledgeDB()
        )
        d = clip.schedule(get_app("sp-mz.C"), 1200.0)
        assert d.n_nodes == 8
        assert d.n_threads == 14
        assert d.inflection_point == 14

    def test_clip_advantage_on_spmz(self, engine, trained_inflection):
        from repro.baselines import AllInScheduler

        clip = ClipScheduler(
            engine, inflection=trained_inflection, knowledge=KnowledgeDB()
        )
        _, clip_r = clip.run(get_app("sp-mz.C"), 1200.0, iterations=3)
        allin_r = AllInScheduler(engine).run(
            get_app("sp-mz.C"), 1200.0, iterations=3
        )
        gain = clip_r.performance / allin_r.performance - 1.0
        # headline-scale advantage on the flagship parabolic app
        assert 0.3 <= gain <= 0.8, gain
