"""Mixed-fleet scheduling throughput and per-class bundle caching.

Times ``ClipScheduler.schedule`` on the heterogeneous 4× Haswell +
4× Broadwell testbed: a cold pass (profiling plus one model-bundle fit
per hardware class) against warm budget-sweep decisions riding the
``(app, problem_size, node_class)``-keyed cache.  Results are written
to ``BENCH_hetero.json`` at the repository root, alongside
``BENCH_pipeline.json``.

Run standalone with ``python benchmarks/bench_hetero.py`` or through
``benchmarks/test_perf_hetero.py`` (which also asserts the warm path
is measurably faster and every audit stays clean).
"""

from __future__ import annotations

import json
import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))  # standalone execution

from repro.analysis.experiments import build_trained_inflection
from repro.core.scheduler import ClipScheduler
from repro.hw.cluster import SimulatedCluster
from repro.sim.engine import ExecutionEngine
from repro.workloads.apps import get_app

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_PATH = REPO_ROOT / "BENCH_hetero.json"

APPS = ("comd", "minimd", "sp-mz.C", "bt-mz.C", "tealeaf", "cloverleaf.128")
BUDGETS_W = (1000.0, 1300.0, 1600.0, 1900.0, 2200.0, 2500.0)
WARM_ROUNDS = 3


def _fresh_scheduler() -> ClipScheduler:
    engine = ExecutionEngine(SimulatedCluster.mixed_testbed(), seed=42)
    return ClipScheduler(engine, inflection=build_trained_inflection(engine))


def run_hetero_bench() -> dict:
    """Time cold vs warm mixed-fleet decisions; report cache behavior."""
    apps = [get_app(name) for name in APPS]
    clip = _fresh_scheduler()
    n_classes = len(set(clip.engine.cluster.spec.node_specs))

    # cold: first decision per app — profiling + one bundle per class
    start = time.perf_counter()
    for app in apps:
        clip.schedule(app, 1600.0)
    cold_s = time.perf_counter() - start

    # warm: the same apps across a budget sweep — knowledge hits plus
    # per-class cached bundles; nothing is profiled or re-fitted
    start = time.perf_counter()
    n_warm = 0
    for _ in range(WARM_ROUNDS):
        for app in apps:
            for budget in BUDGETS_W:
                clip.schedule(app, budget)
                n_warm += 1
    warm_s = time.perf_counter() - start

    clip.monitor.assert_clean()

    cold_per_decision = cold_s / len(apps)
    warm_per_decision = warm_s / n_warm
    cache = clip.pipeline.bundle_cache
    lookups = cache.hits + cache.misses
    payload = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "testbed": clip.engine.cluster.spec.name,
        "node_classes": n_classes,
        "apps": list(APPS),
        "budgets_w": list(BUDGETS_W),
        "cold": {
            "decisions": len(apps),
            "total_s": cold_s,
            "per_decision_s": cold_per_decision,
        },
        "warm": {
            "decisions": n_warm,
            "total_s": warm_s,
            "per_decision_s": warm_per_decision,
        },
        "warm_speedup": cold_per_decision / warm_per_decision,
        "bundle_cache": {
            "bundles": len(cache),
            "hits": cache.hits,
            "misses": cache.misses,
            "hit_rate": cache.hits / lookups if lookups else 0.0,
        },
        "audits": {
            "n_audits": clip.monitor.n_audits,
            "n_violations": clip.monitor.n_violations,
        },
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def main() -> int:
    payload = run_hetero_bench()
    print(json.dumps(payload, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
