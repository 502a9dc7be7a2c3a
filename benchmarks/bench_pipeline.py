"""Warm- vs cold-path timings for the staged decision pipeline.

Measures ``ClipScheduler.schedule`` on a fresh scheduler (cold: smart
profiling plus model fitting) against repeated decisions for the same
applications (warm: knowledge-DB hit plus a cached
:class:`~repro.core.pipeline.ModelBundle`), plus the
``schedule_many`` batch entry point on a queue-like job mix.  Results
are written to ``BENCH_pipeline.json`` at the repository root,
alongside ``BENCH_batch.json``.

Run standalone with ``python benchmarks/bench_pipeline.py`` or through
``benchmarks/test_perf_pipeline.py`` (which also asserts the warm path
is measurably faster).
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
BENCH_PATH = REPO_ROOT / "BENCH_pipeline.json"

APPS = ("comd", "minimd", "sp-mz.C", "bt-mz.C", "tealeaf", "cloverleaf.128")
BUDGETS_W = (900.0, 1200.0, 1500.0, 1800.0, 2100.0, 2400.0)
WARM_ROUNDS = 3


def _fresh_scheduler() -> ClipScheduler:
    engine = ExecutionEngine(SimulatedCluster.testbed(), seed=42)
    return ClipScheduler(engine, inflection=build_trained_inflection(engine))


def run_pipeline_bench() -> dict:
    """Time cold vs warm decisions and the batch entry point."""
    apps = [get_app(name) for name in APPS]
    clip = _fresh_scheduler()

    # cold: first decision per app — profiling + model fitting
    start = time.perf_counter()
    cold_decisions = [clip.schedule(app, 1400.0) for app in apps]
    cold_s = time.perf_counter() - start

    # warm: same apps across a budget sweep — knowledge hits + cached
    # model bundles; nothing is profiled or re-fitted
    start = time.perf_counter()
    n_warm = 0
    for _ in range(WARM_ROUNDS):
        for app in apps:
            for budget in BUDGETS_W:
                clip.schedule(app, budget)
                n_warm += 1
    warm_s = time.perf_counter() - start

    cold_per_decision = cold_s / len(apps)
    warm_per_decision = warm_s / n_warm

    # batch entry point on a queue-like mix (many arrivals, few apps)
    jobs = [get_app(APPS[i % len(APPS)]) for i in range(60)]
    start = time.perf_counter()
    batch = clip.schedule_many(jobs, 1400.0)
    batch_s = time.perf_counter() - start

    cache = clip.pipeline.bundle_cache
    payload = {
        "python": platform.python_version(),
        "machine": platform.machine(),
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
        "schedule_many": {
            "jobs": len(jobs),
            "total_s": batch_s,
            "per_job_s": batch_s / len(jobs),
        },
        "bundle_cache": {
            "bundles": len(cache),
            "hits": cache.hits,
            "misses": cache.misses,
        },
        "decisions_identical": all(
            batch[i] == cold_decisions[i % len(apps)] for i in range(len(jobs))
        ),
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def main() -> int:
    payload = run_pipeline_bench()
    print(json.dumps(payload, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
