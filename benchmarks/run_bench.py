"""Before/after timings for the batched evaluation subsystem.

Measures the two workloads the batch path was built for and writes the
results to ``BENCH_batch.json`` at the repository root:

* **oracle search** — ``OracleScheduler.plan`` over the full candidate
  grid, "scalar" (one ``engine.run`` call per candidate) vs batched
  (the whole grid as one ``evaluate_many`` array program), plus a
  warm-cache repeat with a shared :class:`RunCache`;
* **figure sweep** — the Fig. 3 concurrency x budget grid (one config
  per ``engine.run`` call before; one ``evaluate_many`` array program
  after).

Run standalone with ``python benchmarks/run_bench.py`` or through
``benchmarks/test_perf_batch.py`` (which also asserts the >= 5x
speedup target and plan equivalence).
"""

from __future__ import annotations

import json
import platform
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))  # standalone execution

from repro.baselines.optimal import OracleScheduler
from repro.hw.cluster import SimulatedCluster
from repro.sim.batch import RunCache
from repro.sim.engine import ExecutionConfig, ExecutionEngine
from repro.workloads.apps import get_app

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_PATH = REPO_ROOT / "BENCH_batch.json"

ORACLE_APP = "sp-mz.C"
ORACLE_BUDGET_W = 1200.0
#: Alternating timing rounds per side of the oracle comparison.
ORACLE_REPEATS = 3

FIGURE_APPS = ("ep.C", "stream", "sp.C")
FIGURE_PKG_BUDGETS_W = (70.0, 100.0, 140.0, 180.0, 240.0)
FIGURE_THREADS = (6, 12, 18, 24)
FIGURE_DRAM_W = 30.0


def _fresh_engine(cache: RunCache | None = None) -> ExecutionEngine:
    return ExecutionEngine(SimulatedCluster.testbed(), seed=42, cache=cache)


class _PerCandidateEngine(ExecutionEngine):
    """Reference side: scores every candidate with its own ``run`` call."""

    def evaluate_many(self, app, configs):
        return [self.run(app, cfg) for cfg in configs]


def bench_oracle_search() -> dict:
    """Time the full oracle grid search per candidate and batched.

    The two sides alternate for :data:`ORACLE_REPEATS` rounds and each
    reports its median, so a drift in host CPU speed during the
    measurement lands on both sides alike.
    """
    app = get_app(ORACLE_APP)

    scalar_runs, batch_runs = [], []
    for _ in range(ORACLE_REPEATS):
        engine = _PerCandidateEngine(SimulatedCluster.testbed(), seed=42)
        scalar = OracleScheduler(engine)
        t0 = time.perf_counter()
        scalar_plan = scalar.plan(app, ORACLE_BUDGET_W)
        scalar_runs.append(time.perf_counter() - t0)

        engine = _fresh_engine()
        batch = OracleScheduler(engine)
        t0 = time.perf_counter()
        batch_plan = batch.plan(app, ORACLE_BUDGET_W)
        batch_runs.append(time.perf_counter() - t0)
    scalar_s = statistics.median(scalar_runs)
    batch_s = statistics.median(batch_runs)

    cache = RunCache()
    engine = _fresh_engine(cache=cache)
    cached = OracleScheduler(engine)
    cached.plan(app, ORACLE_BUDGET_W)  # populate
    t0 = time.perf_counter()
    cached_plan = cached.plan(app, ORACLE_BUDGET_W)
    cached_s = time.perf_counter() - t0

    return {
        "app": ORACLE_APP,
        "cluster_budget_w": ORACLE_BUDGET_W,
        "search_stats": batch.search_stats,
        "scalar_s": scalar_s,
        "batch_s": batch_s,
        "scalar_runs_s": scalar_runs,
        "batch_runs_s": batch_runs,
        "warm_cache_s": cached_s,
        "speedup": scalar_s / batch_s,
        "warm_cache_speedup": scalar_s / cached_s,
        "cache_stats": cache.stats(),
        "plans_identical": scalar_plan == batch_plan == cached_plan,
        "plan": {
            "n_nodes": batch_plan.n_nodes,
            "n_threads": batch_plan.n_threads,
            "affinity": str(batch_plan.affinity),
            "pkg_cap_w": batch_plan.pkg_cap_w,
            "dram_cap_w": batch_plan.dram_cap_w,
        },
    }


def _figure_configs() -> list[ExecutionConfig]:
    return [
        ExecutionConfig(
            n_nodes=1,
            n_threads=n,
            pkg_cap_w=pkg,
            dram_cap_w=FIGURE_DRAM_W,
            iterations=3,
        )
        for pkg in FIGURE_PKG_BUDGETS_W
        for n in FIGURE_THREADS
    ]


def bench_figure_sweep() -> dict:
    """Time the Fig. 3 grid: scalar run loop vs one batched call."""
    configs = _figure_configs()
    apps = [get_app(name) for name in FIGURE_APPS]

    engine = _fresh_engine()
    t0 = time.perf_counter()
    scalar = [[engine.run(app, cfg) for cfg in configs] for app in apps]
    scalar_s = time.perf_counter() - t0

    engine = _fresh_engine()
    t0 = time.perf_counter()
    batched = [engine.evaluate_many(app, configs) for app in apps]
    batch_s = time.perf_counter() - t0

    identical = all(
        s == b
        for s_row, b_row in zip(scalar, batched)
        for s, b in zip(s_row, b_row)
    )
    return {
        "apps": list(FIGURE_APPS),
        "n_runs": len(configs) * len(apps),
        "scalar_s": scalar_s,
        "batch_s": batch_s,
        "speedup": scalar_s / batch_s,
        "results_identical": identical,
    }


def run_all() -> dict:
    payload = {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "oracle_search": bench_oracle_search(),
        "figure_sweep": bench_figure_sweep(),
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def main() -> int:
    payload = run_all()
    oracle = payload["oracle_search"]
    sweep = payload["figure_sweep"]
    print(f"wrote {BENCH_PATH}")
    print(
        f"oracle search : {oracle['scalar_s']:.3f}s -> {oracle['batch_s']:.3f}s "
        f"({oracle['speedup']:.1f}x, warm cache {oracle['warm_cache_s']:.3f}s)"
    )
    print(
        f"figure sweep  : {sweep['scalar_s']:.3f}s -> {sweep['batch_s']:.3f}s "
        f"({sweep['speedup']:.1f}x over {sweep['n_runs']} runs)"
    )
    ok = oracle["plans_identical"] and sweep["results_identical"]
    print(f"equivalence   : {'identical' if ok else 'MISMATCH'}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
