"""GPU-fleet scheduling throughput and the host↔device shift cost.

Times ``ClipScheduler.schedule`` on the accelerator testbeds: a cold
pass on the homogeneous GPU fleet (profiling plus the offload model
fit, including the device cap-ladder enumeration) against warm
budget-sweep decisions riding the knowledge DB, then a mixed CPU+GPU
sweep whose budget-invariant ledger must stay spotless across all
three power domains.  Results are written to ``BENCH_gpu.json`` at the
repository root, alongside the other ``BENCH_*.json`` reports.

Run standalone with ``python benchmarks/bench_gpu.py`` or through
``benchmarks/test_perf_gpu.py`` (which also asserts the warm path is
measurably faster and the mixed sweep audits clean).
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
from repro.hw.specs import gpu_testbed, mixed_gpu_testbed
from repro.sim.engine import ExecutionEngine
from repro.workloads.apps import GPU_APPS, get_app

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_PATH = REPO_ROOT / "BENCH_gpu.json"

#: Every GPU port plus host-only classes that land on accelerator
#: slots and pay the idle board draw.
APPS = tuple(a.name for a in GPU_APPS) + ("comd", "stream")
BUDGETS_W = (1400.0, 1800.0, 2200.0, 2600.0, 3000.0)
WARM_ROUNDS = 3


def _scheduler(spec) -> ClipScheduler:
    engine = ExecutionEngine(SimulatedCluster(spec), seed=42)
    return ClipScheduler(engine, inflection=build_trained_inflection(engine))


def run_gpu_bench() -> dict:
    """Time cold vs warm GPU decisions; audit the mixed sweep."""
    apps = [get_app(name) for name in APPS]

    # --- homogeneous GPU fleet: cold vs warm ------------------------
    clip = _scheduler(gpu_testbed())

    start = time.perf_counter()
    for app in apps:
        clip.schedule(app, 2200.0)
    cold_s = time.perf_counter() - start

    start = time.perf_counter()
    n_warm = 0
    for _ in range(WARM_ROUNDS):
        for app in apps:
            for budget in BUDGETS_W:
                clip.schedule(app, budget)
                n_warm += 1
    warm_s = time.perf_counter() - start
    clip.monitor.assert_clean()

    # --- mixed CPU+GPU fleet: full sweep, three-domain audits -------
    mixed = _scheduler(mixed_gpu_testbed())
    gpu_names = {a.name for a in GPU_APPS}
    n_offload = 0
    start = time.perf_counter()
    for app in apps:
        for budget in BUDGETS_W:
            d = mixed.schedule(app, budget)
            if app.name in gpu_names:
                n_offload += 1
                assert d.node_configs[0].predicted_gpu_clock_hz > 0
    mixed_s = time.perf_counter() - start
    mixed.monitor.assert_clean()

    cold_per_decision = cold_s / len(apps)
    warm_per_decision = warm_s / n_warm
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
        "gpu_audits": {
            "n_audits": clip.monitor.n_audits,
            "n_violations": clip.monitor.n_violations,
        },
        "mixed_sweep": {
            "decisions": len(apps) * len(BUDGETS_W),
            "offload_decisions": n_offload,
            "total_s": mixed_s,
            "n_audits": mixed.monitor.n_audits,
            "n_violations": mixed.monitor.n_violations,
        },
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def main() -> int:
    payload = run_gpu_bench()
    print(json.dumps(payload, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
