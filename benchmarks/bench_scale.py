"""Fleet-scale scheduling cost: 8 → 1024 nodes, near-flat per node.

Times warm ``ClipScheduler.schedule`` decisions and runtime budget
re-coordinations on rack-replicated Haswell fleets of 8, 64, 256 and
1024 nodes (1, 8, 32 and 128 racks).  The hierarchical rack split, the
rack-decomposed candidate grid, the batched calibration, and the exact
array-based coordination are what keep the *per-node* cost of a
decision near-flat as the fleet grows 128x; this benchmark proves it
and records the curve to ``BENCH_scale.json`` at the repository root.

Run standalone with ``python benchmarks/bench_scale.py`` or through
``benchmarks/test_perf_scale.py`` (which enforces the curve in CI:
per-node decision cost at 1024 nodes at most 3x the 8-node cost, zero
budget-invariant violations at every scale).
"""

from __future__ import annotations

import json
import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))  # standalone execution

from repro.analysis.experiments import build_trained_inflection
from repro.core.runtime import PowerBoundedRuntime
from repro.core.scheduler import ClipScheduler
from repro.hw.cluster import SimulatedCluster
from repro.hw.specs import haswell_testbed
from repro.sim.batch import RunCache
from repro.sim.engine import ExecutionEngine
from repro.workloads.apps import get_app

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_PATH = REPO_ROOT / "BENCH_scale.json"

#: Racks of the 8-node Haswell testbed per scale point.
RACK_SCALES = (1, 8, 32, 128)

#: Per-node budget (W) — the paper's 1200 W over 8 nodes, held constant
#: per node so every scale exercises the same allocation regime.
BUDGET_PER_NODE_W = 150.0

APPS = ("comd", "sp-mz.C", "stream")
WARM_ROUNDS = 3
#: Warm budget sweep, as fractions of the cluster budget.
BUDGET_FRACTIONS = (0.85, 1.0, 1.15)
#: Budget swing exercised by each timed runtime re-coordination.
RECOORD_FRACTION = 0.9


def _scale_point(racks: int, inflection) -> dict:
    """Measure one fleet size; returns the JSON record."""
    spec = haswell_testbed(racks=racks if racks > 1 else None)
    engine = ExecutionEngine(SimulatedCluster(spec), seed=42, cache=RunCache())
    clip = ClipScheduler(engine, inflection=inflection)
    apps = [get_app(name) for name in APPS]
    n_nodes = spec.n_nodes
    budget_w = BUDGET_PER_NODE_W * n_nodes

    # cold: first decision per app — profiling plus model fitting
    start = time.perf_counter()
    for app in apps:
        clip.schedule(app, budget_w)
    cold_s = time.perf_counter() - start

    # warm: budget sweep on hot knowledge / bundle caches — the
    # steady-state decision cost a facility scheduler actually pays
    start = time.perf_counter()
    n_warm = 0
    for _ in range(WARM_ROUNDS):
        for app in apps:
            for frac in BUDGET_FRACTIONS:
                clip.schedule(app, budget_w * frac)
                n_warm += 1
    warm_s = time.perf_counter() - start

    # runtime re-coordination: a running job re-budgeted on a swing
    runtime = PowerBoundedRuntime(clip)
    job = runtime.launch(apps[0], budget_w, n_nodes=n_nodes)
    start = time.perf_counter()
    n_recoord = 0
    for _ in range(WARM_ROUNDS):
        runtime.update_budget(job, budget_w * RECOORD_FRACTION)
        runtime.update_budget(job, budget_w)
        n_recoord += 2
    recoord_s = time.perf_counter() - start

    clip.monitor.assert_clean()
    warm_per_decision = warm_s / n_warm
    return {
        "racks": spec.n_racks,
        "n_nodes": n_nodes,
        "cluster_budget_w": budget_w,
        "cold_per_decision_s": cold_s / len(apps),
        "warm_per_decision_s": warm_per_decision,
        "per_node_decision_s": warm_per_decision / n_nodes,
        "recoordinations": n_recoord,
        "per_recoordination_s": recoord_s / n_recoord,
        "per_node_recoordination_s": recoord_s / n_recoord / n_nodes,
        "audits": {
            "n_audits": clip.monitor.n_audits,
            "n_violations": clip.monitor.n_violations,
        },
    }


def run_scale_bench() -> dict:
    """Measure every scale point and write ``BENCH_scale.json``."""
    # one predictor trained on the paper's 8-node testbed, shared by
    # every scale (training cost is not what this benchmark measures)
    base = ExecutionEngine(SimulatedCluster.testbed(), seed=42, cache=RunCache())
    inflection = build_trained_inflection(base)

    scales = [_scale_point(racks, inflection) for racks in RACK_SCALES]
    smallest, largest = scales[0], scales[-1]
    payload = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "apps": list(APPS),
        "budget_per_node_w": BUDGET_PER_NODE_W,
        "scales": scales,
        "per_node_ratio_largest_vs_smallest": (
            largest["per_node_decision_s"] / smallest["per_node_decision_s"]
        ),
        "total_violations": sum(s["audits"]["n_violations"] for s in scales),
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def main() -> int:
    payload = run_scale_bench()
    print(json.dumps(payload, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
