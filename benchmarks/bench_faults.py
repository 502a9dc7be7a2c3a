"""Fault-scenario drain benchmark with budget-invariant accounting.

Drains the demo 6-job queue through the canonical fault scenario (one
node failure, one recovery, two budget swings) under **both** queue
policies, timing each drain and collecting the shared
:class:`~repro.core.monitor.BudgetInvariantMonitor` ledger.  Results
are written to ``BENCH_faults.json`` at the repository root, alongside
the other ``BENCH_*.json`` artifacts; the companion test
(``benchmarks/test_perf_faults.py``) fails the build on any audit
violation.

Run standalone with ``python benchmarks/bench_faults.py``.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))  # standalone execution

from repro.analysis.experiments import build_trained_inflection
from repro.cli import FAULT_DEMO_APPS, demo_fault_events
from repro.core.jobqueue import PowerBoundedJobQueue
from repro.core.scheduler import ClipScheduler
from repro.hw.cluster import SimulatedCluster
from repro.sim.engine import ExecutionEngine
from repro.sim.faults import FaultInjector
from repro.workloads.apps import get_app

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_PATH = REPO_ROOT / "BENCH_faults.json"

BUDGET_W = 1600.0
ITERATIONS = 3


def _drain_policy(policy: str) -> dict:
    """Clean + faulted drain under one policy; returns the measurements."""
    engine = ExecutionEngine(SimulatedCluster.testbed(), seed=42)
    clip = ClipScheduler(engine, inflection=build_trained_inflection(engine))
    queue = PowerBoundedJobQueue(clip)
    apps = [get_app(n) for n in FAULT_DEMO_APPS]
    if policy == "coscheduled":
        # co-scheduled batches are atomic (faults apply at batch
        # boundaries), so double the queue to span several batches
        apps = apps * 2

    clean = queue.drain(apps, BUDGET_W, policy=policy, iterations=ITERATIONS)
    events = demo_fault_events(clean.makespan_s, BUDGET_W)
    injector = FaultInjector(engine.cluster, events, budget_w=BUDGET_W)
    clip.monitor.reset()

    start = time.perf_counter()
    report = queue.drain(
        apps, BUDGET_W, policy=policy, iterations=ITERATIONS, faults=injector
    )
    wall_s = time.perf_counter() - start

    return {
        "jobs_drained": len(report.jobs),
        "events_fired": len(injector.fired),
        "clean_makespan_s": clean.makespan_s,
        "faulted_makespan_s": report.makespan_s,
        "drain_wall_s": wall_s,
        "monitor": clip.monitor.report(),
    }


def run_faults_bench() -> dict:
    """Drain the fault scenario under both policies and record audits."""
    policies = {p: _drain_policy(p) for p in ("sequential", "coscheduled")}
    payload = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "apps": list(FAULT_DEMO_APPS),
        "budget_w": BUDGET_W,
        "iterations": ITERATIONS,
        "policies": policies,
        "total_audits": sum(
            p["monitor"]["n_audits"] for p in policies.values()
        ),
        "total_violations": sum(
            p["monitor"]["n_violations"] for p in policies.values()
        ),
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def main() -> int:
    payload = run_faults_bench()
    print(json.dumps(payload, indent=2))
    return 1 if payload["total_violations"] else 0


if __name__ == "__main__":
    sys.exit(main())
