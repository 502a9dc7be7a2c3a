"""Resilience benchmark: watchdog overhead, correction latency, chaos audit.

Three measurements, written to ``BENCH_resilience.json`` at the
repository root:

* **steady-state overhead** — wall time of a warm no-fault job drained
  segment-by-segment on a bare runtime vs. one carrying the full
  resilience stack (journal + enforcement watchdog); the companion
  gate bounds the relative overhead;
* **breach-to-correction latency** — segments a drifting job spends
  out of band before the watchdog's escalation ladder pulls it back
  (the ``max_breach_segments`` episode statistic);
* **chaos audit** — the acceptance sweep's fault scripts (actuation x
  sensors x churn x budget swings) replayed on the mixed fleet; the
  budget-invariant monitor must stay clean throughout.

Run standalone with ``python benchmarks/bench_resilience.py``.
"""

from __future__ import annotations

import json
import platform
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))  # standalone execution

from repro.analysis.experiments import build_trained_inflection
from repro.core.runtime import PowerBoundedRuntime
from repro.core.scheduler import ClipScheduler
from repro.core.watchdog import PowerEnforcementWatchdog
from repro.hw.actuation import FaultyActuation
from repro.hw.cluster import SimulatedCluster
from repro.hw.specs import mixed_testbed
from repro.sim.engine import ExecutionEngine
from repro.sim.faults import FaultEvent, FaultInjector, run_scripted
from repro.workloads.apps import get_app

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_PATH = REPO_ROOT / "BENCH_resilience.json"

BUDGET_W = 1200.0
SEGMENT_ITERS = 5
REPEATS = 3

#: The acceptance sweep's chaos scripts (mirrors tests/core/test_resilience).
CHAOS_SCRIPTS = (
    ("drift+noise", [
        FaultEvent(at_s=0.0, action="cap_drift", factor=0.20, seed=21),
        FaultEvent(at_s=0.0, action="sensor_noise", factor=0.03, seed=22),
    ]),
    ("drops+stale+swing", [
        FaultEvent(at_s=0.0, action="cap_write_fail", factor=0.5, seed=23),
        FaultEvent(at_s=0.3, action="sensor_stale", factor=2, seed=24),
        FaultEvent(at_s=0.6, action="set_budget", budget_w=0.85 * 1050.0),
        FaultEvent(at_s=1.2, action="set_budget", budget_w=1050.0),
    ]),
    ("churn+drift+swing", [
        FaultEvent(at_s=0.0, action="cap_drift", factor=0.15, seed=25),
        FaultEvent(at_s=0.3, action="fail_node", node_id=1),
        FaultEvent(at_s=0.6, action="set_budget", budget_w=0.8 * 1050.0),
        FaultEvent(at_s=0.9, action="recover_node", node_id=1),
        FaultEvent(at_s=1.2, action="set_budget", budget_w=1050.0),
    ]),
)


def _drain_segments(runtime, app) -> float:
    """Launch + drain one job in fixed segments; return the wall time."""
    start = time.perf_counter()
    job = runtime.launch(
        app, BUDGET_W, n_nodes=4, allow_concurrency_change=True
    )
    while not job.done:
        runtime.advance(job, SEGMENT_ITERS)
    return time.perf_counter() - start


def measure_overhead(clip) -> dict:
    """Warm-path wall time: bare runtime vs. journal + watchdog."""
    app = get_app("comd")
    # warm every cache (profiles, knowledge, engine) before timing
    clip.engine.cluster.reset()
    clip.monitor.reset()
    _drain_segments(PowerBoundedRuntime(clip), app)

    bare_s, guarded_s = [], []
    with tempfile.TemporaryDirectory() as tmp:
        for rep in range(REPEATS):
            clip.engine.cluster.reset()
            clip.monitor.reset()
            bare_s.append(_drain_segments(PowerBoundedRuntime(clip), app))

            clip.engine.cluster.reset()
            clip.monitor.reset()
            runtime = PowerBoundedRuntime(
                clip, journal=Path(tmp) / f"bench-{rep}.journal"
            )
            PowerEnforcementWatchdog(runtime)
            guarded_s.append(_drain_segments(runtime, app))
    best_bare = min(bare_s)
    best_guarded = min(guarded_s)
    return {
        "bare_s": best_bare,
        "guarded_s": best_guarded,
        "overhead_frac": best_guarded / best_bare - 1.0,
        "repeats": REPEATS,
        "segment_iterations": SEGMENT_ITERS,
    }


def measure_correction_latency(clip) -> dict:
    """Segments from breach to back-in-band under +25% silent drift."""
    clip.engine.cluster.reset()
    clip.monitor.reset()
    runtime = PowerBoundedRuntime(clip)
    dog = PowerEnforcementWatchdog(runtime)
    # 700 W binds comd's caps on the Haswell testbed, so the drift
    # genuinely overdraws and the ladder has work to do
    job = runtime.launch(get_app("comd"), 700.0, n_nodes=4, n_threads=24)
    for node_id in job.node_ids:
        clip.engine.cluster.node(node_id).rapl.actuation = FaultyActuation(
            seed=1, drift_prob=1.0, drift_frac=0.25
        )
    runtime.reissue_caps(job)
    while not job.done:
        runtime.advance(job, SEGMENT_ITERS)
    clip.monitor.assert_clean()
    rep = dog.report()
    return {
        "breaches": rep["breaches"],
        "episodes": rep["episodes"],
        "max_breach_segments": rep["max_breach_segments"],
        "mean_breach_segments": rep["mean_breach_segments"],
        "actions": rep["actions"],
        "n_violations": clip.monitor.n_violations,
    }


def run_chaos_sweep(mixed_clip) -> dict:
    """Replay the acceptance chaos scripts; collect the audit ledger."""
    scenarios = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, events in CHAOS_SCRIPTS:
            mixed_clip.engine.cluster.reset()
            mixed_clip.monitor.reset()
            runtime = PowerBoundedRuntime(
                mixed_clip, journal=Path(tmp) / f"{name}.journal"
            )
            dog = PowerEnforcementWatchdog(runtime)
            injector = FaultInjector(
                mixed_clip.engine.cluster, events, budget_w=1050.0
            )
            job = runtime.launch(
                get_app("comd"), 1050.0, n_nodes=6,
                allow_concurrency_change=True, allow_shrink=True,
            )
            run_scripted(runtime, job, injector, segment_iterations=10)
            rep = dog.report()
            scenarios[name] = {
                "completed": job.done,
                "events_fired": len(injector.fired),
                "observations": rep["observations"],
                "breaches": rep["breaches"],
                "max_breach_segments": rep["max_breach_segments"],
                "n_audits": mixed_clip.monitor.n_audits,
                "n_violations": mixed_clip.monitor.n_violations,
            }
    return scenarios


def run_resilience_bench() -> dict:
    """All three measurements; writes ``BENCH_resilience.json``."""
    engine = ExecutionEngine(SimulatedCluster.testbed(), seed=42)
    inflection = build_trained_inflection(engine)
    clip = ClipScheduler(engine, inflection=inflection)
    mixed = ClipScheduler(
        ExecutionEngine(SimulatedCluster(mixed_testbed()), seed=42),
        inflection=inflection,
    )

    overhead = measure_overhead(clip)
    latency = measure_correction_latency(clip)
    chaos = run_chaos_sweep(mixed)
    payload = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "budget_w": BUDGET_W,
        "overhead": overhead,
        "correction_latency": latency,
        "chaos": chaos,
        "total_violations": latency["n_violations"]
        + sum(s["n_violations"] for s in chaos.values()),
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def main() -> int:
    payload = run_resilience_bench()
    print(json.dumps(payload, indent=2))
    return 1 if payload["total_violations"] else 0


if __name__ == "__main__":
    sys.exit(main())
