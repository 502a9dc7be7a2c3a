"""Load generator for the ``clip-sched serve`` daemon.

Stands a daemon up on a background thread (ephemeral port), then
drives it over real HTTP from concurrent client threads in three
phases and writes ``BENCH_serve.json`` at the repository root:

1. **bare** — ``ClipScheduler.schedule_many`` on a pre-warmed
   scheduler, no daemon involved: the floor the service is measured
   against;
2. **paced** — every worker submits fixed-size bursts at a target
   aggregate rate and records per-burst round-trip latency (is the
   daemon comfortable at the offered load?);
3. **saturated** — the same workers submit back-to-back with no
   pacing: sustained decisions/sec and the warm per-decision service
   cost (wall time / decisions, HTTP + coalescing amortized across
   bursts).

Run standalone with ``python benchmarks/bench_serve.py`` or through
``benchmarks/test_perf_serve.py``, which gates the sustained rate, the
service overhead over bare ``schedule_many``, and a clean budget-audit
ledger under concurrent load.
"""

from __future__ import annotations

import json
import platform
import statistics
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))  # standalone execution

from repro.analysis.experiments import build_trained_inflection
from repro.core.scheduler import ClipScheduler
from repro.hw.cluster import SimulatedCluster
from repro.serve import SchedulerService, ServeClient, ServeDaemon
from repro.sim.engine import ExecutionEngine
from repro.workloads.apps import get_app

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_PATH = REPO_ROOT / "BENCH_serve.json"

APPS = ("comd", "minimd", "sp-mz.C", "bt-mz.C", "tealeaf", "cloverleaf.128")
BUDGET_W = 1400.0
#: Load-generator shape (the pipeline_perf_loadgen idiom: an aggregate
#: target rate split across worker threads submitting fixed bursts).
TARGET_RATE = 600.0  # decisions/sec offered in the paced phase
THREADS = 4
BATCH_SIZE = 8
PACED_BURSTS = 25  # per thread
SATURATED_BURSTS = 40  # per thread


def _fresh_scheduler() -> ClipScheduler:
    engine = ExecutionEngine(SimulatedCluster.testbed(), seed=42)
    return ClipScheduler(engine, inflection=build_trained_inflection(engine))


def _warm(clip: ClipScheduler) -> None:
    for name in APPS:
        clip.schedule(get_app(name), BUDGET_W)


def _batch(i: int) -> list[str]:
    """Worker *i*'s job mix: a rotating window over the app set."""
    return [APPS[(i + k) % len(APPS)] for k in range(BATCH_SIZE)]


def _bare_baseline() -> dict:
    """Warm ``schedule_many`` cost with no daemon in the way."""
    clip = _fresh_scheduler()
    _warm(clip)
    jobs = [get_app(name) for name in _batch(0)]
    rounds = 50
    start = time.perf_counter()
    for _ in range(rounds):
        clip.schedule_many(jobs, BUDGET_W)
    total_s = time.perf_counter() - start
    n = rounds * len(jobs)
    return {
        "decisions": n,
        "total_s": total_s,
        "per_decision_s": total_s / n,
    }


def _paced_phase(port: int) -> dict:
    """Submit bursts at TARGET_RATE aggregate; measure latency."""
    interval_s = BATCH_SIZE * THREADS / TARGET_RATE

    def worker(i: int) -> list[float]:
        latencies = []
        with ServeClient("127.0.0.1", port) as client:
            next_at = time.perf_counter()
            for _ in range(PACED_BURSTS):
                sleep = next_at - time.perf_counter()
                if sleep > 0:
                    time.sleep(sleep)
                next_at += interval_s
                start = time.perf_counter()
                jobs = client.submit(_batch(i))
                latencies.append(time.perf_counter() - start)
                assert all(j["status"] == "done" for j in jobs)
        return latencies

    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=THREADS) as pool:
        per_thread = [f.result() for f in [pool.submit(worker, i) for i in range(THREADS)]]
    wall_s = time.perf_counter() - start
    latencies = sorted(lat for thread in per_thread for lat in thread)
    decisions = len(latencies) * BATCH_SIZE
    return {
        "target_rate": TARGET_RATE,
        "threads": THREADS,
        "batch_size": BATCH_SIZE,
        "decisions": decisions,
        "wall_s": wall_s,
        "achieved_rate": decisions / wall_s,
        "burst_latency_p50_ms": statistics.median(latencies) * 1e3,
        "burst_latency_p95_ms": latencies[int(0.95 * (len(latencies) - 1))] * 1e3,
        "burst_latency_max_ms": latencies[-1] * 1e3,
    }


def _saturated_phase(port: int) -> dict:
    """Back-to-back bursts from every worker: sustained throughput."""

    def worker(i: int) -> int:
        n = 0
        with ServeClient("127.0.0.1", port) as client:
            for _ in range(SATURATED_BURSTS):
                jobs = client.submit(_batch(i))
                assert all(j["status"] == "done" for j in jobs)
                n += len(jobs)
        return n

    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=THREADS) as pool:
        counts = [f.result() for f in [pool.submit(worker, i) for i in range(THREADS)]]
    wall_s = time.perf_counter() - start
    decisions = sum(counts)
    return {
        "threads": THREADS,
        "batch_size": BATCH_SIZE,
        "decisions": decisions,
        "wall_s": wall_s,
        "decisions_per_s": decisions / wall_s,
        "per_decision_s": wall_s / decisions,
    }


def run_serve_bench() -> dict:
    """Run the three phases and write ``BENCH_serve.json``."""
    bare = _bare_baseline()

    clip = _fresh_scheduler()
    _warm(clip)  # the service is measured on its warm path
    service = SchedulerService(clip, BUDGET_W)
    daemon = ServeDaemon(service, port=0).start_in_thread()
    try:
        paced = _paced_phase(daemon.port)
        saturated = _saturated_phase(daemon.port)
        stats = service.stats()
    finally:
        daemon.shutdown()

    payload = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "apps": list(APPS),
        "budget_w": BUDGET_W,
        "bare_schedule_many": bare,
        "paced": paced,
        "saturated": saturated,
        "service_overhead": saturated["per_decision_s"] / bare["per_decision_s"],
        "daemon": {
            "submitted": stats["submitted"],
            "decided": stats["decided"],
            "failed": stats["failed"],
            "rejected": stats["rejected"],
            "bursts": stats["bursts"],
            "mean_burst": stats["mean_burst"],
            "max_burst": stats["max_burst"],
            "audits": stats["audits"],
            "audit_violations": stats["audit_violations"],
        },
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def main() -> int:
    payload = run_serve_bench()
    print(json.dumps(payload, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
