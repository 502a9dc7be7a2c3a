"""Closed-loop learning campaign vs. the exhaustive-search oracle.

Drives the full outcome-fed learning loop (ISSUE 10) through a
simulated scheduling campaign and writes ``BENCH_learning.json`` at
the repository root:

1. **oracle floor** — the exhaustive-search optimum for every
   (app, budget) combo, the denominator of the gap metric;
2. **campaign** — a learning-on scheduler decides and executes
   ``ROUNDS`` passes over the combo grid (decision → execution →
   ``record_outcome`` → refit policy → epsilon-greedy bandit); the
   per-decision oracle gap is recorded in submission order, so the
   first/final-third comparison measures whether feeding outcomes
   back actually closes the gap;
3. **golden identity** — a learning-OFF scheduler replays the same
   combos *with outcomes recorded* and its decisions are compared
   byte-for-byte against ``tests/data/golden_decisions_testbeds.json``:
   observation history alone must never move a decision;
4. **warm overhead** — per-decision cost of a converged learning-on
   scheduler vs. a warm learning-off one on the same mix, timed in
   alternating rounds and compared by median.

Run standalone with ``python benchmarks/bench_learning.py`` or through
``benchmarks/test_perf_learning.py``, which gates the shrinking gap,
the bit identity, the audit ledger, and the warm overhead.
"""

from __future__ import annotations

import json
import platform
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))  # standalone execution

from repro.analysis.experiments import build_trained_inflection
from repro.baselines import OracleScheduler
from repro.core.learning import LearningConfig
from repro.core.scheduler import ClipScheduler
from repro.hw.cluster import SimulatedCluster
from repro.sim.batch import RunCache
from repro.sim.engine import ExecutionEngine
from repro.workloads.apps import get_app

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_PATH = REPO_ROOT / "BENCH_learning.json"
GOLDEN_PATH = REPO_ROOT / "tests" / "data" / "golden_decisions_testbeds.json"

#: The golden capture grid (tests/data/capture_golden_testbeds.py).
APPS = ("comd", "sp-mz.C", "stream", "bt-mz.C", "tealeaf")
BUDGETS_W = (1000.0, 1400.0, 1800.0)
#: Campaign length: ROUNDS passes over the 15-combo grid (>= 60
#: decisions, the acceptance floor).
ROUNDS = 6
ITERATIONS = 3
#: Warm-path timing: alternating off/on rounds, each of
#: TIMING_PASSES grid passes per side (medians are reported).
TIMING_ROUNDS = 10
TIMING_PASSES = 2


def _fresh_engine(cache: bool = False) -> ExecutionEngine:
    return ExecutionEngine(
        SimulatedCluster.testbed(),
        seed=42,
        cache=RunCache() if cache else None,
    )


def _combos():
    return [(name, budget) for name in APPS for budget in BUDGETS_W]


def _oracle_floor(engine) -> dict[tuple[str, float], float]:
    oracle = OracleScheduler(engine, thread_step=2)
    return {
        (name, budget): oracle.run(
            get_app(name), budget, iterations=ITERATIONS
        ).performance
        for name, budget in _combos()
    }


def _run_campaign(engine, oracle_perf) -> tuple[ClipScheduler, list[dict]]:
    clip = ClipScheduler(
        engine,
        inflection=build_trained_inflection(engine),
        learning=LearningConfig(enabled=True),
    )
    records = []
    for rnd in range(ROUNDS):
        for name, budget in _combos():
            decision, result = clip.run(
                get_app(name), budget, iterations=ITERATIONS
            )
            floor = oracle_perf[(name, budget)]
            records.append(
                {
                    "round": rnd + 1,
                    "app": name,
                    "budget_w": budget,
                    "n_nodes": decision.n_nodes,
                    "n_threads": decision.n_threads,
                    "explored": decision.explored,
                    "model_version": decision.model_version,
                    "performance": result.performance,
                    "oracle_performance": floor,
                    "gap": floor / result.performance,
                }
            )
    return clip, records


def _check_golden_identity() -> dict:
    """Learning-off decisions, with outcomes recorded, match the golden.

    The scheduler is constructed exactly as the capture script builds
    it, every combo is *executed* (so the knowledge entries accumulate
    observation history through the choke point), and then each combo
    is re-decided and compared byte-for-byte against the stored
    haswell capture.
    """
    golden = json.loads(GOLDEN_PATH.read_text())["testbeds"]["haswell"]
    engine = _fresh_engine()
    clip = ClipScheduler(engine, inflection=build_trained_inflection(engine))
    for name, budget in _combos():
        clip.run(get_app(name), budget, iterations=ITERATIONS)
    mismatches = []
    for name, budget in _combos():
        d = clip.schedule(get_app(name), budget)
        if d.to_dict() != golden[f"{name}@{budget:.0f}"]:
            mismatches.append(f"{name}@{budget:.0f}")
    return {
        "checked": len(_combos()),
        "outcomes_recorded": clip.pipeline.learning_stats()["outcomes"],
        "mismatches": mismatches,
        "identical": not mismatches,
    }


def _time_passes(clip: ClipScheduler) -> float:
    """Warm per-decision wall time over TIMING_PASSES grid passes."""
    apps = {name: get_app(name) for name in APPS}
    combos = _combos()
    start = time.perf_counter()
    for _ in range(TIMING_PASSES):
        for name, budget in combos:
            clip.schedule(apps[name], budget)
    elapsed = time.perf_counter() - start
    return elapsed / (TIMING_PASSES * len(combos))


def _measure_overhead(campaign_clip: ClipScheduler) -> dict:
    """Converged learning-on vs. warm learning-off decision cost.

    The two sides alternate for :data:`TIMING_ROUNDS` rounds and each
    reports its median, so a change in host CPU speed during the
    measurement moves both sides instead of one.
    """
    engine = _fresh_engine(cache=True)
    off = ClipScheduler(engine, inflection=build_trained_inflection(engine))
    for clip in (off, campaign_clip):  # prime
        _time_passes(clip)
    off_runs, on_runs = [], []
    for _ in range(TIMING_ROUNDS):
        off_runs.append(_time_passes(off))
        on_runs.append(_time_passes(campaign_clip))
    off_s = statistics.median(off_runs)
    on_s = statistics.median(on_runs)
    return {
        "off_per_decision_s": off_s,
        "on_per_decision_s": on_s,
        "off_runs_s": off_runs,
        "on_runs_s": on_runs,
        "ratio": on_s / off_s if off_s > 0 else float("inf"),
        "rounds": TIMING_ROUNDS,
        "passes": TIMING_PASSES,
    }


def _thirds(records: list[dict]) -> dict:
    n = len(records)
    cut = n // 3
    chunks = {
        "first": records[:cut],
        "middle": records[cut : n - cut],
        "final": records[n - cut :],
    }
    return {
        label: {
            "decisions": len(chunk),
            "mean_gap": sum(r["gap"] for r in chunk) / len(chunk),
            "explored": sum(1 for r in chunk if r["explored"]),
        }
        for label, chunk in chunks.items()
    }


def run_learning_bench() -> dict:
    engine = _fresh_engine(cache=True)
    print("exhaustive oracle floor...", file=sys.stderr)
    oracle_perf = _oracle_floor(engine)
    print(f"learning-on campaign ({ROUNDS * len(_combos())} decisions)...",
          file=sys.stderr)
    clip, records = _run_campaign(engine, oracle_perf)
    thirds = _thirds(records)
    print("golden identity replay (learning off)...", file=sys.stderr)
    identity = _check_golden_identity()
    print("warm-path overhead...", file=sys.stderr)
    overhead = _measure_overhead(clip)
    monitor = clip.monitor
    payload = {
        "host": {
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "campaign": {
            "apps": list(APPS),
            "budgets_w": list(BUDGETS_W),
            "rounds": ROUNDS,
            "iterations": ITERATIONS,
            "decisions": len(records),
            "records": records,
        },
        "thirds": thirds,
        "learning": clip.pipeline.learning_stats(),
        "golden_identity": identity,
        "audit": {
            "audits": monitor.n_audits,
            "violations": monitor.n_violations,
        },
        "overhead": overhead,
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {BENCH_PATH}", file=sys.stderr)
    return payload


if __name__ == "__main__":
    payload = run_learning_bench()
    t = payload["thirds"]
    print(
        f"gap first third {t['first']['mean_gap']:.4f} -> "
        f"final third {t['final']['mean_gap']:.4f} "
        f"(explored {t['first']['explored']}/{t['final']['explored']}), "
        f"overhead {payload['overhead']['ratio']:.2f}x, "
        f"golden identical: {payload['golden_identity']['identical']}"
    )
