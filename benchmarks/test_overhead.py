"""Scheduler overhead — the paper claims "a solution with a low overhead".

Two costs matter:

* **profiling** — the 2-3 sample executions run only a few iterations;
  their simulated wall time must be a tiny fraction of a production
  run ("smart profiling with a few iterations incurs minimal
  overhead", §IV-B.1);
* **decision latency** — with the knowledge base warm, scheduling a
  job is pure model arithmetic and must be far under a second.
"""

import time

from repro.analysis.tables import render_table
from repro.core.knowledge import KnowledgeDB
from repro.core.profile import DEFAULT_PROFILE_ITERATIONS
from repro.core.scheduler import ClipScheduler
from repro.sim.engine import ExecutionConfig
from repro.workloads.apps import get_app
from conftest import run_once


def test_profiling_overhead(benchmark, engine, report):
    """Simulated profiling time vs a production run."""

    def measure():
        rows = []
        for name in ("comd", "sp-mz.C", "tealeaf"):
            app = get_app(name)
            prod = engine.run(
                app, ExecutionConfig(n_nodes=8, n_threads=24)
            ).total_time_s
            # profiling: the samples run DEFAULT_PROFILE_ITERATIONS
            # iterations each on one node
            profile_time = 0.0
            for n in (24, 12, 14):
                r = engine.run(
                    app,
                    ExecutionConfig(
                        n_nodes=1, n_threads=n,
                        iterations=DEFAULT_PROFILE_ITERATIONS,
                    ),
                )
                profile_time += r.total_time_s
            rows.append([name, profile_time, prod, profile_time / prod])
        return rows

    rows = run_once(benchmark, measure)
    report(
        "overhead_profiling",
        render_table(
            ["Benchmark", "profiling (sim s)", "production run (sim s)", "fraction"],
            rows,
            title="Overhead — simulated profiling cost vs production run",
        ),
    )
    # The paper's claim targets production codes running "hundreds or
    # thousands of iterations"; profiling costs a fixed ~15 iterations
    # once (then lives in the knowledge DB), so the fraction shrinks
    # with run length.
    by_name = {r[0]: r for r in rows}
    for name in ("sp-mz.C", "tealeaf"):
        assert by_name[name][3] < 0.25, (name, by_name[name][3])
    for name, app_iters in (("comd", 100), ("sp-mz.C", 400), ("tealeaf", 300)):
        profiled_iters = 3 * DEFAULT_PROFILE_ITERATIONS
        assert profiled_iters / app_iters <= 0.2


def test_decision_latency(benchmark, engine, trained_inflection, report):
    """Warm-knowledge scheduling must be sub-millisecond-scale."""
    clip = ClipScheduler(
        engine, inflection=trained_inflection, knowledge=KnowledgeDB()
    )
    app = get_app("sp-mz.C")
    clip.ensure_knowledge(app)  # warm the KB outside the timer

    decision = benchmark(lambda: clip.schedule(app, 1400.0))
    assert decision.n_nodes >= 1

    t0 = time.perf_counter()
    for _ in range(20):
        clip.schedule(app, 1400.0)
    per_call = (time.perf_counter() - t0) / 20
    report(
        "overhead_decision",
        render_table(
            ["metric", "value"],
            [["warm schedule() latency (s)", per_call]],
            title="Overhead — CLIP decision latency with warm knowledge base",
            float_fmt="{:.6f}",
        ),
    )
    assert per_call < 0.25
