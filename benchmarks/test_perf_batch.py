"""Perf guard for the batched evaluation subsystem.

Times the full oracle grid search (one ``engine.run`` per candidate vs
one batched call), records the measurements to ``BENCH_batch.json`` at the repository
root, and enforces the ISSUE's acceptance bar: the batch path must be
at least 5x faster while choosing the identical plan.
"""

from run_bench import run_all

#: Acceptance floor for the oracle-search speedup (scalar / batch).
MIN_ORACLE_SPEEDUP = 5.0


def test_batch_oracle_speedup(report):
    payload = run_all()
    oracle = payload["oracle_search"]
    sweep = payload["figure_sweep"]

    lines = [
        "Batched evaluation — oracle search "
        f"({oracle['app']} @ {oracle['cluster_budget_w']:.0f} W, "
        f"{oracle['search_stats']['evaluated']} candidates)",
        f"  scalar     : {oracle['scalar_s']:.3f} s",
        f"  batch      : {oracle['batch_s']:.3f} s "
        f"({oracle['speedup']:.1f}x)",
        f"  warm cache : {oracle['warm_cache_s']:.3f} s "
        f"({oracle['warm_cache_speedup']:.1f}x)",
        "Figure sweep "
        f"({sweep['n_runs']} runs over {', '.join(sweep['apps'])})",
        f"  scalar     : {sweep['scalar_s']:.3f} s",
        f"  batch      : {sweep['batch_s']:.3f} s "
        f"({sweep['speedup']:.1f}x)",
    ]
    report("perf_batch", "\n".join(lines))

    # Exact equivalence first: a fast wrong answer is not a speedup.
    assert oracle["plans_identical"]
    assert sweep["results_identical"]
    assert oracle["speedup"] >= MIN_ORACLE_SPEEDUP, oracle
    # The warm cache must make a repeated search essentially free.
    assert oracle["warm_cache_s"] < oracle["batch_s"]
