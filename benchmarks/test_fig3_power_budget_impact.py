"""Figure 3 — performance impact of the processor power budget.

The paper caps the CPU power of one node and plots performance per
concurrency for EP (linear, 3a), STREAM (logarithmic, 3b), and SP
(parabolic, 3c), observing:

* 3a — maximum concurrency is optimal for linear applications unless
  the budget is very low;
* 3b — the optimal concurrency of a logarithmic application varies
  with the budget ("using less cores could significantly improve
  performance if the power budget is acceptable yet very limited");
* 3c — the gap between optimal and maximum concurrency *grows* as the
  budget shrinks for parabolic applications.
"""

from repro.analysis.tables import render_table
from repro.sim.engine import ExecutionConfig
from repro.workloads.apps import get_app
from conftest import run_once

PANELS = (("3a", "ep.C"), ("3b", "stream"), ("3c", "sp.C"))
PKG_BUDGETS_W = (70.0, 100.0, 140.0, 180.0, 240.0)
THREADS = (6, 12, 18, 24)
DRAM_W = 30.0


def sweep(engine):
    out = {}
    for _, name in PANELS:
        app = get_app(name)
        for pkg in PKG_BUDGETS_W:
            for n in THREADS:
                r = engine.run(
                    app,
                    ExecutionConfig(
                        n_nodes=1, n_threads=n,
                        pkg_cap_w=pkg, dram_cap_w=DRAM_W, iterations=3,
                    ),
                )
                out[(name, pkg, n)] = r.performance
    return out


def test_fig3_power_budget_impact(benchmark, engine, report):
    grid = run_once(benchmark, lambda: sweep(engine))

    blocks = []
    for panel, name in PANELS:
        rows = [
            [f"{pkg:.0f} W"] + [grid[(name, pkg, n)] for n in THREADS]
            for pkg in PKG_BUDGETS_W
        ]
        blocks.append(
            render_table(
                ["CPU budget"] + [f"n={n}" for n in THREADS],
                rows,
                title=f"Fig. {panel} — {name}: performance vs CPU power budget",
                float_fmt="{:.4f}",
            )
        )
    report("fig3", "\n\n".join(blocks))

    def best_n(name, pkg):
        return max(THREADS, key=lambda n: grid[(name, pkg, n)])

    # 3a: EP keeps max concurrency at every budget except possibly the
    # very lowest
    for pkg in PKG_BUDGETS_W[1:]:
        assert best_n("ep.C", pkg) == 24

    # 3b: STREAM's optimum shifts below 24 at the tightest budget
    assert best_n("stream", PKG_BUDGETS_W[-1]) >= 12
    tight = best_n("stream", PKG_BUDGETS_W[0])
    assert tight <= best_n("stream", PKG_BUDGETS_W[-1])

    # 3c: SP is parabolic — optimal < 24 everywhere, and the
    # optimal-vs-max gap widens as the budget shrinks
    gaps = []
    for pkg in PKG_BUDGETS_W:
        n_star = best_n("sp.C", pkg)
        assert n_star < 24
        gaps.append(grid[("sp.C", pkg, n_star)] / grid[("sp.C", pkg, 24)])
    assert gaps[0] >= gaps[-1] * 0.98
    assert max(gaps) > 1.1
