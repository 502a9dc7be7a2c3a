#!/usr/bin/env python3
"""Manufacturing-variability study (§III-B.2).

Sweeps the cluster's manufacturing-variability sigma, measures the
node-level power spread CLIP's calibration detects, and compares
uniform per-node budgets against variability-coordinated ones on a
bulk-synchronous workload.  On a homogeneous cluster coordination is a
no-op (the paper's testbed case); as variability grows, the slowest
node taxes every step and power shifting buys the difference back.

Run:  python examples/variability_study.py
"""

from repro.analysis.experiments import build_trained_inflection
from repro.analysis.tables import render_table
from repro.core.knowledge import KnowledgeDB
from repro.core.scheduler import ClipScheduler
from repro.hw.cluster import SimulatedCluster
from repro.sim.engine import ExecutionEngine
from repro.workloads import get_app

SIGMAS = (0.0, 0.03, 0.06, 0.10)
BUDGET_W = 1200.0


def main() -> None:
    app = get_app("comd")
    rows = []
    inflection = None
    for sigma in SIGMAS:
        engine = ExecutionEngine(
            SimulatedCluster.testbed(variability_sigma=sigma), seed=42
        )
        if inflection is None:
            print("Training CLIP (reused across clusters)...")
            inflection = build_trained_inflection(engine)
        coordinated = ClipScheduler(
            engine, inflection=inflection, knowledge=KnowledgeDB()
        )
        uniform = ClipScheduler(
            engine,
            inflection=inflection,
            knowledge=KnowledgeDB(),
            variability_threshold=999.0,  # coordination never engages
        )
        spread = engine.cluster.variability.spread
        _, r_coord = coordinated.run(app, BUDGET_W, iterations=5)
        _, r_unif = uniform.run(app, BUDGET_W, iterations=5)
        rows.append(
            [
                sigma,
                spread,
                r_unif.performance,
                r_coord.performance,
                r_coord.performance / r_unif.performance - 1.0,
                r_unif.imbalance,
                r_coord.imbalance,
            ]
        )

    print()
    print(
        render_table(
            ["sigma", "power spread", "perf uniform", "perf coordinated",
             "gain", "imbalance unif", "imbalance coord"],
            rows,
            title=(
                f"Variability study — {app.name} at {BUDGET_W:.0f} W, "
                "uniform vs coordinated per-node budgets"
            ),
        )
    )
    print(
        "\nThe paper's testbed was 'quite homogeneous', so CLIP only "
        "shifts power when the calibrated spread exceeds its threshold "
        "— visible here as zero gain at sigma=0 and growing gain after."
    )


if __name__ == "__main__":
    main()
