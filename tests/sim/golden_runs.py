"""Frozen reference outputs of ``ExecutionEngine.run``.

``tests/data/golden_engine_runs.json`` holds run results recorded with
the original scalar fixed-point engine before it was replaced by the
batch evaluator (regenerate with
``tests/data/capture_golden_engine_runs.py``).  Results are stored in
their :func:`canon` form: JSON floats round-trip exactly, so comparing
canonical dicts is a bit-exact comparison of every ``RunResult`` field.

This module also holds the scripted actuation-fault sequence, so the
capture script and the tests replay exactly the same writes.
"""

from __future__ import annotations

import dataclasses
import functools
import json
from pathlib import Path

from repro.hw.actuation import FaultyActuation
from repro.hw.rapl import Domain
from repro.sim.engine import ExecutionConfig, ExecutionEngine
from repro.workloads.apps import get_app

GOLDEN_PATH = (
    Path(__file__).resolve().parents[1] / "data" / "golden_engine_runs.json"
)


def canon(obj):
    """JSON-canonical form of a dataclass (tuples become lists)."""
    return json.loads(json.dumps(dataclasses.asdict(obj)))


def config_dict(config: ExecutionConfig) -> dict:
    """JSON-canonical form of an execution config (enums by value)."""
    d = dataclasses.asdict(config)
    if config.affinity is not None:
        d["affinity"] = config.affinity.value
    return json.loads(json.dumps(d))


#: Budgets of the frozen oracle plans (sp-mz.C, ``thread_step=6``).
ORACLE_BUDGETS = (900.0, 1400.0)

def case_ids(cases) -> list[str]:
    """Parametrize ids (and fixture keys) of an ``(app, config)`` list."""
    return [f"{app}-{i}" for i, (app, _) in enumerate(cases)]


@functools.lru_cache(maxsize=1)
def golden() -> dict:
    """The frozen fixture, parsed once per process."""
    return json.loads(GOLDEN_PATH.read_text())


#: Scripted fault sequence on the mixed CPU+GPU fleet: uniform caps
#: with and without a GPU limit, mixed-arity per-node caps, and an
#: uncapped run, cycled over host-only and offloading apps.
FAULT_STEPS = (
    (
        "lulesh-gpu",
        dict(n_nodes=8, n_threads=12, pkg_cap_w=100.0, dram_cap_w=30.0,
             gpu_cap_w=110.0),
    ),
    ("comd", dict(n_nodes=6, n_threads=8, pkg_cap_w=90.0, dram_cap_w=26.0)),
    (
        "hpgmg-gpu",
        dict(
            n_nodes=4,
            n_threads=12,
            per_node_caps=(
                (110.0, 32.0, 120.0),
                (95.0, 28.0, 80.0),
                (120.0, 35.0),
                (100.0, 30.0),
            ),
            node_ids=(0, 1, 4, 5),
        ),
    ),
    (
        "sp-mz.C",
        dict(n_nodes=8, n_threads=12, pkg_cap_w=80.0, dram_cap_w=24.0,
             gpu_cap_w=70.0),
    ),
    ("minife-gpu", dict(n_nodes=5, n_threads=6)),
    (
        "stream",
        dict(n_nodes=8, n_threads=16, pkg_cap_w=105.0, dram_cap_w=34.0,
             gpu_cap_w=95.0),
    ),
)


def fault_sequence() -> list[dict]:
    """Replay the seeded fault script and record every observable.

    Each node gets its own seeded :class:`FaultyActuation` (drops,
    half-way partial writes, and +12 % enforcement drift), so later
    writes land on registers earlier faults left behind.  Per step the
    record holds the ``RunResult`` plus, for every node, the register
    snapshot, RAPL energy (unwrapped and raw register), the last meter
    interval and the actuation counters.
    """
    from repro.hw.cluster import SimulatedCluster
    from repro.hw.specs import mixed_gpu_testbed

    engine = ExecutionEngine(SimulatedCluster(mixed_gpu_testbed()), seed=42)
    for node in engine.cluster.nodes:
        node.rapl.actuation = FaultyActuation(
            seed=100 + node.node_id,
            drop_prob=0.15,
            partial_prob=0.15,
            drift_prob=0.2,
            drift_frac=0.12,
        )
    steps = []
    for app_name, kwargs in FAULT_STEPS:
        config = ExecutionConfig(iterations=2, **kwargs)
        result = engine.run(get_app(app_name), config)
        steps.append(
            {
                "run": canon(result),
                "nodes": [_node_state(n) for n in engine.cluster.nodes],
            }
        )
    return steps


def _node_state(node) -> dict:
    rapl = node.rapl
    regs = [rapl.domain(d) for d in (Domain.PKG, Domain.DRAM)]
    if rapl.has_gpu_domain:
        regs.append(rapl.domain(Domain.GPU))
    last = node.meter._intervals[-1] if node.meter._intervals else None
    state = {
        "caps": rapl.snapshot_caps(),
        "energy_j": {r.domain.value: r.energy_j for r in regs},
        "energy_register": {
            r.domain.value: r.read_energy_register() for r in regs
        },
        "meter_last": (
            None
            if last is None
            else [last[0], last[1], dataclasses.asdict(last[2])]
        ),
        "meter_energy_j": node.meter.energy_j,
        "actuation_stats": rapl.actuation_stats,
    }
    return json.loads(json.dumps(state))
