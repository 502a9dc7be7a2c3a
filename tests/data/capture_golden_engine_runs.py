"""Regenerate ``golden_engine_runs.json``.

Freezes what ``ExecutionEngine.run`` returns and leaves behind on the
simulated hardware, so the engine's implementation can change while
its outputs provably do not.  The fixture was first written by the
original scalar fixed-point engine.  It covers:

* every equivalence case of ``tests/sim/test_batch.py`` on the
  homogeneous, mixed, ``gpu`` and ``mixed-gpu`` fleets (phase thread
  overrides, weak scaling, a frequency pin, explicit affinity,
  per-node caps and node choice among them);
* a degraded node and failed-node rejection (error type, no cap
  written);
* a seeded actuation-fault sequence (drift, dropped and partial
  writes) with per-node registers, RAPL energy, last meter interval
  and actuation counters after every run;
* the exhaustive oracle's plans and search statistics.

Run from the repo root:

    PYTHONPATH=src:. python tests/data/capture_golden_engine_runs.py

Re-run (and review the diff consciously) only when a deliberate
behaviour change moves the simulator's outputs.  ``--diff`` replays
without writing and prints every moved key (a fleet case, the degraded
run, the failed-node check, a fault step or an oracle plan) with its
field-level old -> new values (exit 1 when anything moved):

    PYTHONPATH=src:. python tests/data/capture_golden_engine_runs.py --diff
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.baselines import OracleScheduler
from repro.errors import ClipError
from repro.hw.cluster import SimulatedCluster
from repro.hw.specs import gpu_testbed, mixed_gpu_testbed
from repro.sim.engine import ExecutionConfig, ExecutionEngine
from repro.workloads.apps import get_app
from tests.sim.golden_runs import (
    ORACLE_BUDGETS,
    canon,
    case_ids,
    config_dict,
    fault_sequence,
)
from tests.sim.test_batch import (
    EQUIVALENCE_CASES,
    GPU_CASES,
    MIXED_CASES,
    MIXED_GPU_CASES,
)

OUT = Path(__file__).parent / "golden_engine_runs.json"

FLEETS = {
    "exact": (SimulatedCluster.testbed, EQUIVALENCE_CASES),
    "mixed": (SimulatedCluster.mixed_testbed, MIXED_CASES),
    "gpu": (lambda: SimulatedCluster(gpu_testbed()), GPU_CASES),
    "mixed-gpu": (lambda: SimulatedCluster(mixed_gpu_testbed()), MIXED_GPU_CASES),
}


def capture() -> dict:
    payload: dict = {}
    for fleet, (make_cluster, cases) in FLEETS.items():
        entries = {}
        for case_id, (app_name, config) in zip(case_ids(cases), cases):
            # a fresh testbed per case: no state carried between runs
            engine = ExecutionEngine(make_cluster(), seed=42)
            entries[case_id] = {
                "app": app_name,
                "config": config_dict(config),
                "run": canon(engine.run(get_app(app_name), config)),
            }
        payload[fleet] = entries

    cluster = SimulatedCluster.testbed()
    cluster.degrade_node(3, 1.08)
    payload["degraded"] = canon(
        ExecutionEngine(cluster, seed=42).run(
            get_app("sp-mz.C"),
            ExecutionConfig(n_nodes=8, n_threads=12, iterations=2),
        )
    )

    cluster = SimulatedCluster.testbed()
    cluster.fail_node(2)
    try:
        ExecutionEngine(cluster, seed=42).run(
            get_app("comd"),
            ExecutionConfig(
                n_nodes=4, n_threads=8, pkg_cap_w=100.0, dram_cap_w=30.0,
                iterations=2,
            ),
        )
        failed = {"error": None}
    except ClipError as exc:
        failed = {"error": type(exc).__name__}
    failed["writes"] = sum(n.rapl.actuation_stats["writes"] for n in cluster.nodes)
    payload["failed_node"] = failed

    payload["faults"] = fault_sequence()

    oracle = OracleScheduler(
        ExecutionEngine(SimulatedCluster.testbed(), seed=42), thread_step=6
    )
    payload["oracle"] = {}
    for budget in ORACLE_BUDGETS:
        plan = oracle.plan(get_app("sp-mz.C"), budget)
        payload["oracle"][f"sp-mz.C@{budget:.0f}"] = {
            "plan": config_dict(plan),
            "search_stats": oracle.search_stats,
        }
    return payload


def _keyed(payload: dict) -> dict:
    """Flatten a capture to ``{key: value}``: one key per fleet case,
    fault step and oracle plan, plus ``degraded`` and ``failed_node``."""
    out = {}
    for section, value in payload.items():
        if section in FLEETS or section == "oracle":
            for case, entry in value.items():
                out[f"{section}/{case}"] = entry
        elif section == "faults":
            for i, step in enumerate(value):
                out[f"faults[{i}]"] = step
        else:
            out[section] = value
    return out


def _fields(value, path: str = ""):
    """``(field path, leaf value)`` pairs, e.g. ``run.nodes[1].t_iter_s``."""
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _fields(value[key], f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _fields(item, f"{path}[{i}]")
    else:
        yield path, value


def diff(old: dict, new: dict) -> list[str]:
    """Report lines for every key whose value moved between captures."""
    old_k, new_k = _keyed(old), _keyed(new)
    lines = []
    for key in sorted(set(old_k) | set(new_k)):
        before, after = old_k.get(key), new_k.get(key)
        if before == after:
            continue
        lines.append(key)
        old_f, new_f = dict(_fields(before)), dict(_fields(after))
        for name in sorted(set(old_f) | set(new_f)):
            a = old_f.get(name, "(absent)")
            b = new_f.get(name, "(absent)")
            if a != b:
                lines.append(f"  {name or '(value)'}: {a!r} -> {b!r}")
    return lines


if __name__ == "__main__":
    if sys.argv[1:] == ["--diff"]:
        current = json.loads(json.dumps(capture()))  # tuples -> lists
        moved = diff(json.loads(OUT.read_text()), current)
        print("\n".join(moved) if moved else "no keys moved")
        sys.exit(1 if moved else 0)
    OUT.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {OUT}")
