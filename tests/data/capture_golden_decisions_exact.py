"""Regenerate ``golden_decisions_exact.json``.

Full-precision decision captures: every decision is stored as
``json.dumps(decision.to_dict(), sort_keys=True)`` (floats at ``repr``
precision), or the raised error's type name, so a refactor of the
decision path can prove it stays byte-identical.  Covered:

* the five testbeds x every app (plus the GPU suites on the GPU
  testbeds) x a budget sweep that includes infeasible budgets, and a
  two-rack Haswell fleet;
* ``schedule_many`` bursts with duplicate jobs;
* ``allocation_mode="simple"`` and predefined node counts;
* one learning-on sequence (decide -> execute -> ``record_outcome``,
  with calibration refits bumping the model version) on a
  deliberately mistimed knowledge entry;
* segment-runtime re-coordinations (launch, budget swings that force a
  concurrency change, node failure and recovery, the emergency
  throttle), recording the committed threads and cap sets.

Run from the repo root:

    PYTHONPATH=src python tests/data/capture_golden_decisions_exact.py

Re-run (and review the diff consciously) only when a deliberate
behaviour change moves the decisions.  ``--diff`` replays without
writing and prints every moved key with its field-level old -> new
values (exit 1 when anything moved):

    PYTHONPATH=src python tests/data/capture_golden_decisions_exact.py --diff
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

from repro.analysis.experiments import build_trained_inflection
from repro.core.knowledge import KnowledgeDB
from repro.core.learning import LearningConfig
from repro.core.runtime import PowerBoundedRuntime
from repro.core.scheduler import ClipScheduler
from repro.errors import ClipError
from repro.hw.cluster import SimulatedCluster
from repro.hw.specs import (
    broadwell_testbed,
    gpu_testbed,
    haswell_testbed,
    mixed_gpu_testbed,
    mixed_testbed,
)
from repro.sim.engine import ExecutionEngine
from repro.workloads.apps import GPU_APPS, all_apps, get_app

OUT = Path(__file__).parent / "golden_decisions_exact.json"

TESTBEDS = {
    "haswell": haswell_testbed,
    "broadwell": broadwell_testbed,
    "mixed": mixed_testbed,
    "gpu": gpu_testbed,
    "mixed-gpu": mixed_gpu_testbed,
    "haswell-2rack": lambda: haswell_testbed(racks=2),
}
GPU_TESTBEDS = ("gpu", "mixed-gpu")
#: From below any single-node floor to above the fleet's useful ceiling.
BUDGETS = (
    40.0, 130.0, 260.0, 450.0, 700.0, 1000.0, 1300.0, 1700.0, 2400.0,
    4200.0,
)
MODE_BUDGETS = (300.0, 1200.0)
#: (allocation mode, predefined node counts) pairs besides the default.
MODES = (
    ("simple", None),
    ("predictive", (1, 2, 4, 8)),
    ("simple", (3, 5)),
)
BURSTS = (
    (("comd", "stream", "comd", "sp-mz.C", "bt-mz.C", "stream"), 1300.0),
    (("tealeaf", "ep.C", "amg", "tealeaf", "lu-mz.C"), 700.0),
)
LEARNING_BUDGETS = (1400.0, 1400.0, 1000.0, 1400.0, 1800.0, 1400.0,
                    1000.0, 1400.0, 1400.0, 1800.0, 1400.0, 1000.0)


def _outcome(fn) -> str:
    """Serialized decision, or the raised error's type name."""
    try:
        decision = fn()
    except ClipError as exc:
        return f"error:{type(exc).__name__}"
    return json.dumps(decision.to_dict(), sort_keys=True)


def _scheduler(name: str) -> ClipScheduler:
    engine = ExecutionEngine(SimulatedCluster(TESTBEDS[name]()), seed=42)
    return ClipScheduler(engine, inflection=build_trained_inflection(engine))


def _apps(testbed: str) -> tuple:
    apps = all_apps()
    return apps + GPU_APPS if testbed in GPU_TESTBEDS else apps


def capture_testbed(name: str) -> dict:
    """Sweep, modes, bursts and runtime re-coordinations on one fleet."""
    clip = _scheduler(name)
    out: dict = {}
    for app in _apps(name):
        for budget in BUDGETS:
            out[f"sweep/{app.name}@{budget!r}"] = _outcome(
                lambda: clip.schedule(app, budget)
            )
        for budget in MODE_BUDGETS:
            for mode, counts in MODES:
                out[f"{mode}{counts}/{app.name}@{budget!r}"] = _outcome(
                    lambda: clip.schedule(
                        app,
                        budget,
                        predefined_node_counts=counts,
                        allocation_mode=mode,
                    )
                )
    for i, (names, budget) in enumerate(BURSTS):
        burst = clip.schedule_many([get_app(n) for n in names], budget)
        out[f"burst/{i}"] = [
            json.dumps(d.to_dict(), sort_keys=True) for d in burst
        ]
    out["runtime"] = capture_runtime(clip, name)
    return out


def capture_runtime(clip: ClipScheduler, testbed: str) -> list:
    """Committed (threads, caps) after each runtime re-coordination."""
    rt = PowerBoundedRuntime(clip)
    n_total = clip.engine.cluster.n_nodes
    steps: list = []

    def record(label, job):
        steps.append(
            [label, job.n_threads, [list(c) for c in job.per_node_caps],
             job.parked]
        )

    def attempt(label, fn, job):
        try:
            fn()
        except ClipError as exc:
            steps.append([label, f"error:{type(exc).__name__}"])
            return
        record(label, job)

    apps = ["sp-mz.C", "comd"]
    if testbed in GPU_TESTBEDS:
        apps.append("lulesh-gpu")
    for k, app_name in enumerate(apps):
        app = get_app(app_name)
        job = rt.launch(
            app,
            1400.0,
            n_nodes=min(4, n_total),
            allow_concurrency_change=True,
            allow_shrink=True,
        )
        record(f"{app_name}/launch", job)
        for budget in (900.0, 520.0, 300.0, 1600.0):
            attempt(
                f"{app_name}/budget@{budget!r}",
                lambda: rt.update_budget(job, budget),
                job,
            )
        attempt(f"{app_name}/advance", lambda: rt.advance(job, 1), job)
        victim = job.node_ids[-1]
        rt.fail_node(victim)
        record(f"{app_name}/fail", job)
        rt.recover_node(victim)
        record(f"{app_name}/recover", job)
        attempt(f"{app_name}/throttle", lambda: rt.emergency_throttle(job), job)
        pinned = rt.launch(app, 1100.0, n_nodes=min(2 + k, n_total))
        record(f"{app_name}/pinned", pinned)
        attempt(
            f"{app_name}/pinned-starve",
            lambda: rt.update_budget(pinned, 150.0),
            pinned,
        )
    return steps


def capture_learning() -> list:
    """decide -> execute -> record_outcome with refits, on a mistimed entry."""
    seed = _scheduler("haswell")
    good = seed.ensure_knowledge(get_app("comd"))

    def stretch(run):
        if run is None:
            return None
        return replace(
            run,
            perf=run.perf / 2.0,
            t_iter_s=run.t_iter_s * 2.0,
            t_iter_lo_s=run.t_iter_lo_s * 2.0,
        )

    profile = replace(
        good.profile,
        all_run=stretch(good.profile.all_run),
        half_run=stretch(good.profile.half_run),
        confirm_run=stretch(good.profile.confirm_run),
    )
    kb = KnowledgeDB()
    kb.put(replace(good, profile=profile))
    clip = ClipScheduler(
        seed.engine,
        inflection=build_trained_inflection(seed.engine),
        knowledge=kb,
        learning=LearningConfig(enabled=True),
    )
    app = get_app("comd")
    steps = []
    for budget in LEARNING_BUDGETS:
        decision, _ = clip.run(app, budget, iterations=2)
        steps.append(json.dumps(decision.to_dict(), sort_keys=True))
    return steps


def capture() -> dict:
    payload = {name: capture_testbed(name) for name in TESTBEDS}
    payload["learning"] = capture_learning()
    return payload


def _fields(value, path: str = ""):
    """``(field path, leaf value)`` pairs of one captured value.

    Serialized decisions are decoded and runtime steps keyed by their
    label, so a moved cap reads as ``runtime/<label>.caps[1][0]``.
    """
    if isinstance(value, str) and value.startswith("{"):
        value = json.loads(value)
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _fields(value[key], f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _fields(item, f"{path}[{i}]")
    else:
        yield path, value


def _step(step: list) -> dict:
    """One runtime step as named fields."""
    if len(step) == 2:
        return {"error": step[1]}
    return dict(zip(("n_threads", "caps", "parked"), step[1:]))


def _keyed(payload: dict) -> dict:
    """Flatten a capture to ``{key: value}`` with one key per decision,
    burst, runtime step and learning step."""
    out = {}
    for testbed, entries in payload.items():
        if testbed == "learning":
            for i, step in enumerate(entries):
                out[f"learning[{i}]"] = step
            continue
        for key, value in entries.items():
            if key == "runtime":
                for step in value:
                    out[f"{testbed}/runtime/{step[0]}"] = _step(step)
            else:
                out[f"{testbed}/{key}"] = value
    return out


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
