"""``fleet-churn``: one runtime re-coordinating four jobs under faults.

64 Haswell nodes in 8 racks, one ``PowerBoundedRuntime`` with a
watchdog attached and a journal in the run directory.  Four jobs run at
once, each launched with ``allow_shrink`` and
``allow_concurrency_change``; a finished job is replaced by the next one
of a seeded job stream.  A seeded ``FaultInjector`` script, timed in
steps, mixes node failure and recovery, cluster budget swings (split
across the jobs by node count), dropped cap writes, cap drift and sensor
noise.  Each step fires the due events, then advances one job by one
segment.

The latency this workload reports is re-coordination latency: from a
node or budget event firing to every affected job being re-capped,
verified and audited, counted over the events that re-capped at least
one job.  The run length is ``FLEET["steps_per_s"]`` times the run
length in steps, so a seed fixes the work.  Event kinds, budget levels,
drift levels, apps and job sizes are drawn from shuffled decks, so every
seed's script
has the same mix in another order; a job's (app, size) pair is drawn
from a deck of all 39 pairs.  Times are divided by the host factor
of ``speed.py``, probed before and after each step.
"""

from __future__ import annotations

import random
import statistics
import time
from dataclasses import asdict

from common import deck, peak_rss_mb, reset_trained_predictor, time_setup_probes
from layers import OP_SPAN, LayerProbe, layer_metrics, percentile, self_table
from spans import Tracer
from spec import FLEET, SETUP_REPEATS
from speed import HostSpeed, OpClock

NAME = "fleet-churn"
RECAP_ACTIONS = ("fail_node", "recover_node", "set_budget")
#: Event kinds per block of 100 scripted events ("node" is a failure or
#: a recovery, whichever the fleet's state allows).
EVENT_MIX = (("set_budget", 40), ("node", 35), ("cap_write_fail", 8),
             ("cap_drift", 10), ("sensor_noise", 7))


def _n_nodes() -> int:
    return 8 * FLEET["racks"]


def make_script(seed: int, n_steps: int):
    """Seeded fault events (``at_s`` counts steps) and job stream."""
    from repro.sim.faults import FaultEvent
    from repro.workloads.apps import all_apps

    rng = random.Random(f"{NAME}:{seed}")
    n_nodes = _n_nodes()
    lo_w, hi_w = FLEET["node_budget_w"]
    budgets = deck(rng, [n_nodes * (lo_w + (hi_w - lo_w) * i / 12)
                         for i in range(13)])
    lo_d, hi_d = FLEET["drift_frac"]
    drifts = deck(rng, [lo_d + (hi_d - lo_d) * i / 6 for i in range(7)])
    kinds = deck(rng, [kind for kind, share in EVENT_MIX for _ in range(share)])
    events = []
    down: set[int] = set()
    for step in range(1, n_steps + 1):
        if rng.random() >= FLEET["event_prob"]:
            continue
        kind = next(kinds)
        if kind == "set_budget":
            events.append(FaultEvent(at_s=step, action="set_budget",
                                     budget_w=next(budgets)))
        elif kind == "node":
            up = [i for i in range(FLEET["fail_node_ids"]) if i not in down]
            if down and (len(down) >= FLEET["max_nodes_down"]
                         or rng.random() < 0.5):
                node = rng.choice(sorted(down))
                down.discard(node)
                events.append(FaultEvent(at_s=step, action="recover_node",
                                         node_id=node))
            else:
                node = rng.choice(up)
                down.add(node)
                events.append(FaultEvent(at_s=step, action="fail_node",
                                         node_id=node))
        elif kind == "cap_write_fail":
            events.append(FaultEvent(
                at_s=step, action="cap_write_fail",
                node_id=rng.randrange(n_nodes),
                factor=rng.uniform(*FLEET["drop_prob"]),
                seed=rng.randrange(1 << 30)))
        elif kind == "cap_drift":
            events.append(FaultEvent(
                at_s=step, action="cap_drift", node_id=None,
                factor=next(drifts),
                seed=rng.randrange(1 << 30)))
        else:
            events.append(FaultEvent(
                at_s=step, action="sensor_noise",
                node_id=rng.randrange(n_nodes),
                factor=rng.uniform(*FLEET["sensor_noise"]),
                seed=rng.randrange(1 << 30)))
    kinds = deck(rng, [(a.name, n) for a in all_apps()
                       for n in FLEET["job_nodes"]])
    jobs = [next(kinds) for _ in range(n_steps // 2 + FLEET["jobs"])]
    return events, jobs, next(budgets)


def _scheduler():
    from repro.analysis.experiments import build_trained_inflection
    from repro.core.scheduler import ClipScheduler
    from repro.hw.cluster import SimulatedCluster
    from repro.hw.specs import haswell_testbed
    from repro.sim.engine import ExecutionEngine

    engine = ExecutionEngine(
        SimulatedCluster(haswell_testbed(racks=FLEET["racks"])), seed=42)
    return ClipScheduler(engine, inflection=build_trained_inflection(engine))


class Fleet:
    """The runtime, its watchdog, the fault script and the job slots."""

    def __init__(self, seed: int, n_steps: int, journal_path):
        from repro.core.runtime import PowerBoundedRuntime
        from repro.core.watchdog import PowerEnforcementWatchdog
        from repro.sim.faults import FaultInjector
        from repro.workloads.apps import all_apps, get_app

        reset_trained_predictor()
        self.clip = _scheduler()
        for app in all_apps():
            self.clip.ensure_knowledge(app)
        self.events, self.job_stream, budget_w = make_script(seed, n_steps)
        self.apps = {a.name: get_app(a.name) for a in all_apps()}
        self.journal_path = journal_path
        self.runtime = PowerBoundedRuntime(self.clip, journal=journal_path)
        self.watchdog = PowerEnforcementWatchdog(self.runtime)
        self.cluster = self.clip.engine.cluster
        self.injector = FaultInjector(self.cluster, self.events,
                                      budget_w=budget_w)
        self.next_job = 0
        self.slots = [self.launch() for _ in range(FLEET["jobs"])]

    def node_share_w(self) -> float:
        return self.injector.budget_w / _n_nodes()

    def launch(self):
        name, n_nodes = self.job_stream[self.next_job]
        self.next_job += 1
        return self.runtime.launch(
            self.apps[name], n_nodes * self.node_share_w(), n_nodes,
            allow_concurrency_change=True, allow_shrink=True)

    def active(self):
        return [j for j in self.slots if not j.done and not j.parked]


def _state(jobs):
    return [(j.node_ids, j.per_node_caps, j.n_threads, j.parked) for j in jobs]


def _churn(fleet: Fleet, n_steps: int, tracer: Tracer | None,
           speed: HostSpeed) -> dict:
    """Run *n_steps* steps; returns timings, counters and quality."""
    from repro.errors import ClipError

    runtime, injector = fleet.runtime, fleet.injector
    recaps = []
    failed = 0
    cursor = 0
    turn = 0
    audits_before = fleet.clip.monitor.n_audits
    retries_before = sum(n.rapl.actuation_stats["retries"]
                         for n in fleet.cluster.nodes)
    bundles_before = fleet.clip.pipeline.bundle_cache.stats()
    clock = OpClock(speed)
    for step in range(1, n_steps + 1):
        op = tracer.open(OP_SPAN, rid=f"step:{step}") if tracer else None
        clock.start()
        step_recaps = []
        while cursor < len(fleet.events) and fleet.events[cursor].at_s <= step:
            event = fleet.events[cursor]
            cursor += 1
            span = tracer.open("bench.event", rid=f"event:{cursor}") if tracer else None
            t0 = time.perf_counter()
            jobs = fleet.active()
            before = _state(jobs)
            try:
                injector.fire_next(runtime=runtime)
                if event.action == "set_budget":
                    share = fleet.node_share_w()
                    for job in jobs:
                        runtime.update_budget(job, job.n_nodes * share)
            except ClipError:
                failed += 1
            recapped = sum(a != b for a, b in zip(before, _state(jobs)))
            if event.action == "set_budget":
                recapped = len(jobs)
            if event.action in RECAP_ACTIONS and recapped:
                step_recaps.append(time.perf_counter() - t0)
            if span is not None:
                tracer.close(span)
        for _ in range(len(fleet.slots)):
            turn = (turn + 1) % len(fleet.slots)
            job = fleet.slots[turn]
            if not job.parked:
                break
        try:
            runtime.advance(job, FLEET["segment_iterations"])
            if job.done:
                fleet.slots[turn] = fleet.launch()
        except ClipError:
            failed += 1
        if op is not None:
            tracer.close(op)
        factor = clock.stop()
        recaps.extend(t / factor for t in step_recaps)
    runtime.journal.close()
    report = fleet.watchdog.report()
    bundles = fleet.clip.pipeline.bundle_cache.stats()
    hits = bundles["hits"] - bundles_before["hits"]
    lookups = hits + bundles["misses"] - bundles_before["misses"]
    recoordination_sources = ("runtime", "watchdog", "watchdog.emergency")
    return {
        "ops_per_s": clock.ops_per_s(),
        "raw_ops_per_s": clock.raw_ops_per_s(),
        "host_factor": speed.factor(),
        "recaps": recaps,
        "failed": failed,
        "breach_frac": report["breaches"] / max(report["observations"], 1),
        "job_sim_times": [j.elapsed_s for j in runtime.jobs if j.done],
        "bundle_hit_frac": hits / lookups if lookups else 0.0,
        "recoordinations": sum(
            a.source in recoordination_sources
            for a in fleet.clip.monitor.audits[audits_before:]
        ),
        "cap_retries": sum(n.rapl.actuation_stats["retries"]
                           for n in fleet.cluster.nodes) - retries_before,
    }


def _restore_identical(fleet: Fleet) -> bool:
    """Rebuild the runtime from its journal; compare jobs and ledger."""
    from repro.core.runtime import PowerBoundedRuntime

    restored = PowerBoundedRuntime.restore(
        fleet.journal_path, _scheduler(), reattach=False)
    jobs_same = ([asdict(j) for j in fleet.runtime.jobs]
                 == [asdict(j) for j in restored.jobs])
    ledger_same = ([a.to_dict() for a in fleet.runtime.monitor.audits]
                   == [a.to_dict() for a in restored.monitor.audits])
    return jobs_same and ledger_same


def run(seed: int, seconds: int, trace: int, workdir) -> dict:
    share = seconds if not trace else seconds / 2
    n_steps = max(1, round(FLEET["steps_per_s"] * share))
    speed = HostSpeed()
    setups = [] if trace else time_setup_probes(NAME, seed, SETUP_REPEATS,
                                                speed)
    fleet = Fleet(seed, n_steps, workdir / "journal.jsonl")
    plain = _churn(fleet, n_steps, None, speed)
    checks = {
        "zero_audit_violations": fleet.clip.monitor.n_violations == 0,
        "restore_bit_identical": _restore_identical(fleet),
    }
    params = {**FLEET, "testbed": "haswell", "steps": n_steps,
              "events": len(fleet.events)}
    result = {"params": params, "attempted": n_steps, "failed": plain["failed"],
              "checks": checks, "host_factor": plain["host_factor"],
              "raw": {"ops_per_s": plain["raw_ops_per_s"]}}
    if not trace:
        recaps = plain["recaps"]
        result["metrics"] = {
            "setup_s": statistics.median(setups),
            "ops_per_s": plain["ops_per_s"],
            "latency_p50_ms": percentile(recaps, 50) * 1e3,
            "latency_p90_ms": percentile(recaps, 90) * 1e3,
            "peak_rss_mb": peak_rss_mb(),
            "job_sim_time_s": statistics.fmean(plain["job_sim_times"]),
        }
        result["samples"] = {
            "setup_s": len(setups),
            "latency_p50_ms": len(recaps),
            "latency_p90_ms": len(recaps),
            "job_sim_time_s": len(plain["job_sim_times"]),
        }
        result["report"] = {
            "latency_p99_ms": percentile(recaps, 99) * 1e3,
            "breach_frac": plain["breach_frac"],
            "failed_frac": plain["failed"] / n_steps,
        }
        return result

    fleet = Fleet(seed, n_steps, workdir / "journal-traced.jsonl")
    tracer = Tracer()
    probe = LayerProbe(tracer).install()
    try:
        traced = _churn(fleet, n_steps, tracer, speed)
    finally:
        probe.uninstall()
    checks["zero_audit_violations"] &= fleet.clip.monitor.n_violations == 0
    checks["restore_bit_identical"] &= _restore_identical(fleet)
    spans_path = workdir / "spans.jsonl"
    tracer.write_jsonl(spans_path)
    extra = {
        "bundle_hit_frac": traced["bundle_hit_frac"],
        "audits": fleet.clip.monitor.n_audits,
        "violations": fleet.clip.monitor.n_violations,
        "recoordinations": traced["recoordinations"],
        "journal_bytes": fleet.journal_path.stat().st_size,
        "cap_retries": traced["cap_retries"],
        "trace_overhead": plain["ops_per_s"] / traced["ops_per_s"],
    }
    result.update(
        attempted=2 * n_steps,
        failed=plain["failed"] + traced["failed"],
        metrics=layer_metrics(tracer.spans, extra),
        layers=self_table(tracer.spans, n_steps),
        spans=str(spans_path),
    )
    return result
