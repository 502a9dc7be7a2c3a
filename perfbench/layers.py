"""Span wrappers around the public entry points of each ``repro`` layer,
and the per-layer metrics computed from the spans they record.

:class:`LayerProbe` patches classes from outside the program.
``DecisionPipeline.decide`` is routed through ``decide_traced`` so the
six stage timings come from the program's own ``DecisionTrace``; they
become child spans of ``pipeline.decide``, laid out back to back from
its start, and spans recorded inside a stage (simulator runs during a
cold profile) are re-parented to that stage.  Module-level functions
imported by name (``coordinate_power``, ``split_cluster_budget``)
cannot be intercepted this way: their time is part of the self time of
the runtime or pipeline span that calls them.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from spans import ATTRS, END, ID, NAME, PARENT, RID, START, Tracer, self_times
from spec import STAGES

#: Watchdog actions counted as each correction rung.
RUNGS = {
    "reissue": ("reissue",),
    "recoordinate": ("recoordinate",),
    "emergency": ("emergency", "emergency.hold"),
}

#: The span the benchmark opens around one operation.  Spans named
#: ``bench.*`` belong to the benchmark, not to a layer of the program.
OP_SPAN = "bench.op"


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100]; 0.0 when empty."""
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class LayerProbe:
    """Installs the layer wrappers on one :class:`Tracer`."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        #: job id -> perf_counter when its admission returned
        self._admitted: dict[str, float] = {}

    def install(self) -> "LayerProbe":
        from repro.core.journal import RuntimeJournal
        from repro.core.monitor import BudgetInvariantMonitor
        from repro.core.pipeline import DecisionPipeline
        from repro.core.runtime import PowerBoundedRuntime
        from repro.core.scheduler import ClipScheduler
        from repro.core.watchdog import PowerEnforcementWatchdog
        from repro.hw.rapl import RaplInterface
        from repro.serve.service import SchedulerService
        from repro.sim.engine import ExecutionEngine

        t = self.tracer
        t.wrap(SchedulerService, "submit", "serve.admission",
               after=self._admitted_jobs)
        t.patch(SchedulerService, "decide_burst", self._decide_burst)
        t.wrap(SchedulerService, "record_outcome", "serve.outcome",
               rid=lambda a, k: a[1])
        t.wrap(SchedulerService, "stats", "serve.stats")
        t.wrap(ClipScheduler, "run", "scheduler.run")
        t.wrap(ClipScheduler, "schedule", "scheduler.schedule")
        t.wrap(DecisionPipeline, "decide_many", "pipeline.decide_many",
               after=self._memo)
        t.patch(DecisionPipeline, "decide", self._decide)
        t.wrap(DecisionPipeline, "record_outcome", "learning.record_outcome")
        t.wrap(BudgetInvariantMonitor, "audit", "monitor.audit")
        t.wrap(ExecutionEngine, "run", "sim.run")
        t.wrap(ExecutionEngine, "evaluate_many", "sim.evaluate_many",
               after=lambda s, a, k, r: _attrs(s, configs=len(a[2])))
        for name in ("launch", "advance", "update_budget", "fail_node",
                     "recover_node", "recoordinate", "reissue_caps",
                     "emergency_throttle"):
            t.wrap(PowerBoundedRuntime, name, f"runtime.{name}")
        t.wrap(PowerEnforcementWatchdog, "observe", "watchdog.observe",
               after=lambda s, a, k, r: _attrs(s, action=r.action))
        t.wrap(RuntimeJournal, "append", "journal.append")
        t.wrap(RaplInterface, "set_cap_verified", "rapl.set_cap_verified")
        return self

    def uninstall(self) -> None:
        self.tracer.undo()

    # -- wrappers that need more than a span ---------------------------

    def _admitted_jobs(self, span, args, kwargs, submissions) -> None:
        if submissions:
            span[RID] = submissions[0].record.job_id
        for sub in submissions:
            self._admitted[sub.record.job_id] = span[END]

    def _decide_burst(self, original):
        probe = self

        def decide_burst(service, batch):
            tracer = probe.tracer
            span = tracer.open("serve.decide_burst",
                               f"burst:{batch[0].record.job_id}")
            for sub in batch:
                job_id = sub.record.job_id
                admitted = probe._admitted.pop(job_id, None)
                if admitted is not None:
                    tracer.add("serve.coalescer.wait", admitted, span[START],
                               rid=job_id)
            try:
                return original(service, batch)
            finally:
                tracer.close(span, jobs=len(batch))

        return decide_burst

    def _memo(self, span, args, kwargs, result) -> None:
        apps = args[1]
        _attrs(span, jobs=len(apps),
               distinct=len({(a.name, a.problem_size) for a in apps}))

    def _decide(self, original):
        probe = self

        def decide(pipeline, app, cluster_budget_w,
                   predefined_node_counts=None, allocation_mode="predictive"):
            tracer = probe.tracer
            first = len(tracer.spans)
            span = tracer.open("pipeline.decide")
            try:
                decision, trace = pipeline.decide_traced(
                    app,
                    cluster_budget_w,
                    predefined_node_counts=predefined_node_counts,
                    allocation_mode=allocation_mode,
                )
            except BaseException as exc:
                tracer.close(span, error=type(exc).__name__)
                raise
            tracer.close(span)
            probe._stage_spans(span, trace, first)
            return decision

        return decide

    def _stage_spans(self, span, trace, first: int) -> None:
        """Lay the trace's stages out inside *span*; adopt their children."""
        tracer = self.tracer
        t = span[START]
        windows = []
        for record in trace.stages:
            end = t + record.wall_time_s
            if record.stage != "audit":  # audits carry their own spans
                windows.append(tracer.add(f"pipeline.{record.stage}", t, end,
                                          rid=span[RID], parent=span[ID]))
            t = end
        for child in tracer.spans[first:]:
            if child[PARENT] != span[ID] or child[NAME].startswith("pipeline."):
                continue
            mid = 0.5 * (child[START] + child[END])
            for w in windows:
                if w[START] <= mid <= w[END]:
                    child[PARENT] = w[ID]
                    break


def _attrs(span, **attrs) -> None:
    span[ATTRS] = {**(span[ATTRS] or {}), **attrs}


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------


def self_table(spans: list[list], n_ops: int) -> dict[str, dict]:
    """Per span name: calls, total and per-op self time, median self time."""
    selfs = self_times(spans)
    groups: dict[str, list[float]] = defaultdict(list)
    for s in spans:
        groups[s[NAME]].append(selfs[s[ID]])
    return {
        name: {
            "calls": len(vals),
            "self_ms_total": sum(vals) * 1e3,
            "self_ms_per_op": sum(vals) * 1e3 / max(n_ops, 1),
            "self_ms_p50": percentile(vals, 50) * 1e3,
        }
        for name, vals in sorted(groups.items())
    }


def blocking_share(spans: list[list]) -> float:
    """Share of the median op latency that the layers' median self times
    account for, summed over the layers under each ``bench.op`` span."""
    selfs = self_times(spans)
    children: dict[int, list[list]] = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None:
            children[s[PARENT]].append(s)
    roots = [s for s in spans if s[NAME] == OP_SPAN]
    if not roots:
        return 0.0
    per_layer: dict[str, list[float]] = defaultdict(lambda: [0.0] * len(roots))
    for i, root in enumerate(roots):
        todo = list(children.get(root[ID], ()))
        while todo:
            s = todo.pop()
            if not s[NAME].startswith("bench."):
                per_layer[s[NAME]][i] += selfs[s[ID]]
            todo.extend(children.get(s[ID], ()))
    op_p50 = percentile([r[END] - r[START] for r in roots], 50)
    covered_s = sum(percentile(v, 50) for v in per_layer.values())
    return covered_s / op_p50 if op_p50 > 0 else 0.0


def layer_metrics(spans: list[list], extra: dict) -> dict[str, float]:
    """Every per-layer metric; layers a workload never calls read 0.

    *extra* carries what spans cannot show: client-side round trips,
    counter deltas from ``stats()``, file sizes, and ``trace_overhead``,
    which needs the untraced half of the run.
    """
    by_name: dict[str, list[list]] = defaultdict(list)
    for s in spans:
        by_name[s[NAME]].append(s)
    selfs = self_times(spans)

    def durations(name):
        return [s[END] - s[START] for s in by_name.get(name, ())]

    def p50(name, scale):
        return percentile(durations(name), 50) * scale

    def total(name):
        return sum(durations(name))

    decide_s = total("pipeline.decide")
    ops_s = total(OP_SPAN)
    bursts = by_name.get("serve.decide_burst", ())
    many = by_name.get("pipeline.decide_many", ())
    many_jobs = sum(s[ATTRS]["jobs"] for s in many if s[ATTRS])
    many_distinct = sum(s[ATTRS]["distinct"] for s in many if s[ATTRS])
    actions = [
        (s[ATTRS] or {}).get("action") for s in by_name.get("watchdog.observe", ())
    ]
    waits = durations("serve.coalescer.wait")
    # the daemon's host-speed probe runs inside each burst span
    probes = {s[PARENT]: s[END] - s[START] for s in by_name.get("bench.probe", ())}
    m = {
        "serve.http.self_ms_p50": extra.get("http_self_ms_p50", 0.0),
        "serve.stats.ms_p50": extra.get("stats_ms_p50", 0.0),
        "serve.outcome.ms_p50": extra.get("outcome_ms_p50", 0.0),
        "serve.admission.us_p50": p50("serve.admission", 1e6),
        "serve.coalescer.wait_ms_p50": percentile(waits, 50) * 1e3,
        "serve.coalescer.wait_ms_p99": percentile(waits, 99) * 1e3,
        "serve.coalescer.burst_jobs_mean": (
            statistics.fmean(s[ATTRS]["jobs"] for s in bursts) if bursts else 0.0
        ),
        "serve.decide_burst.ms_p50": percentile(
            [s[END] - s[START] - probes.get(s[ID], 0.0) for s in bursts], 50
        ) * 1e3,
    }
    for stage in STAGES:
        m[f"pipeline.{stage}.us_p50"] = p50(f"pipeline.{stage}", 1e6)
    m.update({
        "pipeline.allocate.busy_frac": (
            total("pipeline.allocate") / decide_s if decide_s else 0.0
        ),
        "pipeline.recommend.busy_frac": (
            total("pipeline.recommend") / decide_s if decide_s else 0.0
        ),
        "pipeline.decide.calls": len(by_name.get("pipeline.decide", ())),
        "pipeline.memo_hit_frac": (
            (many_jobs - many_distinct) / many_jobs if many_jobs else 0.0
        ),
        "pipeline.bundle_cache.hit_frac": extra.get("bundle_hit_frac", 0.0),
        "monitor.audit.us_p50": p50("monitor.audit", 1e6),
        "monitor.audits": extra.get("audits", 0),
        "monitor.violations": extra.get("violations", 0),
        "sim.run.ms_p50": p50("sim.run", 1e3),
        "sim.run.calls": len(by_name.get("sim.run", ())),
        "sim.run.busy_frac": total("sim.run") / ops_s if ops_s else 0.0,
        "sim.evaluate_many.configs": sum(
            (s[ATTRS] or {}).get("configs", 0)
            for s in by_name.get("sim.evaluate_many", ())
        ),
        "learning.record_outcome.us_p50": p50("learning.record_outcome", 1e6),
        "learning.refits": extra.get("refits", 0),
        "learning.explorations": extra.get("explorations", 0),
        "runtime.advance.self_ms_p50": percentile(
            [selfs[s[ID]] for s in by_name.get("runtime.advance", ())], 50
        ) * 1e3,
        "runtime.update_budget.ms_p50": p50("runtime.update_budget", 1e3),
        "runtime.fail_node.ms_p50": p50("runtime.fail_node", 1e3),
        "runtime.recover_node.ms_p50": p50("runtime.recover_node", 1e3),
        "runtime.recoordinations": extra.get("recoordinations", 0),
        "watchdog.observe.us_p50": p50("watchdog.observe", 1e6),
    })
    for rung, names in RUNGS.items():
        m[f"watchdog.corrections.{rung}"] = sum(a in names for a in actions)
    m.update({
        "journal.append.us_p50": p50("journal.append", 1e6),
        "journal.appends": len(by_name.get("journal.append", ())),
        "journal.bytes": extra.get("journal_bytes", 0),
        "rapl.set_cap_verified.calls": len(
            by_name.get("rapl.set_cap_verified", ())
        ),
        "rapl.cap_retries": extra.get("cap_retries", 0),
        "rapl.cap_write_failures": sum(
            1 for s in by_name.get("rapl.set_cap_verified", ())
            if (s[ATTRS] or {}).get("error")
        ),
        "loadgen.late_p99_ms": extra.get("late_p99_ms", 0.0),
        "loadgen.offered_rps": extra.get("offered_rps", 0.0),
        "trace_overhead": extra.get("trace_overhead", 0.0),
        "trace.blocking_share": extra.get(
            "blocking_share", blocking_share(spans)
        ),
    })
    return m
