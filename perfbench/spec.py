"""What the benchmark measures: workloads, metrics, bounds and frozen rates.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 perfbench/run.py --write-spec``), so the two cannot drift.
The workload parameters below are frozen: changing one changes the
benchmark, which is its own change, never part of a change that claims
a gain.
"""

from __future__ import annotations

#: Length of one measured run, in seconds.
RUN_SECONDS = 15

#: A seed no tuning run used; a later claim must also hold on it.
HELD_OUT_SEED = 6151

#: Set-ups per run; ``setup_s`` reports their median.
SETUP_REPEATS = 9

# -- serve-open ----------------------------------------------------------

SERVE = {
    "service_budget_w": 1800.0,
    #: tenant-b's quota sits below the service budget, so its larger
    #: requests are clamped
    "quota": {"tenant-b": 1200.0},
    "tenants": ("tenant-a", "tenant-b"),
    "job_budget_grid_w": (900.0, 1800.0, 25.0),
    "burst_jobs": (1, 8),
    #: under half the raw saturated rate the defining host (2 vCPU)
    #: sustains on one connection (~350-400 decisions/s; ~700 scaled to
    #: its fast speed), so a slow spell does not saturate the open loop
    "offered_jobs_per_s": 150.0,
    "open_share": 0.6,
    #: the saturated phase sends this rate times its share of the run,
    #: so every run decides the same jobs and holds the same records
    "saturated_jobs_per_s": 440.0,
    "outcome_prob": 0.1,
    "outcome_noise": 0.05,
    "scrape_interval_s": 0.25,
    #: open-loop latencies are summarized per window of this many seconds
    #: of due times, and the figure is the median over the windows
    "window_s": 0.5,
    #: saturated throughput is taken over runs of this many consecutive
    #: requests (one pass of the burst-size deck), median over the runs
    "window_requests": 8,
}

# -- campaign-learn ------------------------------------------------------

CAMPAIGN = {
    "budget_range_w": (1000.0, 1800.0),
    #: the stream length is this rate times the run length, so a run
    #: executes a fixed, seed-determined set of jobs
    "jobs_per_s": 70.0,
}

# -- fleet-churn ---------------------------------------------------------

FLEET = {
    "racks": 8,
    "jobs": 4,
    "job_nodes": (4, 6, 8),
    "segment_iterations": 20,
    "steps_per_s": 180.0,
    #: per-node share of the cluster budget a swing may set
    "node_budget_w": (110.0, 240.0),
    "event_prob": 0.55,
    #: node failures hit the low ids, where launches place jobs
    "fail_node_ids": 12,
    "max_nodes_down": 3,
    "drop_prob": (0.02, 0.1),
    "drift_frac": (-0.05, 0.3),
    "sensor_noise": (0.01, 0.04),
}

WORKLOADS = (
    (
        "serve-open",
        "8-node Haswell daemon, learning off, 2 tenants, 1-8 job bursts of "
        f"13 apps: open loop at {SERVE['offered_jobs_per_s']:g} jobs/s, then "
        "saturated; only the decision path works (HTTP, admission, "
        "coalescer, pipeline, audit)",
    ),
    (
        "campaign-learn",
        "mixed 4+4 fleet, learning on: closed loop decide, simulate, "
        "record_outcome over a seeded (app, budget) stream; the simulator "
        "and refits dominate, HTTP and the coalescer are idle",
    ),
    (
        "fleet-churn",
        "64 Haswell nodes in 8 racks, 4 shrinkable jobs under seeded node, "
        "budget, cap-write, drift and sensor faults: re-coordination, "
        "verified caps, watchdog and journal",
    ),
)

#: name, unit, better, bound (share of the parent's median).  Each bound
#: is at least 2.5 times the largest quartile spread over ten seeds
#: measured on the defining host (timings up to 0.096, set-up 0.09).
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_p90_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("job_sim_time_s", "s", "lower", 0.1),
)

#: Figures the report prints and ``--compare`` checks, kept out of
#: BENCHMARK.json: every metric there must be reported, non-zero and
#: steady by every workload, and these are not (p99 spreads too widely
#: on the defining host, breach_frac exists on fleet-churn only, and
#: failed_frac is 0 by design).
REPORT_ONLY = (
    ("latency_p99_ms", "ms", "lower", 0.25),
    ("breach_frac", "ratio", "lower", 0.25),
    ("failed_frac", "ratio", "lower", 0.0),
)

#: Pipeline stages as ``DecisionTrace`` records them, in order.
STAGES = ("profile", "classify", "inflection", "fit_models", "allocate",
          "recommend")

#: name, unit, better.
PER_LAYER = (
    ("serve.http.self_ms_p50", "ms", "lower"),
    ("serve.stats.ms_p50", "ms", "lower"),
    ("serve.outcome.ms_p50", "ms", "lower"),
    ("serve.admission.us_p50", "us", "lower"),
    ("serve.coalescer.wait_ms_p50", "ms", "lower"),
    ("serve.coalescer.wait_ms_p99", "ms", "lower"),
    ("serve.coalescer.burst_jobs_mean", "count", "higher"),
    ("serve.decide_burst.ms_p50", "ms", "lower"),
    *((f"pipeline.{s}.us_p50", "us", "lower") for s in STAGES),
    ("pipeline.allocate.busy_frac", "ratio", "lower"),
    ("pipeline.recommend.busy_frac", "ratio", "lower"),
    ("pipeline.decide.calls", "count", "higher"),
    ("pipeline.memo_hit_frac", "ratio", "higher"),
    ("pipeline.bundle_cache.hit_frac", "ratio", "higher"),
    ("monitor.audit.us_p50", "us", "lower"),
    ("monitor.audits", "count", "higher"),
    ("monitor.violations", "count", "lower"),
    ("sim.run.ms_p50", "ms", "lower"),
    ("sim.run.calls", "count", "higher"),
    ("sim.run.busy_frac", "ratio", "lower"),
    ("sim.evaluate_many.configs", "count", "higher"),
    ("learning.record_outcome.us_p50", "us", "lower"),
    ("learning.refits", "count", "higher"),
    ("learning.explorations", "count", "higher"),
    ("runtime.advance.self_ms_p50", "ms", "lower"),
    ("runtime.update_budget.ms_p50", "ms", "lower"),
    ("runtime.fail_node.ms_p50", "ms", "lower"),
    ("runtime.recover_node.ms_p50", "ms", "lower"),
    ("runtime.recoordinations", "count", "higher"),
    ("watchdog.observe.us_p50", "us", "lower"),
    ("watchdog.corrections.reissue", "count", "lower"),
    ("watchdog.corrections.recoordinate", "count", "lower"),
    ("watchdog.corrections.emergency", "count", "lower"),
    ("journal.append.us_p50", "us", "lower"),
    ("journal.appends", "count", "higher"),
    ("journal.bytes", "bytes", "lower"),
    ("rapl.set_cap_verified.calls", "count", "higher"),
    ("rapl.cap_retries", "count", "lower"),
    ("rapl.cap_write_failures", "count", "lower"),
    ("loadgen.late_p99_ms", "ms", "lower"),
    ("loadgen.offered_rps", "1/s", "higher"),
    ("trace_overhead", "ratio", "lower"),
    ("trace.blocking_share", "ratio", "higher"),
)

UNITS = {name: unit for name, unit, *_ in (*END_TO_END, *REPORT_ONLY, *PER_LAYER)}
BOUNDS = {name: bound for name, _, _, bound, *_ in (*END_TO_END, *REPORT_ONLY)}
BETTER = {name: better for name, _, better, *_ in
          (*END_TO_END, *REPORT_ONLY, *PER_LAYER)}


def benchmark_json() -> dict:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER
        ],
    }
