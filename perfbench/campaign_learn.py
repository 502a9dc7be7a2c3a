"""``campaign-learn``: one caller runs decide -> simulate -> record_outcome.

A learning-on ``ClipScheduler`` on the mixed 4 Haswell + 4 Broadwell
testbed executes a seeded stream of (app, budget) jobs through
``ClipScheduler.run`` in a closed loop.  The stream is balanced (every
app once per block of 13, in seeded order, each with a seeded budget)
so its mean simulated job time moves with decision quality, not with
which apps a seed happened to draw.  Its length is
``CAMPAIGN["jobs_per_s"]`` times the run length: a run executes a fixed
set of jobs, so the decision-and-outcome digest and the mean simulated
job time are functions of the seed alone.  Times are divided by the host
factor of ``speed.py``, probed before and after each job.
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics

from common import deck, peak_rss_mb, reset_trained_predictor, time_setup_probes
from layers import OP_SPAN, LayerProbe, layer_metrics, percentile, self_table
from spans import Tracer
from spec import CAMPAIGN, SETUP_REPEATS
from speed import HostSpeed, OpClock

NAME = "campaign-learn"


def make_stream(seed: int, n_jobs: int) -> list[tuple[str, float]]:
    """Seeded, app-balanced (app name, budget) stream of *n_jobs*."""
    from repro.workloads.apps import all_apps

    rng = random.Random(f"{NAME}:{seed}")
    apps = deck(rng, [a.name for a in all_apps()])
    lo, hi = CAMPAIGN["budget_range_w"]
    return [(next(apps), round(rng.uniform(lo, hi), 1)) for _ in range(n_jobs)]


def setup(seed: int):
    """Train, calibrate and cold-profile a fresh learning-on scheduler."""
    from repro.analysis.experiments import build_trained_inflection
    from repro.core.learning import LearningConfig
    from repro.core.scheduler import ClipScheduler
    from repro.hw.cluster import SimulatedCluster
    from repro.sim.engine import ExecutionEngine
    from repro.workloads.apps import all_apps

    reset_trained_predictor()
    engine = ExecutionEngine(SimulatedCluster.mixed_testbed(), seed=42)
    clip = ClipScheduler(
        engine,
        inflection=build_trained_inflection(engine),
        learning=LearningConfig(enabled=True, seed=seed),
    )
    for app in all_apps():
        clip.ensure_knowledge(app)
    return clip


def _campaign(clip, stream, tracer: Tracer | None, speed: HostSpeed) -> dict:
    """Run the stream once; returns timings, quality and digest."""
    from repro.errors import ClipError
    from repro.workloads.apps import get_app

    apps = {name: get_app(name) for name, _ in stream}
    before = clip.pipeline.learning_stats()
    bundles_before = clip.pipeline.bundle_cache.stats()
    digest = hashlib.sha256()
    sim_times = []
    failed = 0
    clock = OpClock(speed)
    for i, (name, budget) in enumerate(stream):
        span = tracer.open(OP_SPAN, rid=i) if tracer else None
        clock.start()
        try:
            decision, result = clip.run(apps[name], budget)
        except ClipError:
            failed += 1
            continue
        finally:
            if span is not None:
                tracer.close(span)
        clock.stop()
        sim_times.append(result.total_time_s)
        digest.update(json.dumps(
            [decision.to_dict(), result.performance, result.total_time_s,
             result.energy_j],
            sort_keys=True,
        ).encode())
    after = clip.pipeline.learning_stats()
    bundles = clip.pipeline.bundle_cache.stats()
    lookups = (bundles["hits"] - bundles_before["hits"]
               + bundles["misses"] - bundles_before["misses"])
    return {
        "ops_per_s": clock.ops_per_s(),
        "raw_ops_per_s": clock.raw_ops_per_s(),
        "host_factor": speed.factor(),
        "latencies": clock.scaled,
        "sim_times": sim_times,
        "failed": failed,
        "digest": digest.hexdigest(),
        "refits": after["refits"] - before["refits"],
        "explorations": after["explorations"] - before["explorations"],
        "bundle_hit_frac": (
            (bundles["hits"] - bundles_before["hits"]) / lookups
            if lookups else 0.0
        ),
    }


def run(seed: int, seconds: int, trace: int, workdir) -> dict:
    n_share = seconds if not trace else seconds / 2
    stream = make_stream(seed, max(1, round(CAMPAIGN["jobs_per_s"] * n_share)))
    params = {**CAMPAIGN, "testbed": "mixed", "jobs": len(stream)}
    speed = HostSpeed()
    setups = [] if trace else time_setup_probes(NAME, seed, SETUP_REPEATS,
                                                speed)
    clip = setup(seed)
    plain = _campaign(clip, stream, None, speed)
    violations = clip.monitor.n_violations
    checks = {"zero_audit_violations": violations == 0}
    n = len(stream)
    result = {
        "params": params,
        "attempted": n,
        "failed": plain["failed"],
        "checks": checks,
        "digest": plain["digest"],
        "host_factor": plain["host_factor"],
        "raw": {"ops_per_s": plain["raw_ops_per_s"]},
    }
    if not trace:
        lat = plain["latencies"]
        result["metrics"] = {
            "setup_s": statistics.median(setups),
            "ops_per_s": plain["ops_per_s"],
            "latency_p50_ms": percentile(lat, 50) * 1e3,
            "latency_p90_ms": percentile(lat, 90) * 1e3,
            "peak_rss_mb": peak_rss_mb(),
            "job_sim_time_s": statistics.fmean(plain["sim_times"]),
        }
        result["samples"] = {
            "setup_s": len(setups),
            "latency_p50_ms": len(lat),
            "latency_p90_ms": len(lat),
            "job_sim_time_s": len(plain["sim_times"]),
        }
        result["report"] = {
            "latency_p99_ms": percentile(lat, 99) * 1e3,
            "failed_frac": plain["failed"] / n,
        }
        return result

    clip = setup(seed)
    tracer = Tracer()
    probe = LayerProbe(tracer).install()
    try:
        traced = _campaign(clip, stream, tracer, speed)
    finally:
        probe.uninstall()
    violations_traced = clip.monitor.n_violations
    checks["zero_audit_violations"] &= violations_traced == 0
    checks["traced_digest_identical"] = traced["digest"] == plain["digest"]
    spans_path = workdir / "spans.jsonl"
    tracer.write_jsonl(spans_path)
    extra = {
        "bundle_hit_frac": traced["bundle_hit_frac"],
        "audits": clip.monitor.n_audits,
        "violations": violations_traced,
        "refits": traced["refits"],
        "explorations": traced["explorations"],
        "trace_overhead": plain["ops_per_s"] / traced["ops_per_s"],
    }
    result.update(
        attempted=2 * n,
        failed=plain["failed"] + traced["failed"],
        metrics=layer_metrics(tracer.spans, extra),
        layers=self_table(tracer.spans, n),
        spans=str(spans_path),
    )
    return result
