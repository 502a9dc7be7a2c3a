"""``serve-open``: HTTP load against a ``clip-sched serve`` daemon process.

The daemon is the paper's 8-node Haswell testbed with learning off,
service budget 1800 W, and two tenants; ``tenant-b`` has a 1200 W
quota.  The load comes from this process: one thread with one
keep-alive connection, sending seeded bursts of 1-8 jobs (sizes from a
shuffled deck) drawn from all 13 apps, each job with its own budget from
a 25 W grid.  This process and the daemon run on one CPU (see
``common.pin_to_one_cpu``).

1. **open loop** at a fixed offered rate (``SERVE["offered_jobs_per_s"]``);
   a burst of k jobs is due k/rate seconds after the previous one, and
   each job's latency runs from when its burst was due to when its
   decision arrived, so a stall also delays the bursts behind it.  The
   p50 and p90 are taken per ``window_s`` of due times and reported as
   the median over the windows;
2. **saturated** closed loop on the same connection: a fixed number of
   jobs (``saturated_jobs_per_s`` times the rest of the run) sent back
   to back; throughput per run of ``window_requests`` requests, median
   over the runs.

In both phases about one decided job in ten gets a ``POST .../outcome``
(predicted performance times seeded noise) and a ``GET /v1/stats``
scrape runs every ``scrape_interval_s``.  After the load, every decision
is compared byte for byte (``to_dict``) with a fresh in-process
``schedule_many`` for the same (app, budget, seed), and its simulated
job time is taken from the engine's side-effect-free evaluator.

Times are divided by the host factor of ``speed.py``.  The daemon
probes on its decision thread before every burst and reports the probes
when it stops; each job's latency is scaled by the median factor of the
five probes around the time its decision arrived (a probe can wait for
the interpreter lock the event loop holds; the median drops those), and
each stretch of the saturated phase between two replies by the probes
around the later reply.  ``perf_counter`` is one system-wide monotonic
clock here, so the two processes' timestamps compare.
"""

from __future__ import annotations

import bisect
import json
import random
import signal
import socket
import statistics
import subprocess
import sys
import time

from common import HERE, ROOT, BenchError, deck, scaled_setup
from layers import layer_metrics, percentile, self_table
from spans import START, read_jsonl
from spec import SERVE, SETUP_REPEATS
from speed import REF_NOMINAL_S, HostSpeed

NAME = "serve-open"
HEALTH_TIMEOUT_S = 120.0


def _free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _spin_until(due: float) -> None:
    """Busy-wait until *due*, so the CPU does not halt before a send."""
    while time.perf_counter() < due:
        pass


def _app_names() -> list[str]:
    from repro.workloads.apps import all_apps

    return [a.name for a in all_apps()]


class Daemon:
    """One ``perfbench/daemon.py`` process and its files."""

    def __init__(self, workdir, tag: str, traced: bool):
        self.port = _free_port()
        self.report_path = workdir / f"daemon-{tag}.json"
        self.spans_path = workdir / f"spans-{tag}.jsonl" if traced else None
        self._log = open(workdir / f"daemon-{tag}.log", "w", encoding="utf-8")
        cmd = [sys.executable, str(HERE / "daemon.py"), "--port",
               str(self.port), "--report", str(self.report_path)]
        if traced:
            cmd += ["--trace-out", str(self.spans_path)]
        cmd += ["--", "--budget", str(SERVE["service_budget_w"])]
        for tenant, watts in SERVE["quota"].items():
            cmd += ["--quota", f"{tenant}={watts}"]
        self.proc = subprocess.Popen(cmd, cwd=ROOT, stdout=self._log,
                                     stderr=subprocess.STDOUT)

    def wait_healthy(self) -> None:
        from repro.errors import ServeError
        from repro.serve import ServeClient

        deadline = time.monotonic() + HEALTH_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise BenchError(f"daemon exited with {self.proc.returncode}")
            try:
                with ServeClient("127.0.0.1", self.port, timeout=5) as c:
                    c.health()
                return
            except (OSError, ServeError):
                time.sleep(0.02)
        raise BenchError("daemon did not become healthy")

    def stop(self) -> dict:
        """SIGTERM, wait, and return the daemon's report."""
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        finally:
            self._log.close()
        if not self.report_path.exists():
            return {"exit_code": self.proc.returncode, "peak_rss_mb": 0.0}
        return json.loads(self.report_path.read_text())


def _start(workdir, tag: str, traced: bool) -> tuple[Daemon, float]:
    """Spawn, health-check and warm (cold-profile every app) a daemon;
    returns it with the wall seconds that took."""
    from repro.serve import ServeClient

    start = time.perf_counter()
    daemon = Daemon(workdir, tag, traced)
    try:
        daemon.wait_healthy()
        with ServeClient("127.0.0.1", daemon.port) as client:
            client.submit(_app_names(), tenant=SERVE["tenants"][0])
    except BaseException:
        daemon.stop()
        raise
    return daemon, time.perf_counter() - start


class Load:
    """The seeded burst stream and everything measured on its connection."""

    def __init__(self, seed: int, port: int):
        self.port = port
        self.seed = seed
        self._rng = random.Random(f"{NAME}:{seed}")
        lo, hi, step = SERVE["job_budget_grid_w"]
        budgets = [lo + i * step for i in range(int((hi - lo) / step) + 1)]
        self._apps = deck(self._rng, _app_names())
        self._budgets = deck(self._rng, budgets)
        self._tenants = deck(self._rng, SERVE["tenants"])
        lo, hi = SERVE["burst_jobs"]
        self._sizes = deck(self._rng, range(lo, hi + 1))
        self._next_scrape = 0.0
        self.jobs: list[dict] = []  # decided jobs: record + due/recv
        self.requests: list[dict] = []
        self.outcome_rtts: list[float] = []
        self.stats_rtts: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.offered = 0
        self.started = 0.0

    def _burst(self) -> tuple[list[dict], str]:
        size = next(self._sizes)
        jobs = [{"app": next(self._apps), "budget_w": next(self._budgets)}
                for _ in range(size)]
        return jobs, next(self._tenants)

    def phase(self, name: str, seconds: float, rate: float | None,
              jobs: int = 0) -> float:
        """Run one phase on one connection; returns its wall seconds.

        With a *rate* the phase offers bursts on that schedule for
        *seconds*; without one it sends back to back until *jobs* jobs
        have been sent.
        """
        from repro.serve import ServeClient

        rng = random.Random(f"{NAME}:{self.seed}:{name}")
        start = time.perf_counter()
        due, offered = start, 0
        self._next_scrape = start
        with ServeClient("127.0.0.1", self.port) as client:
            while (due < start + seconds) if rate else (offered < jobs):
                burst, tenant = self._burst()
                offered += len(burst)
                if rate:
                    _spin_until(due)
                    self._submit(client, name, burst, tenant, due, rng)
                    due += len(burst) / rate
                else:
                    self._submit(client, name, burst, tenant, None, rng)
                self._maybe_scrape(client)
        self.offered = offered
        return time.perf_counter() - start

    def _call(self, client, method: str, path: str, payload=None):
        """One round trip: ``(status, body, seconds)``; status 0 on error."""
        from repro.errors import ServeError

        t0 = time.perf_counter()
        try:
            status, body = client.request(method, path, payload)
        except (OSError, ServeError):
            return 0, {}, time.perf_counter() - t0
        return status, body, time.perf_counter() - t0

    def _submit(self, client, phase, jobs, tenant, due, rng) -> None:
        send = time.perf_counter()
        status, body, rtt = self._call(
            client, "POST", "/v1/jobs",
            {"jobs": jobs, "tenant": tenant, "wait": True})
        recv = send + rtt
        due = send if due is None else due
        records = body.get("jobs", []) if status == 200 else []
        done = [r for r in records if r.get("status") == "done"]
        self.attempted += len(jobs)
        self.failed += len(jobs) - len(done)
        self.requests.append({
            "phase": phase, "due": due, "send": send, "recv": recv,
            "jobs": len(done),
            "server_s": max((r["latency_s"] for r in done), default=None),
        })
        for r in done:
            self.jobs.append({"phase": phase, "due": due, "recv": recv,
                              "app": r["app"], "budget_w": r["budget_w"],
                              "decision": r["decision"]})
        for r in done:
            if rng.random() >= SERVE["outcome_prob"]:
                continue
            perf = r["decision"]["allocation"]["predicted_cluster_perf"]
            noisy = perf * max(0.05, 1.0 + rng.gauss(0.0, SERVE["outcome_noise"]))
            status, _, rtt = self._call(
                client, "POST", f"/v1/jobs/{r['job_id']}/outcome",
                {"performance": noisy})
            self.attempted += 1
            self.failed += status != 200
            self.outcome_rtts.append(rtt)

    def _maybe_scrape(self, client) -> None:
        now = time.perf_counter()
        if now < self._next_scrape:
            return
        self._next_scrape = now + SERVE["scrape_interval_s"]
        status, _, rtt = self._call(client, "GET", "/v1/stats")
        self.attempted += 1
        self.failed += status != 200
        self.stats_rtts.append(rtt)

    def stats(self) -> dict:
        from repro.serve import ServeClient

        with ServeClient("127.0.0.1", self.port) as client:
            return client.stats()


def _drive(daemon: Daemon, seed: int, seconds: float) -> dict:
    """Both phases against one warm daemon, then stop it."""
    load = Load(seed, daemon.port)
    try:
        before = load.stats()
        load.started = time.perf_counter()
        open_s = seconds * SERVE["open_share"]
        load.phase("open", open_s, SERVE["offered_jobs_per_s"])
        offered = load.offered
        sat_start = time.perf_counter()
        sat_target = round(SERVE["saturated_jobs_per_s"] * (seconds - open_s))
        sat_s = load.phase("saturated", 0.0, None, sat_target)
        after = load.stats()
    finally:
        report = daemon.stop()
    stamps, durations = report.get("probes", ([], []))
    factors = [d / REF_NOMINAL_S for d in durations]

    def factor_at(t: float) -> float:
        i = bisect.bisect_right(stamps, t)
        near = factors[max(i - 3, 0):i + 2]
        return statistics.median(near) if near else 1.0

    # open loop: each job's scaled latency, grouped by when it was due
    open_jobs = [j for j in load.jobs if j["phase"] == "open"]
    windows: dict[int, list[float]] = {}
    for j in open_jobs:
        windows.setdefault(int((j["due"] - load.started) / SERVE["window_s"]),
                           []).append((j["recv"] - j["due"]) / factor_at(j["recv"]))
    # saturated: the scaled throughput of each run of consecutive
    # requests, each stretch between two replies scaled by the host
    # factor when the later one arrived
    sat = sorted((q for q in load.requests if q["phase"] == "saturated"),
                 key=lambda q: q["recv"])
    rates, last = [], sat_start
    size = SERVE["window_requests"]
    for i in range(0, len(sat) - size + 1, size):
        scaled = 0.0
        for q in sat[i:i + size]:
            scaled += (q["recv"] - last) / factor_at(q["recv"])
            last = q["recv"]
        rates.append(sum(q["jobs"] for q in sat[i:i + size]) / scaled)
    sat_jobs = sum(q["jobs"] for q in sat)
    hits = after["bundle_cache"]["hits"] - before["bundle_cache"]["hits"]
    lookups = hits + after["bundle_cache"]["misses"] - before["bundle_cache"]["misses"]
    return {
        "load": load,
        "daemon": report,
        "host_factor": statistics.median(factors) if factors else 1.0,
        "latency_windows": list(windows.values()),
        "raw_latencies": [j["recv"] - j["due"] for j in open_jobs],
        "ops_per_s": statistics.median(rates),
        "ops_windows": len(rates),
        "raw_ops_per_s": sat_jobs / sat_s,
        "offered_rps": offered / open_s,
        "violations": after["audit_violations"],
        "audits": after["audits"] - before["audits"],
        "bundle_hit_frac": hits / lookups if lookups else 0.0,
    }


class Reference:
    """Fresh in-process scheduler with the daemon's configuration."""

    def __init__(self):
        from repro.analysis.experiments import build_trained_inflection
        from repro.core.scheduler import ClipScheduler
        from repro.hw.cluster import SimulatedCluster
        from repro.sim.engine import ExecutionEngine

        self.engine = ExecutionEngine(SimulatedCluster.testbed(), seed=42)
        self.clip = ClipScheduler(
            self.engine, inflection=build_trained_inflection(self.engine))
        self._cache: dict[tuple[str, float], tuple[str, float]] = {}

    def check(self, jobs: list[dict]) -> tuple[int, list[float]]:
        """Mismatching decisions, and each job's simulated time."""
        from repro.workloads.apps import get_app

        mismatches = 0
        sim_times = []
        for job in jobs:
            key = (job["app"], job["budget_w"])
            if key not in self._cache:
                app = get_app(job["app"])
                decision = self.clip.schedule_many([app], job["budget_w"])[0]
                sim = self.engine.evaluate(
                    app, decision.to_execution_config()).total_time_s
                self._cache[key] = (
                    json.dumps(decision.to_dict(), sort_keys=True), sim)
            expected, sim = self._cache[key]
            mismatches += json.dumps(job["decision"], sort_keys=True) != expected
            sim_times.append(sim)
        return mismatches, sim_times


def run(seed: int, seconds: int, trace: int, workdir) -> dict:
    params = {**SERVE, "testbed": "haswell", "apps": len(_app_names())}
    if not trace:
        setups = []
        speed = HostSpeed()
        for i in range(SETUP_REPEATS):
            daemon, took = scaled_setup(
                speed, lambda: _start(workdir, f"setup{i}", traced=False))
            setups.append(took)
            if i < SETUP_REPEATS - 1:
                daemon.stop()
        plain = _drive(daemon, seed, seconds)
        runs = [plain]
    else:
        daemon, _ = _start(workdir, "plain", traced=False)
        plain = _drive(daemon, seed, seconds / 2)
        daemon, _ = _start(workdir, "traced", traced=True)
        traced = _drive(daemon, seed, seconds / 2)
        runs = [plain, traced]

    reference = Reference()
    mismatches, sim_times = 0, []
    for r in runs:
        bad, sims = reference.check(r["load"].jobs)
        mismatches += bad
        sim_times += sims
    checks = {
        "zero_audit_violations": all(r["violations"] == 0 for r in runs),
        "daemon_exit_clean": all(r["daemon"]["exit_code"] == 0 for r in runs),
        "decisions_match_schedule_many": mismatches == 0 and bool(sim_times),
    }
    result = {
        "params": params,
        "attempted": sum(r["load"].attempted for r in runs),
        "failed": sum(r["load"].failed for r in runs),
        "checks": checks,
        "mismatches": mismatches,
        "host_factor": plain["host_factor"],
        "raw": {
            "ops_per_s": plain["raw_ops_per_s"],
            "latency_p50_ms": percentile(plain["raw_latencies"], 50) * 1e3,
            "latency_p90_ms": percentile(plain["raw_latencies"], 90) * 1e3,
        },
    }
    if not trace:
        windows = plain["latency_windows"]
        lat = [x for w in windows for x in w]

        def windowed(q: float) -> float:
            return statistics.median(percentile(w, q) for w in windows) * 1e3

        result["metrics"] = {
            "setup_s": statistics.median(setups),
            "ops_per_s": plain["ops_per_s"],
            "latency_p50_ms": windowed(50),
            "latency_p90_ms": windowed(90),
            "peak_rss_mb": plain["daemon"]["peak_rss_mb"],
            "job_sim_time_s": statistics.fmean(sim_times),
        }
        result["samples"] = {
            "setup_s": len(setups),
            "ops_per_s": plain["ops_windows"],
            "latency_p50_ms": len(lat),
            "latency_p90_ms": len(lat),
            "latency_windows": len(windows),
            "job_sim_time_s": len(sim_times),
        }
        result["report"] = {
            "latency_p99_ms": percentile(lat, 99) * 1e3,
            "failed_frac": result["failed"] / max(result["attempted"], 1),
        }
        return result

    load = traced["load"]
    opened = [q for q in load.requests if q["phase"] == "open"
              and q["server_s"] is not None]
    rtts = [q["recv"] - q["send"] for q in opened]
    extra = {
        "http_self_ms_p50": percentile(
            [q["recv"] - q["send"] - q["server_s"] for q in opened], 50) * 1e3,
        "stats_ms_p50": percentile(load.stats_rtts, 50) * 1e3,
        "outcome_ms_p50": percentile(load.outcome_rtts, 50) * 1e3,
        "late_p99_ms": percentile(
            [q["send"] - q["due"] for q in opened], 99) * 1e3,
        "offered_rps": traced["offered_rps"],
        "bundle_hit_frac": traced["bundle_hit_frac"],
        "audits": traced["audits"],
        "violations": traced["violations"],
        "trace_overhead": plain["ops_per_s"] / traced["ops_per_s"],
    }
    # perf_counter is one system-wide monotonic clock, so the daemon's
    # spans and this process's timestamps compare: drop the warm-up
    spans = [s for s in read_jsonl(daemon.spans_path) if s[START] >= load.started]
    metrics = layer_metrics(spans, extra)
    rtt_p50_ms = percentile(rtts, 50) * 1e3
    blocking_ms = (metrics["serve.http.self_ms_p50"]
                   + metrics["serve.admission.us_p50"] / 1e3
                   + metrics["serve.coalescer.wait_ms_p50"]
                   + metrics["serve.decide_burst.ms_p50"])
    metrics["trace.blocking_share"] = blocking_ms / rtt_p50_ms if rtt_p50_ms else 0.0
    result.update(
        metrics=metrics,
        layers=self_table(spans, len(load.jobs)),
        spans=str(daemon.spans_path),
    )
    return result
