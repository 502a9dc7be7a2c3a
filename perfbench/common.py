"""Paths, the result envelope, and set-up timing shared by the workloads."""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

from spec import HELD_OUT_SEED

#: Probes taken on each side of a set-up to scale it by.
SETUP_PROBES = 9

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Everything a run leaves behind (spans, journals, logs, results).
OUT = ROOT / ".perfbench_out"


class BenchError(Exception):
    """The benchmark cannot run here (e.g. the program is missing)."""


def ensure_program() -> None:
    """Put ``src`` on the import path, or fail if the program is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program to measure: {SRC / 'repro'} is missing")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def run_dir(workload: str, seed: int, tag: str) -> Path:
    """A fresh scratch directory for one run's files."""
    path = OUT / "runs" / f"{workload}-s{seed}-{tag}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def pin_to_one_cpu() -> None:
    """Run this process, and every thread and process it starts from now
    on, on one CPU.

    The host-speed probes then time the CPU the work runs on: set-up
    probes in the parent time the CPU their child process runs on, and
    no op migrates between its probes.  For serve-open, client and
    daemon hand each request back and forth by a context switch on a CPU
    that stays busy, instead of each waking the other's idle vCPU: on a
    shared host that wake-up waits for the hypervisor, and its
    milliseconds belong to the host, not to the program.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def peak_rss_mb() -> float:
    """This process's peak resident set size (VmHWM), in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def deck(rng, items):
    """Endless draws from *items*: each item once per shuffled block, so
    every seed's mix has the same composition, only the order differs."""
    while True:
        block = list(items)
        rng.shuffle(block)
        yield from block


def reset_trained_predictor() -> None:
    """Forget the process-wide trained inflection predictor, so the next
    set-up trains it again instead of reusing the previous one."""
    from repro.analysis import experiments

    cache = getattr(experiments, "_INFLECTION_CACHE", None)
    if cache is not None:
        cache.clear()


def scaled_setup(speed, start):
    """Run ``start()``, which returns ``(result, seconds)``; return the
    result and the seconds divided by the host factor probed on each side."""
    speed.probe(SETUP_PROBES)
    before = speed.factor(SETUP_PROBES)
    result, seconds = start()
    speed.probe(SETUP_PROBES)
    return result, seconds / (0.5 * (before + speed.factor(SETUP_PROBES)))


def time_setup_probes(workload: str, seed: int, repeats: int,
                      speed) -> list[float]:
    """Seconds from spawning a fresh process to its set-up finishing,
    scaled by :func:`scaled_setup`.

    Each probe runs ``run.py --setup-probe`` (imports, training,
    calibration, cold profiles) and prints ``READY`` when the first
    timed operation could start.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", workload,
           "--seed", str(seed)]

    def spawn():
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != "READY" or code != 0:
            raise BenchError(f"set-up probe for {workload} failed ({code})")
        return None, elapsed

    return [scaled_setup(speed, spawn)[1] for _ in range(repeats)]


def _git_commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest() -> str:
    """SHA-256 over every program source file, in path order.

    Identifies the code measured even where the checkout is not a git
    repository.
    """
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def envelope(workload: str, seed: int, seconds: int, trace: int,
             params: dict, samples: dict) -> dict:
    """The record every result carries: host, versions, code, inputs."""
    import numpy
    import scipy

    return {
        "host": platform.node(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "source_sha256": source_digest(),
        "workload": workload,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": seconds,
        "trace": trace,
        "params": params,
        "samples": samples,
    }
