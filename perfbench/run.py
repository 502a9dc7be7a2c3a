"""The benchmark of the CLIP reproduction: one command, three workloads.

One run::

    python3 perfbench/run.py --workload serve-open --seed 1 --seconds 20 --trace 0

measures one workload and prints every metric by name, unit and sample
count, then, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``).  The full
result, with its envelope (host, versions, code digest, seed, workload
parameters, sample counts), goes to ``--out`` (default
``.perfbench_out/results``).  A failed output check prints
``"correct": false`` and exits 1.

Everything::

    python3 perfbench/run.py --all --seed 1

runs each workload untraced and traced, prints all of it, and writes
``BENCHMARK.json`` from ``spec.py``.  Two result sets::

    python3 perfbench/run.py --compare OLD_DIR NEW_DIR

prints medians and quartiles per (metric, workload), flags pairs whose
median worsened by more than the metric's bound, and prints per-layer
self-time deltas.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

from common import OUT, ROOT, BenchError, ensure_program, envelope, \
    pin_to_one_cpu, run_dir
from spec import END_TO_END, PER_LAYER, RUN_SECONDS, UNITS, WORKLOADS, \
    benchmark_json

WORKLOAD_NAMES = [name for name, _ in WORKLOADS]


def _module(workload: str):
    if workload == "serve-open":
        import serve_open as module
    elif workload == "campaign-learn":
        import campaign_learn as module
    else:
        import fleet_churn as module
    return module


def setup_probe(workload: str, seed: int) -> int:
    """Set the workload up in this fresh process, then say READY."""
    ensure_program()
    if workload == "serve-open":
        raise BenchError("serve-open times its set-up by spawning daemons")
    if workload == "campaign-learn":
        import campaign_learn

        campaign_learn.setup(seed)
    else:
        import fleet_churn

        fleet_churn.Fleet(seed, 1, run_dir(workload, seed, "probe") / "journal.jsonl")
    print("READY", flush=True)
    return 0


def run_one(workload: str, seed: int, seconds: int, trace: int,
            out: Path) -> int:
    ensure_program()
    pin_to_one_cpu()
    module = _module(workload)
    workdir = run_dir(workload, seed, f"t{trace}")
    start = time.perf_counter()
    result = module.run(seed, seconds, trace, workdir)
    wall = time.perf_counter() - start
    names = [n for n, *_ in (END_TO_END if not trace else PER_LAYER)]
    metrics = {n: {"value": float(result["metrics"][n]), "unit": UNITS[n]}
               for n in names}
    correct = all(result["checks"].values())
    samples = result.get("samples", {})
    record = {
        "envelope": envelope(workload, seed, seconds, trace,
                             result["params"], samples),
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "checks": result["checks"],
        "metrics": metrics,
        "report": {n: {"value": v, "unit": UNITS[n]}
                   for n, v in result.get("report", {}).items()},
        "layers": result.get("layers", {}),
        "digest": result.get("digest"),
        "host_factor": result.get("host_factor"),
        "raw": result.get("raw", {}),
        "spans": result.get("spans"),
        "wall_s": wall,
    }
    out.mkdir(parents=True, exist_ok=True)
    path = (out / f"{workload}-seed{seed}-trace{trace}-{int(time.time())}.json").resolve()
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(f"# {workload} seed={seed} trace={trace} seconds={seconds} "
          f"wall={wall:.1f}s host_factor={record['host_factor']:.3f} "
          f"result={path}")
    for name, m in {**metrics, **record["report"]}.items():
        n = samples.get(name)
        count = f" (n={n})" if n is not None else ""
        print(f"{name:36s} {m['value']:14.6g} {m['unit']}{count}")
    if record["layers"]:
        print("# self time per span name (ms)")
        for name, row in record["layers"].items():
            print(f"  {name:34s} calls={row['calls']:7d} "
                  f"self/op={row['self_ms_per_op']:9.4f} "
                  f"self_p50={row['self_ms_p50']:9.4f}")
    for name, ok in result["checks"].items():
        print(f"check {name}: {'ok' if ok else 'FAILED'}")
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }), flush=True)
    return 0 if correct else 1


def run_all(seed: int, seconds: int, out: Path) -> int:
    """Every workload, untraced then traced, each in its own process."""
    code = 0
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", workload, "--seed", str(seed), "--seconds",
                   str(seconds), "--trace", str(trace), "--out", str(out)]
            code |= subprocess.run(cmd, cwd=ROOT).returncode
    write_spec()
    return code


def write_spec() -> None:
    path = ROOT / "BENCHMARK.json"
    path.write_text(json.dumps(benchmark_json(), indent=2) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="CLIP reproduction benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=OUT / "results")
    parser.add_argument("--all", action="store_true",
                        help="run every workload, untraced and traced")
    parser.add_argument("--compare", nargs=2, type=Path,
                        metavar=("OLD_DIR", "NEW_DIR"))
    parser.add_argument("--write-spec", action="store_true",
                        help="regenerate BENCHMARK.json from spec.py")
    parser.add_argument("--setup-probe", choices=WORKLOAD_NAMES,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    try:
        if args.write_spec:
            write_spec()
            return 0
        if args.compare:
            import compare

            return compare.main(*args.compare)
        if args.setup_probe:
            return setup_probe(args.setup_probe, args.seed)
        if args.all:
            ensure_program()
            return run_all(args.seed, args.seconds, args.out)
        if not args.workload:
            parser.error("give --workload, --all, --compare or --write-spec")
        return run_one(args.workload, args.seed, args.seconds, args.trace,
                       args.out)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
