"""Compare two result sets written by ``run.py`` (one directory each).

For every (end-to-end or report metric, workload) pair found in the
untraced results it prints both sides' median and quartiles and flags:

* ``unresolved`` — the old side's own spread (quartile distance over
  median) is wider than the metric's bound from ``spec.py``, so no
  verdict is possible unless every new run beats every old run;
* ``REGRESSED`` — otherwise, the new median is worse than the old one
  by more than the bound.

For the traced results it prints each span name's median self time per
operation on both sides and the difference.  Exit status 1 when any
pair regressed.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path

from spec import BETTER, BOUNDS


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def load(directory: Path):
    """Untraced metric values and traced self times, per workload."""
    metrics: dict[str, dict[str, list[float]]] = defaultdict(
        lambda: defaultdict(list))
    selfs: dict[str, dict[str, list[float]]] = defaultdict(
        lambda: defaultdict(list))
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        workload = record["envelope"]["workload"]
        if record["envelope"]["trace"]:
            for name, row in record["layers"].items():
                selfs[workload][name].append(row["self_ms_per_op"])
        else:
            for name, m in {**record["metrics"], **record["report"]}.items():
                metrics[workload][name].append(m["value"])
    return metrics, selfs


def _verdict(name: str, old: list[float], new: list[float]) -> str:
    bound = BOUNDS.get(name)
    if bound is None:
        return ""
    q1, med, q3 = quartiles(old)
    _, new_med, _ = quartiles(new)
    higher = BETTER[name] == "higher"
    if higher:
        worse = new_med < med * (1 - bound)
        all_better = min(new) > max(old)
    else:
        worse = new_med > med * (1 + bound)
        all_better = max(new) < min(old)
    spread = (q3 - q1) / abs(med) if med else 0.0
    if spread > bound and not all_better:
        return "unresolved"
    return "REGRESSED" if worse else "ok"


def main(old_dir: Path, new_dir: Path) -> int:
    old_m, old_s = load(old_dir)
    new_m, new_s = load(new_dir)
    regressed = 0
    print(f"{'workload':15s} {'metric':16s} {'old median [q1, q3] n':>34s} "
          f"{'new median [q1, q3] n':>34s} {'change':>8s} verdict")
    for workload in sorted(set(old_m) | set(new_m)):
        for name in sorted(set(old_m[workload]) & set(new_m[workload])):
            old, new = old_m[workload][name], new_m[workload][name]
            oq, nq = quartiles(old), quartiles(new)
            change = (nq[1] - oq[1]) / oq[1] if oq[1] else 0.0
            verdict = _verdict(name, old, new)
            regressed += verdict == "REGRESSED"
            print(f"{workload:15s} {name:16s} "
                  f"{oq[1]:12.5g} [{oq[0]:.5g}, {oq[2]:.5g}] {len(old):2d} "
                  f"{nq[1]:12.5g} [{nq[0]:.5g}, {nq[2]:.5g}] {len(new):2d} "
                  f"{change:+8.1%} {verdict}")
    for workload in sorted(set(old_s) | set(new_s)):
        print(f"\n# {workload}: median self time per op (ms)")
        names = sorted(set(old_s[workload]) | set(new_s[workload]))
        for name in names:
            old = statistics.median(old_s[workload].get(name, [0.0]))
            new = statistics.median(new_s[workload].get(name, [0.0]))
            print(f"  {name:34s} {old:10.4f} -> {new:10.4f} "
                  f"({new - old:+.4f})")
    return 1 if regressed else 0
