"""Launch ``clip-sched serve`` in its own process for ``serve-open``.

Runs the CLI's own ``serve`` command, so the daemon has exactly the
``SchedulerService`` / ``ServeDaemon`` wiring a user gets.  With
``--trace-out`` the layer wrappers are installed first and the spans are
written there once the daemon has stopped (SIGTERM).  Every burst
decision starts with a host-speed probe (``speed.py``) on the decision
thread; traced, it is a ``bench.probe`` span inside the burst's span.  ``--report`` receives the exit
code, the process's peak RSS and the probes.

    python3 perfbench/daemon.py --port 8471 --report r.json \\
        -- --budget 1800 --quota tenant-b=1200
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import threading
import time

from common import ensure_program, peak_rss_mb
from speed import HostSpeed


def _exit_with_parent() -> None:
    """SIGTERM this daemon once the process that started it is gone, so
    a benchmark killed mid-run leaves no daemon behind."""
    parent = os.getppid()

    def watch():
        while os.getppid() == parent:
            time.sleep(1.0)
        os.kill(os.getpid(), signal.SIGTERM)

    threading.Thread(target=watch, name="parent-watch", daemon=True).start()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("serve_args", nargs="*",
                        help="extra arguments for clip-sched serve")
    args = parser.parse_args(argv)
    ensure_program()
    _exit_with_parent()
    from repro.cli import main as cli_main

    from repro.serve.service import SchedulerService

    speed = HostSpeed()
    tracer = None
    decide_burst = SchedulerService.decide_burst

    def probed_decide_burst(service, batch):
        span = tracer.open("bench.probe") if tracer else None
        speed.probe()
        if span is not None:
            tracer.close(span)
        return decide_burst(service, batch)

    SchedulerService.decide_burst = probed_decide_burst
    if args.trace_out:
        from layers import LayerProbe
        from spans import Tracer

        # installed over the probe, so the coalescer wait ends where the
        # burst starts and the probe is a child span of the burst
        tracer = Tracer()
        LayerProbe(tracer).install()
    code = cli_main(["serve", "--port", str(args.port), *args.serve_args])
    if tracer is not None:
        tracer.write_jsonl(args.trace_out)
    with open(args.report, "w", encoding="utf-8") as fh:
        json.dump({
            "exit_code": code,
            "peak_rss_mb": peak_rss_mb(),
            "probes": [speed.stamps, speed.durations],
        }, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
