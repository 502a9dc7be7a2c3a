"""In-memory span recorder and the self-time arithmetic over its spans.

A span is one call across a layer boundary: ``[id, parent, rid, name,
start, end, attrs]`` with ``perf_counter`` seconds.  ``parent`` is the
span that was open on the same thread when this one started, ``rid``
the request id (job id, job index or fault-event sequence number) it
inherits from its parent unless it sets its own.  Spans stay in a list
until :meth:`Tracer.write_jsonl` writes them once, at the end of a run.

:meth:`Tracer.wrap` patches a method on a class from outside the
program, so the program's own files stay untouched; :meth:`Tracer.undo`
restores every patched attribute.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict

ID, PARENT, RID, NAME, START, END, ATTRS = range(7)


class Tracer:
    """Records spans from any thread; patches methods on request."""

    def __init__(self):
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple[type, str, object]] = []

    # -- recording -----------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, rid=None) -> list:
        """Start a span on this thread; close it with :meth:`close`."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if rid is None and parent is not None:
            rid = parent[RID]
        span = [
            next(self._ids),
            parent[ID] if parent is not None else None,
            rid,
            name,
            time.perf_counter(),
            None,
            None,
        ]
        stack.append(span)
        return span

    def close(self, span: list, **attrs) -> None:
        span[END] = time.perf_counter()
        if attrs:
            span[ATTRS] = attrs
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)

    def add(self, name: str, start: float, end: float, rid=None,
            parent=None, **attrs) -> list:
        """Record a span whose interval was measured elsewhere."""
        span = [next(self._ids), parent, rid, name, start, end,
                attrs or None]
        self.spans.append(span)
        return span

    # -- patching ------------------------------------------------------

    def wrap(self, owner: type, attr: str, name: str, rid=None, after=None):
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``rid(args, kwargs)`` names the request when the call starts
        one; ``after(span, args, kwargs, result)`` may attach
        attributes or derived spans once the call returned.
        """
        tracer = self

        def make(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                span = tracer.open(name, rid(args, kwargs) if rid else None)
                try:
                    result = original(*args, **kwargs)
                except BaseException as exc:
                    tracer.close(span, error=type(exc).__name__)
                    raise
                tracer.close(span)
                if after is not None:
                    after(span, args, kwargs, result)
                return result

            return wrapper

        self.patch(owner, attr, make)

    def patch(self, owner: type, attr: str, make) -> None:
        """Replace ``owner.attr`` with ``make(original)`` until :meth:`undo`."""
        original = owner.__dict__[attr]
        setattr(owner, attr, make(original))
        self._patched.append((owner, attr, original))

    def undo(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------

    def write_jsonl(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                record = {
                    "id": s[ID],
                    "parent": s[PARENT],
                    "rid": s[RID],
                    "name": s[NAME],
                    "start": s[START],
                    "end": s[END],
                }
                if s[ATTRS]:
                    record["attrs"] = s[ATTRS]
                fh.write(json.dumps(record, separators=(",", ":")) + "\n")


def read_jsonl(path) -> list[list]:
    """Load spans written by :meth:`Tracer.write_jsonl`."""
    spans = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            r = json.loads(line)
            spans.append([r["id"], r["parent"], r["rid"], r["name"],
                          r["start"], r["end"], r.get("attrs")])
    return spans


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of *intervals*."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[list]) -> dict[int, float]:
    """Span id -> duration minus the part its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None:
            children[s[PARENT]].append((s[START], s[END]))
    return {
        s[ID]: (s[END] - s[START])
        - covered(children.get(s[ID], ()), s[START], s[END])
        for s in spans
    }
