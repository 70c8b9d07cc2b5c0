"""In-memory spans for the traced pass, written out as Chrome trace JSON.

A span has a name, start, end, parent span and request id; spans of one
request share the id.  Times are ``time.perf_counter()`` seconds, which
is ``CLOCK_MONOTONIC`` on Linux and therefore comparable across the
processes of one host, so a child process can report its own intervals
and they nest correctly under the parent's span.

The export is the trace-event object form ``loltrace`` writes
(``{"traceEvents": [...]}`` with ``ph: "X"`` complete events), so the
file opens in Perfetto or ``chrome://tracing``.
"""

from __future__ import annotations

import itertools
import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, Iterator, List, Optional


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    rid: int
    pid: int = field(default_factory=os.getpid)
    args: Dict[str, object] = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


class Spans:
    """A span recorder for one thread of the benchmark process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._rids = itertools.count(1)
        self._stack: List[Span] = []

    @contextmanager
    def span(self, name: str, rid: Optional[int] = None, **args) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        if rid is None:
            rid = parent.rid if parent is not None else next(self._rids)
        rec = Span(
            next(self._ids), name, perf_counter(), 0.0,
            parent.sid if parent else None, rid, args=args,
        )
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec.end = perf_counter()
            self._stack.pop()
            self.spans.append(rec)

    def add(
        self, name: str, start: float, end: float, parent: Span, *, pid: Optional[int] = None, **args
    ) -> Span:
        """Record an interval timed elsewhere (a child process, the server)."""
        rec = Span(
            next(self._ids), name, start, end, parent.sid, parent.rid,
            pid=pid if pid is not None else os.getpid(), args=args,
        )
        self.spans.append(rec)
        return rec

    def self_times(self, name: str) -> List[float]:
        """Per span called ``name``: its duration minus the part of it
        that its child spans cover (overlapping children counted once)."""
        children: Dict[int, List[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out = []
        for s in self.spans:
            if s.name != name:
                continue
            covered, reach = 0.0, s.start
            for c in sorted(children.get(s.sid, []), key=lambda c: c.start):
                lo, hi = max(c.start, reach), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append(max(0.0, s.dur - covered))
        return out

    def export_chrome(self, path: Path) -> None:
        events = []
        for s in sorted(self.spans, key=lambda s: s.start):
            args = dict(s.args, sid=s.sid, request=s.rid)
            if s.parent is not None:
                args["parent"] = s.parent
            events.append({
                "name": s.name,
                "cat": s.name.split(".")[0],
                "ph": "X",
                "ts": round(s.start * 1e6, 3),
                "dur": round(s.dur * 1e6, 3),
                "pid": s.pid,
                "tid": s.pid,
                "args": args,
            })
        for pid in sorted({s.pid for s in self.spans}):
            label = "e2ebench" if pid == os.getpid() else f"child-{pid}"
            events.append({
                "name": "process_name", "ph": "M", "pid": pid, "tid": pid,
                "args": {"name": label},
            })
        path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))
