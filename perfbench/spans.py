"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own files only: around each call
it makes into a layer's public functions, and -- through :meth:`Tracer.probe`
-- around a module-level function the program looks up by name, such as
``run_dca`` inside a pool worker.  A probe replaces the module attribute
for the duration of one call; pool workers fork from the parent while it
is in place, run it, and send one record per call back over a pipe
created before the fork.  Times come from ``time.perf_counter``, which is
``CLOCK_MONOTONIC`` on Linux and so comparable across processes.

Each span carries a name, start, end, parent span id, op id and process
id.  :func:`self_times` gives a span's duration minus the part of it its
children cover.  Everything stays in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


class _Probe:
    """Stand-in for a module function: times each call and ships a record."""

    def __init__(self, fn, name, channel, parent, op, summarize):
        self.fn = fn
        self.name = name
        self.channel = channel
        self.parent = parent
        self.op = op
        self.summarize = summarize

    def __call__(self, *args, **kwargs):
        start = time.perf_counter()
        result = self.fn(*args, **kwargs)
        end = time.perf_counter()
        attrs = self.summarize(args, kwargs, result) if self.summarize else {}
        self.channel.put((self.name, start, end, self.parent, self.op, os.getpid(), attrs))
        return result


class Tracer:
    """Collects spans for one traced run."""

    def __init__(self) -> None:
        if multiprocessing.get_start_method() != "fork":
            raise RuntimeError(
                "the traced run needs the 'fork' start method so pool workers "
                "inherit the probes; this interpreter uses "
                f"{multiprocessing.get_start_method()!r}"
            )
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []
        self._channel = multiprocessing.SimpleQueue()

    def _add(self, name, start, end, parent, op, pid, attrs) -> Dict[str, Any]:
        span = {
            "id": len(self.spans),
            "name": name,
            "start": start,
            "end": end,
            "parent": parent,
            "op": op,
            "pid": pid,
            "attrs": dict(attrs),
        }
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, op: Optional[int], **attrs: Any) -> Iterator[Dict[str, Any]]:
        """Record a span around the block; yields it so callers can add attrs."""
        parent = self._stack[-1] if self._stack else None
        record = self._add(name, time.perf_counter(), None, parent, op, os.getpid(), attrs)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    @contextmanager
    def probe(
        self,
        module: Any,
        attr: str,
        name: str,
        op: Optional[int],
        summarize: Optional[Callable[[tuple, dict, Any], Dict[str, Any]]] = None,
    ) -> Iterator[None]:
        """Time every call of ``module.attr`` made inside the block.

        The calls may happen in this process or in pool workers forked
        inside the block.  Their spans become children of the innermost
        open span.
        """
        original = getattr(module, attr)
        parent = self._stack[-1] if self._stack else None
        setattr(module, attr, _Probe(original, name, self._channel, parent, op, summarize))
        try:
            yield
        finally:
            setattr(module, attr, original)
            while not self._channel.empty():
                self._add(*self._channel.get())

    def children(self, span: Dict[str, Any], name: Optional[str] = None) -> List[Dict[str, Any]]:
        return [
            s for s in self.spans
            if s["parent"] == span["id"] and (name is None or s["name"] == name)
        ]

    def write(self, path: str, header: Dict[str, Any]) -> None:
        """Write the header, then every span with its self time, as JSONL."""
        selfs = self_times(self.spans)
        with open(path, "w") as handle:
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            for span in self.spans:
                row = dict(span, duration_s=span["end"] - span["start"], self_s=selfs[span["id"]])
                handle.write(json.dumps(row, sort_keys=True) + "\n")

    def close(self) -> None:
        self._channel.close()


def covered(intervals: List[Tuple[float, float]], start: float, end: float) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: List[Dict[str, Any]]) -> Dict[int, float]:
    """Each span's duration minus the part of it its child spans cover."""
    kids: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            kids.setdefault(span["parent"], []).append((span["start"], span["end"]))
    return {
        span["id"]: (span["end"] - span["start"])
        - covered(kids.get(span["id"], []), span["start"], span["end"])
        for span in spans
    }
