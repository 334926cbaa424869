"""Spans recorded from outside the program.

A `Tracer` patches named functions and methods of the `morphtag` modules
with wrappers that record one span per call: name, start, end and parent
span.  The benchmark's own phases (train, decode, ...) are root spans opened
with `phase()`; a hook may run after each phase closes.  Spans stay in flat
arrays in memory; `summary()` folds them into per-(phase, name) counts and
inclusive seconds plus each phase's self time, and `dump()` writes them out
once the run ends.

With no patches installed the tracer only times the phases, which is how the
untraced run measures its end-to-end figures.
"""

from __future__ import annotations

import functools
import time
from array import array
from contextlib import contextmanager

clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._patched: list[tuple[object, str, object]] = []
        # Called as on_phase_end(seconds) after each phase closes,
        # outside every span: run.py runs the host-speed probe there.
        self.on_phase_end = None
        self.clear()

    def clear(self):
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []

    def _id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        stack = self._stack
        self.parent.append(stack[-1] if stack else -1)
        self.name.append(nid)
        self.start.append(clock())
        self.end.append(0.0)
        stack.append(idx)
        return idx

    def _close(self, idx: int):
        self.end[idx] = clock()
        self._stack.pop()

    @contextmanager
    def phase(self, name: str):
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)
        if self.on_phase_end is not None:
            self.on_phase_end(self.end[idx] - self.start[idx])

    def wrap(self, fn, name: str):
        nid = self._id(name)
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)
        return traced

    def patch(self, owner, attr: str, name: str):
        """Replace owner.attr (a module function or a class method) by a
        traced wrapper; `unpatch_all` restores it."""
        original = owner.__dict__[attr]
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name))

    def unpatch_all(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def phase_units(self) -> dict[str, list[float]]:
        """Duration of every root span, by name, in the order they ran.  A
        stage may open its phase several times, one unit of work each."""
        out: dict[str, list[float]] = {}
        for i in range(len(self.start)):
            if self.parent[i] == -1:
                out.setdefault(self.names[self.name[i]], []).append(self.end[i] - self.start[i])
        return out

    def problems(self, phases) -> list[str]:
        """What is wrong with the recorded spans: a span still open or
        closed before it opened, or a root span outside `phases` (a wrapped
        call made outside every stage, which no phase would account for)."""
        found = []
        if self._stack:
            found.append(f"{len(self._stack)} spans still open")
        for i in range(len(self.start)):
            name = self.names[self.name[i]]
            if self.end[i] < self.start[i]:
                found.append(f"span {i} ({name}) ends before it starts")
            if self.parent[i] == -1 and name not in phases:
                found.append(f"span {i} ({name}) runs outside every stage")
        return found[:5]

    def summary(self):
        """(calls, seconds, self_seconds): calls and inclusive seconds keyed
        by (root phase, span name); self seconds keyed by phase, which is the
        phase's duration minus the part its direct child spans cover."""
        names, parent, start, end = self.names, self.parent, self.start, self.end
        n = len(start)
        root = [0] * n
        child_sum = [0.0] * n
        calls: dict[tuple[str, str], int] = {}
        seconds: dict[tuple[str, str], float] = {}
        for i in range(n):
            p = parent[i]
            dur = end[i] - start[i]
            if p == -1:
                root[i] = i
                continue
            root[i] = root[p]
            child_sum[p] += dur
            key = (names[self.name[root[i]]], names[self.name[i]])
            calls[key] = calls.get(key, 0) + 1
            seconds[key] = seconds.get(key, 0.0) + dur
        self_seconds: dict[str, float] = {}
        for i in range(n):
            if parent[i] == -1:
                name = names[self.name[i]]
                self_seconds[name] = (self_seconds.get(name, 0.0)
                                      + end[i] - start[i] - child_sum[i])
        return calls, seconds, self_seconds

    def spans(self):
        """The recorded spans; `clear` starts new arrays, so these survive it."""
        return self.name, self.parent, self.start, self.end

    def dump(self, path, spans):
        """Write spans as TSV: id, parent, name, start and end in seconds
        from the first span."""
        name, parent, start, end = spans
        t0 = start[0] if len(start) else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(start)):
                fh.write(f"{i}\t{parent[i]}\t{self.names[name[i]]}\t"
                         f"{start[i] - t0:.7f}\t{end[i] - t0:.7f}\n")
