"""Call counting and span recording for the benchmark, applied from outside.

The benchmark never edits the package.  It replaces a function where the
calling module binds it (``kernelep.operator.beta_cf`` is the name
``_joint_phi`` looks up at call time) with a wrapper that counts the call
and, in a traced run, records one span: name, start, end and parent.  Spans
stay in memory until the run ends.

A layer's self time is its span's duration minus the part of that interval
its child spans cover (``self_times``).
"""

from __future__ import annotations

import time
from array import array

import numpy as np


class Recorder:
    """Counts calls and errors per name; with ``spans=True`` records spans.

    Nothing is recorded while ``enabled`` is false, so the benchmark can run
    its own reference computations through the same wrapped functions.
    ``timed`` names keep per-call durations even without spans, for the
    latency metrics of an untraced run.
    """

    def __init__(self, spans: bool, timed=()):
        self.spans = spans
        self.timed = set(timed)
        self.enabled = True
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.calls: list[int] = []
        self.errors: list[int] = []
        self.durations: dict[str, list] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []

    def index(self, name: str) -> int:
        i = self._index.get(name)
        if i is None:
            i = self._index[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.errors.append(0)
        return i

    def count(self, name: str) -> int:
        i = self._index.get(name)
        return 0 if i is None else self.calls[i]

    def error_count(self, name: str) -> int:
        i = self._index.get(name)
        return 0 if i is None else self.errors[i]

    def wrap(self, name: str, fn):
        """A delegating wrapper around ``fn`` that records under ``name``."""
        i = self.index(name)
        calls, errors = self.calls, self.errors
        if self.spans:
            return self._traced(i, fn)
        if name in self.timed:
            durations = self.durations.setdefault(name, [])
            perf = time.perf_counter

            def timed(*args, **kwargs):
                if not self.enabled:
                    return fn(*args, **kwargs)
                calls[i] += 1
                t0 = perf()
                try:
                    return fn(*args, **kwargs)
                except BaseException:
                    errors[i] += 1
                    raise
                finally:
                    durations.append(perf() - t0)

            return timed

        def counted(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            calls[i] += 1
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[i] += 1
                raise

        return counted

    def _traced(self, i: int, fn):
        calls, errors, stack = self.calls, self.errors, self._stack
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        perf = time.perf_counter

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            calls[i] += 1
            sid = len(starts)
            names.append(i)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(sid)
            starts.append(perf())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[i] += 1
                raise
            finally:
                ends[sid] = perf()
                stack.pop()

        return traced

    def span_arrays(self):
        """(name index, parent, start, end) of every span, as numpy arrays."""
        return (
            np.frombuffer(self.span_name, dtype=np.int32),
            np.frombuffer(self.span_parent, dtype=np.int32),
            np.frombuffer(self.span_start, dtype=float),
            np.frombuffer(self.span_end, dtype=float),
        )


def self_times(parents, starts, ends) -> np.ndarray:
    """Self time of every span: its duration minus the union of its children.

    ``parents[k]`` is the index of span k's parent, or -1 for a root.  Child
    intervals are clipped to the parent's interval and overlaps between
    children are counted once, so the result is never negative.
    """
    parents = np.asarray(parents, dtype=np.int64)
    starts = np.asarray(starts, dtype=float)
    ends = np.asarray(ends, dtype=float)
    out = ends - starts
    children = np.flatnonzero(parents >= 0)
    if children.size == 0:
        return out
    order = children[np.lexsort((starts[children], parents[children]))]
    current, lo, hi, covered = -1, 0.0, 0.0, 0.0
    for k in order.tolist():
        p = int(parents[k])
        s = max(float(starts[k]), float(starts[p]))
        e = min(float(ends[k]), float(ends[p]))
        if p != current:
            if current >= 0:
                out[current] -= covered + (hi - lo)
            current, lo, hi, covered = p, s, max(s, e), 0.0
            continue
        if e <= s:
            continue
        if s > hi:
            covered += hi - lo
            lo, hi = s, e
        elif e > hi:
            hi = e
    out[current] -= covered + (hi - lo)
    return out
