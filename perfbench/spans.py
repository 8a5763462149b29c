"""In-memory spans and counters for the traced benchmark run, plus the
order statistics the benchmark reports.

A span is ``[name, start, end, parent, pass_id]``: ``parent`` is the index of
the enclosing span in the same list, or -1.  Spans are kept in memory and
written out once, when the run ends.  The tracer assumes one thread, which
is how the benchmark calls the package (a single closed-loop client).

``instrument`` wraps public functions of ``besovball`` in spans.  The
wrappers are installed on every ``besovball`` module attribute that refers
to the original function, so calls made through a name imported with
``from .x import f`` are traced too.  Nothing is changed on disk, and
``Instrumentation.restore`` puts every original back.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.maxima: dict = {}
        self.records: list[dict] = []
        self.pass_id = 0
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.pass_id])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        top = self._stack.pop()
        if top != idx:
            raise RuntimeError(f"span {self.spans[idx][0]!r} closed out of order")

    def count(self, name: str, k: int = 1) -> None:
        self.counts[(self.pass_id, name)] += k

    def keep_max(self, name: str, value) -> None:
        key = (self.pass_id, name)
        if key not in self.maxima or value > self.maxima[key]:
            self.maxima[key] = value

    def wrap(self, fn, name: str, on_result=None):
        """``fn`` inside a span called ``name``; ``on_result(tracer, result,
        args, kwargs)`` runs after the span closes, so its cost is not
        charged to the layer."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            self.count(name + ".calls")
            if on_result is not None:
                on_result(self, result, args, kwargs)
            return result

        traced.__wrapped_original__ = fn
        return traced

    def counter(self, fn, name: str):
        """``fn`` with a call counter and no span (for functions too hot to
        time one call at a time)."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[(self.pass_id, name)] += 1
            return fn(*args, **kwargs)

        counted.__wrapped_original__ = fn
        return counted


# -- span arithmetic -------------------------------------------------------------


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the durations of its
    direct children."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def self_time_by_name(spans, pass_id=None) -> dict:
    own = self_times(spans)
    out: dict = defaultdict(float)
    for s, t in zip(spans, own):
        if pass_id is None or s[4] == pass_id:
            out[s[0]] += t
    return dict(out)


def inclusive_time_by_name(spans, pass_id=None) -> dict:
    """Duration per name, counting only spans with no ancestor of the same
    name, so recursion is not counted twice."""
    out: dict = defaultdict(float)
    for s in spans:
        if pass_id is not None and s[4] != pass_id:
            continue
        p = s[3]
        while p >= 0 and spans[p][0] != s[0]:
            p = spans[p][3]
        if p < 0:
            out[s[0]] += s[2] - s[1]
    return dict(out)


# -- order statistics ----------------------------------------------------------


def median(values):
    vals = sorted(values)
    if not vals:
        raise ValueError("median of no values")
    n = len(vals)
    mid = n // 2
    return vals[mid] if n % 2 else 0.5 * (vals[mid - 1] + vals[mid])


MIN_BEYOND = 10


def tail_percentile(values, q: float):
    """Nearest-rank q-th percentile, or None when fewer than MIN_BEYOND
    samples lie beyond it (a tail percentile resting on a handful of
    samples is noise)."""
    vals = sorted(values)
    n = len(vals)
    if not 0 < q < 100:
        raise ValueError("q must lie strictly between 0 and 100")
    rank = math.ceil(q / 100.0 * n)
    if n == 0 or n - rank < MIN_BEYOND:
        return None
    return vals[rank - 1]


# -- instrumentation of the package ----------------------------------------------


class Instrumentation:
    """Wrappers installed on ``besovball`` module attributes."""

    def __init__(self):
        self._saved: list[tuple] = []

    def replace(self, original, wrapper, modules) -> None:
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._saved.append((mod, attr, val))
                    setattr(mod, attr, wrapper)

    def replace_method(self, cls, attr, wrapper) -> None:
        self._saved.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, val in reversed(self._saved):
            setattr(owner, attr, val)
        self._saved.clear()


def besovball_modules():
    return [m for name, m in sorted(sys.modules.items())
            if (name == "besovball" or name.startswith("besovball.")) and m is not None]
