"""In-memory spans around the benchmark's own calls into svtab.

A span is ``(id, parent, name, start, end, label)``; ``name`` is
``<layer>.<call>`` where the layer is the svtab module the call enters (or
``bench`` for the benchmark's own glue).  Spans stay in memory until the run
ends; nothing inside the library is instrumented.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter


class Tracer:
    """Records one span per wrapped call, parented to the innermost open span."""

    def __init__(self):
        self.spans: list = []
        self._open: list = [None]

    def call(self, name: str, fn, *args, label: str | None = None):
        start = perf_counter()
        out = fn(*args)
        end = perf_counter()
        self.spans.append((len(self.spans), self._open[-1], name, start, end, label))
        return out

    @contextmanager
    def span(self, name: str, label: str | None = None):
        sid = len(self.spans)
        self.spans.append(None)  # reserve the id so children can point at it
        parent = self._open[-1]
        self._open.append(sid)
        start = perf_counter()
        try:
            yield
        finally:
            self._open.pop()
            self.spans[sid] = (sid, parent, name, start, perf_counter(), label)


class NullTracer:
    """Same interface, records nothing: used by every untraced run."""

    spans: list = []

    def call(self, name: str, fn, *args, label: str | None = None):
        return fn(*args)

    def span(self, name: str, label: str | None = None):
        return nullcontext()


def durations(spans, name: str) -> list[float]:
    return [s[4] - s[3] for s in spans if s[2] == name]


def total(spans, *names: str) -> float:
    return sum(s[4] - s[3] for s in spans if s[2] in names)


def layer_self_times(spans) -> dict[str, float]:
    """Seconds per layer: each span's duration minus the time its children cover.

    Spans of one process never overlap their siblings, so the covered time is
    the sum of the children's durations.
    """
    covered: dict = defaultdict(float)
    for sid, parent, _name, start, end, _label in spans:
        if parent is not None:
            covered[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for sid, _parent, name, start, end, _label in spans:
        out[name.split(".", 1)[0]] += end - start - covered[sid]
    return dict(out)


def layer_counts(spans) -> dict[str, int]:
    out: dict[str, int] = defaultdict(int)
    for span in spans:
        out[span[2].split(".", 1)[0]] += 1
    return dict(out)
