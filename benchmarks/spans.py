"""In-memory span recorder for the traced run.

A span is ``[id, parent id, name, start, end]`` with ``perf_counter`` times.
Counts are recorded next to the spans, at the same call boundaries.  Spans
are only kept in memory while the run lasts and written out when it ends.
A disabled recorder records nothing and wraps nothing, so the same code
gives the untraced run the tracing overhead is measured against.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter, defaultdict


class _Span:
    __slots__ = ("rec", "name", "idx")

    def __init__(self, rec: "Recorder", name: str) -> None:
        self.rec = rec
        self.name = name

    def __enter__(self) -> "_Span":
        rec = self.rec
        self.idx = len(rec.spans)
        rec.spans.append([self.idx, rec.stack[-1] if rec.stack else None, self.name, time.perf_counter(), None])
        rec.stack.append(self.idx)
        return self

    def __exit__(self, *exc) -> None:
        rec = self.rec
        rec.spans[self.idx][4] = time.perf_counter()
        rec.stack.pop()


class Recorder:
    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter[str] = Counter()

    def span(self, name: str):
        return _Span(self, name) if self.enabled else contextlib.nullcontext()

    def count(self, name: str, n: int = 1) -> None:
        if self.enabled:
            self.counts[name] += n

    @contextlib.contextmanager
    def wrapped(self, module, attr: str, name: str):
        """Record a span around every call of ``module.attr`` made while the
        block runs; the attribute is restored afterwards."""
        original = getattr(module, attr)
        if not self.enabled:
            yield
            return

        def traced(*args, **kwargs):
            with _Span(self, name):
                return original(*args, **kwargs)

        setattr(module, attr, traced)
        try:
            yield
        finally:
            setattr(module, attr, original)

    # -- reading the record ------------------------------------------------

    def durations(self, name: str) -> list[float]:
        return [s[4] - s[3] for s in self.spans if s[2] == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def mean(self, name: str) -> float:
        d = self.durations(name)
        return sum(d) / len(d)

    def self_times(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total time and self time (duration minus the
        time covered by its child spans)."""
        covered: defaultdict[int, float] = defaultdict(float)
        for idx, parent, _, start, end in self.spans:
            if parent is not None:
                covered[parent] += end - start
        table: dict[str, dict[str, float]] = {}
        for idx, _, name, start, end in self.spans:
            row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - covered[idx]
        return table

    def dump(self) -> dict:
        return {
            "span_fields": ["id", "parent", "name", "start", "end"],
            "spans": self.spans,
            "counts": dict(self.counts),
            "self_times": self.self_times(),
        }
