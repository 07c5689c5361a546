"""Timing of the public calls the benchmark makes into bugraph.

The shared host this benchmark was built on changes speed by up to a
third within minutes, as other tenants come and go.  So every timed
call sits between two runs of a fixed reference loop, and its duration
is scaled to the nominal speed at which that loop takes REF_NOMINAL_S:
``scaled = raw * REF_NOMINAL_S / mean(reference before, reference
after)``.  A change to bugraph moves the raw time and not the
reference, so it moves the scaled time by the same share.  The run is
pinned to one CPU (see run.py), so the reference and the call, child
interpreters included, share a core.  Raw times are kept alongside.

A ``Recorder`` always keeps each call's times, which is all an
untraced run needs.  A traced recorder also keeps spans: id, name,
start, end and the id of the span that was open when it started.
Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import json
from contextlib import contextmanager
from time import perf_counter

REF_LOOPS = 600_000
REF_NOMINAL_S = 0.045
# A reference sample younger than this is reused, so back-to-back calls
# share the sample taken between them.
REF_REUSE_S = 0.05


def reference() -> float:
    """Seconds a fixed interpreter-bound loop takes right now."""
    t0 = perf_counter()
    acc = 0
    for i in range(REF_LOOPS):
        acc += i * i % 7
    return perf_counter() - t0


def scale(before: float, after: float) -> float:
    return 2 * REF_NOMINAL_S / (before + after)


class Recorder:
    def __init__(self, traced: bool):
        self.traced = traced
        self.calls: list[tuple[str, float, float]] = []  # name, scaled s, raw s
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._ref: tuple[float, float] | None = None  # (taken at, seconds)

    def _reference(self) -> float:
        if self._ref is None or perf_counter() - self._ref[0] > REF_REUSE_S:
            took = reference()
            self._ref = (perf_counter(), took)
        return self._ref[1]

    @contextmanager
    def call(self, name: str, **attrs):
        """Time one public call between two reference samples.

        Yields the call's span in a traced run, else None.
        """
        before = self._reference()
        with self.span(name, **attrs) as span:
            t0 = perf_counter()
            yield span
            raw = perf_counter() - t0
        k = scale(before, self._reference())
        self.calls.append((name, raw * k, raw))
        if span is not None:
            span["scale"] = k

    @contextmanager
    def span(self, name: str, **attrs):
        """A span with no reference samples: groups calls, or sits inside one."""
        if not self.traced:
            yield None
            return
        span = {
            "id": len(self.spans),
            "parent": self._open[-1] if self._open else None,
            "name": name,
            **attrs,
        }
        self.spans.append(span)
        self._open.append(span["id"])
        span["start"] = perf_counter()
        try:
            yield span
        finally:
            span["end"] = perf_counter()
            self._open.pop()

    def adopt(self, spans: list[dict]) -> None:
        """Take in calls a child interpreter timed, each span carrying the
        reference samples around it (``ref_before``, ``ref_after``).
        ``perf_counter`` reads the system-wide monotonic clock, so child
        times need no offset.  In a traced run the spans join the tree
        under the open span."""
        base = len(self.spans)
        parent = self._open[-1] if self._open else None
        for s in spans:
            k = scale(s["ref_before"], s["ref_after"])
            raw = s["end"] - s["start"]
            self.calls.append((s["name"], raw * k, raw))
            if self.traced:
                self.spans.append(
                    {
                        **s,
                        "id": base + s["id"],
                        "parent": parent if s["parent"] is None else base + s["parent"],
                        "scale": k,
                    }
                )

    def wrap(self, fn, name: str):
        """``fn`` with every call recorded as a span named ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def scale_of(self, span: dict) -> float:
        """Scale of the call a span belongs to (1 outside any call)."""
        while "scale" not in span and span["parent"] is not None:
            span = self.spans[span["parent"]]
        return span.get("scale", 1.0)

    def scaled(self, span: dict) -> float:
        return (span["end"] - span["start"]) * self.scale_of(span)

    def self_times(self) -> dict[int, float]:
        """Span id -> raw duration minus the time its child spans cover.

        Children of one span never overlap (calls are sequential), so
        their durations add up.
        """
        out = {s["id"]: s["end"] - s["start"] for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None:
                out[s["parent"]] -= s["end"] - s["start"]
        return out

    def dump(self, path) -> None:
        selfs = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([{**s, "self": selfs[s["id"]]} for s in self.spans], fh)
