"""Tracing from outside the program, for the per-layer benchmark metrics.

Nothing under ``src/`` is changed to measure it.  Instead :class:`Tracer`
replaces each layer's entry point *at the attribute its callers look up*
(``repro.federation.federator.parse_query``, ``Mediator.translate``,
``SegmentStore.flush`` ...) with a wrapper that records a span or bumps a
counter, and puts every original back on :meth:`Tracer.uninstall`.

Spans form trees through a :mod:`contextvars` variable holding the
current span.  The federation engine submits its fan-out workers under
``contextvars.copy_context()``, so a span opened on a worker thread still
finds its parent.  A span may be active over several intervals (a
generator resumed many times); its self time is its active time minus the
part of it covered by the union of its children's active intervals.

Each span also records the CPU time of the thread it ran on.  Under the
interpreter lock, threads running side by side (the engine's fan-out
workers) each see wall time pass while another holds the lock, so wall
self times of concurrent spans add up to more than the query took; CPU
self time (own thread CPU minus that of children on the same thread) is
what each layer actually spent, and it is what the ``*_ms`` layer
metrics report.  Wall time is kept for the HTTP round trips, where
waiting is the point.
"""

from __future__ import annotations

import contextvars
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

_CURRENT: contextvars.ContextVar[Span | None] = contextvars.ContextVar(
    "perfbench_span", default=None
)
_clock = time.perf_counter
_cpu = time.thread_time


class Span:
    __slots__ = ("name", "intervals", "children", "cpu", "thread")

    def __init__(self, name: str, parent: Span | None) -> None:
        self.name = name
        self.intervals: list[tuple[float, float]] = []
        self.children: list[Span] = []
        self.cpu = 0.0
        self.thread = threading.get_ident()
        if parent is not None:
            parent.children.append(self)


def _union(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    merged: list[list[float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [(start, end) for start, end in merged]


def _overlap(left: list[tuple[float, float]], right: list[tuple[float, float]]) -> float:
    """Measure of the intersection of two sorted, disjoint interval lists."""
    total = 0.0
    i = j = 0
    while i < len(left) and j < len(right):
        start = max(left[i][0], right[j][0])
        end = min(left[i][1], right[j][1])
        if end > start:
            total += end - start
        if left[i][1] < right[j][1]:
            i += 1
        else:
            j += 1
    return total


def span_times(span: Span) -> tuple[float, float, float]:
    """``(active wall s, self wall s, self CPU s)`` of one span."""
    own = _union(span.intervals)
    active = sum(end - start for start, end in own)
    children = _union([iv for child in span.children for iv in child.intervals])
    same_thread = sum(child.cpu for child in span.children if child.thread == span.thread)
    return active, active - _overlap(own, children), span.cpu - same_thread


def outbound_time(span: Span, outbound: str) -> float:
    """Wall time of ``span`` covered by descendant spans named ``outbound``.

    A server span whose request handler calls other servers waits on those
    calls; subtracting this part leaves the server's own work, so the
    called servers' time is not counted a second time inside the caller.
    """
    calls = []
    stack = list(span.children)
    while stack:
        child = stack.pop()
        if child.name == outbound:
            calls.extend(child.intervals)
        stack.extend(child.children)
    if not calls:
        return 0.0
    return _overlap(_union(span.intervals), _union(calls))


SUMMARY_KEYS = ("calls", "active_s", "self_s", "cpu_self_s", "outbound_s")


class Tracer:
    """Install wrappers, collect spans and counters, summarise by name."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.fired: set[str] = set()
        self.recording = False
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------ #
    def count(self, name: str, amount: float = 1) -> None:
        self.fired.add(name)
        if self.recording:
            with self._lock:
                self.counters[name] += amount

    def _open(self, name: str) -> Span | None:
        self.fired.add(name)
        if not self.recording:
            return None
        span = Span(name, _CURRENT.get())
        self.spans.append(span)
        return span

    # -- patching -------------------------------------------------------- #
    def _set(self, owner: object, attribute: str, value: object) -> None:
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    def patch_everywhere(self, function, wrapper) -> None:
        """Rebind every loaded ``repro`` module attribute that is ``function``."""
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attribute, value in list(vars(module).items()):
                if value is function:
                    self._set(module, attribute, wrapper)

    def patch_method(self, cls: type, attribute: str, wrapper_factory) -> None:
        raw = cls.__dict__[attribute]
        if isinstance(raw, staticmethod):
            self._set(cls, attribute, staticmethod(wrapper_factory(raw.__func__)))
        else:
            self._set(cls, attribute, wrapper_factory(raw))

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- wrapper factories ----------------------------------------------- #
    def timed(self, name: str, after=None):
        """Factory for a wrapper that records one span per call.

        ``after(result, args, kwargs)`` runs after a successful call (to
        read counts off the result); exceptions are re-raised untouched.
        """
        tracer = self

        def factory(function):
            def wrapper(*args, **kwargs):
                span = tracer._open(name)
                if span is None:
                    result = function(*args, **kwargs)
                else:
                    token = _CURRENT.set(span)
                    start, cpu = _clock(), _cpu()
                    try:
                        result = function(*args, **kwargs)
                    finally:
                        span.cpu += _cpu() - cpu
                        span.intervals.append((start, _clock()))
                        _CURRENT.reset(token)
                if after is not None and tracer.recording:
                    after(result, args, kwargs)
                return result

            wrapper.__wrapped__ = function
            return wrapper

        return factory

    def timed_generator(self, name: str):
        """Factory for a generator function: one span, one interval per resume."""
        tracer = self

        def factory(function):
            def wrapper(*args, **kwargs):
                inner = function(*args, **kwargs)
                span = tracer._open(name)
                if span is None:
                    return inner
                return _resume_traced(inner, span)

            wrapper.__wrapped__ = function
            return wrapper

        return factory

    def counted(self, name: str):
        """Factory for a wrapper that only counts calls (hot paths)."""
        tracer = self

        def factory(function):
            def wrapper(*args, **kwargs):
                tracer.count(name)
                return function(*args, **kwargs)

            wrapper.__wrapped__ = function
            return wrapper

        return factory

    # -- summaries -------------------------------------------------------- #
    def summary(self, outbound: str) -> dict[str, dict[str, float]]:
        """Per span name: calls, active and self wall seconds, self CPU seconds,
        and wall seconds spent in descendant ``outbound`` spans."""
        table: dict[str, dict[str, float]] = {}
        for span in self.spans:
            if not span.intervals:
                continue
            active, own, cpu = span_times(span)
            entry = table.setdefault(span.name, dict.fromkeys(SUMMARY_KEYS, 0.0))
            entry["calls"] += 1
            entry["active_s"] += active
            entry["self_s"] += own
            entry["cpu_self_s"] += cpu
            entry["outbound_s"] += outbound_time(span, outbound)
        return table


def _resume_traced(inner, span: Span):
    try:
        while True:
            token = _CURRENT.set(span)
            start, cpu = _clock(), _cpu()
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                span.cpu += _cpu() - cpu
                span.intervals.append((start, _clock()))
                _CURRENT.reset(token)
            yield item
    finally:
        inner.close()


def directory_bytes(path: Path) -> dict[str, tuple[int, int]]:
    """``{file name: (size, mtime_ns)}`` for the files directly under ``path``."""
    snapshot = {}
    with os.scandir(path) as entries:
        for entry in entries:
            if entry.is_file():
                stat = entry.stat()
                snapshot[entry.name] = (stat.st_size, stat.st_mtime_ns)
    return snapshot


def bytes_written(before: dict, after: dict) -> int:
    """Bytes a store wrote between two snapshots of its directory.

    New or rewritten files count whole; the append-only term log counts
    its growth.
    """
    total = 0
    for name, (size, mtime) in after.items():
        previous = before.get(name)
        if name == "terms.jsonl":
            total += size - (previous[0] if previous else 0)
        elif previous is None or previous[1] != mtime or previous[0] != size:
            total += size
    return total
