"""The instrumentation core: registries, counters, timers, events.

Two registry implementations share one call-site protocol:

* :class:`MetricsRegistry` — the real thing: monotonic counters, last-
  write gauges, wall-clock timer spans keyed by their span path, and an
  optional bounded trace-event buffer.
* :class:`NullRegistry` — the process-global default: every method is
  an empty body, so instrumented hot paths cost one attribute lookup
  and an empty call when observability is off.

All state lives in plain dicts/lists of JSON-compatible scalars, so a
:class:`MetricsSnapshot` pickles across ``spawn`` process boundaries and
merges associatively: merging the per-run snapshots of a parallel
campaign yields the same counters a serial run accumulates in place.

Timers are keyed by *span path*: the names of the open spans from the
outermost in, joined by ``/``.  The aging-table walk, which runs under
the decision, settle and aging phases alike, therefore records one
aggregate per calling phase, e.g.
``campaign.run/sim.epoch/sim.decision/aging.walk``.  A span opened with
no enclosing span keeps its bare name (``sim.epoch`` in a plain
simulation).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class TimerStats:
    """Aggregate of one named timer: count and duration statistics."""

    count: int = 0
    total_s: float = 0.0
    min_s: float = float("inf")
    max_s: float = 0.0

    def observe(self, duration_s: float) -> None:
        """Fold one span duration into the aggregate."""
        self.count += 1
        self.total_s += duration_s
        if duration_s < self.min_s:
            self.min_s = duration_s
        if duration_s > self.max_s:
            self.max_s = duration_s

    def merge(self, other: "TimerStats") -> None:
        """Fold another aggregate (e.g. a worker's) into this one."""
        self.count += other.count
        self.total_s += other.total_s
        self.min_s = min(self.min_s, other.min_s)
        self.max_s = max(self.max_s, other.max_s)

    @property
    def mean_s(self) -> float:
        """Mean span duration (0.0 when nothing was observed)."""
        return self.total_s / self.count if self.count else 0.0

    def copy(self) -> "TimerStats":
        """An independent duplicate of these stats."""
        return TimerStats(self.count, self.total_s, self.min_s, self.max_s)


@dataclass
class MetricsSnapshot:
    """A picklable point-in-time copy of a registry's state.

    Snapshots are value objects: merging is associative and commutative
    for counters and timers (gauges keep the merged-in value, events
    concatenate), which is what makes parallel campaign aggregation
    order-insensitive.
    """

    counters: dict = field(default_factory=dict)
    gauges: dict = field(default_factory=dict)
    timers: dict = field(default_factory=dict)
    events: list = field(default_factory=list)
    #: Events dropped because the trace buffer was full.
    dropped_events: int = 0

    def merge(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        """Fold ``other`` into this snapshot (returns ``self``)."""
        for name, value in other.counters.items():
            self.counters[name] = self.counters.get(name, 0) + value
        self.gauges.update(other.gauges)
        for name, stats in other.timers.items():
            mine = self.timers.get(name)
            if mine is None:
                self.timers[name] = stats.copy()
            else:
                mine.merge(stats)
        self.events.extend(other.events)
        self.dropped_events += other.dropped_events
        return self

    @classmethod
    def merged(cls, snapshots) -> "MetricsSnapshot":
        """Merge an iterable of snapshots into a fresh one."""
        out = cls()
        for snapshot in snapshots:
            out.merge(snapshot)
        return out

    def counter(self, name: str, default: float = 0) -> float:
        """Counter value by name (``default`` when never incremented)."""
        return self.counters.get(name, default)


class _Span:
    """A running timer span; records duration under its span path (and a
    trace event) on exit."""

    __slots__ = ("_registry", "_name", "_fields", "_start", "_depth", "_path")

    def __init__(self, registry: "MetricsRegistry", name: str, fields: dict):
        self._registry = registry
        self._name = name
        self._fields = fields

    def __enter__(self) -> "_Span":
        registry = self._registry
        stack = registry._span_stack
        self._depth = depth = len(stack)
        self._path = f"{stack[-1]}/{self._name}" if depth else self._name
        stack.append(self._path)
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        end = time.perf_counter()
        registry = self._registry
        stack = registry._span_stack
        del stack[self._depth :]
        duration = end - self._start
        stats = registry._timers.get(self._path)
        if stats is None:
            stats = registry._timers[self._path] = TimerStats()
        stats.observe(duration)
        if registry.tracing:
            registry._append_event(
                {
                    "kind": "span",
                    "t": self._start - registry._epoch,
                    "name": self._name,
                    "dur_s": duration,
                    "depth": self._depth,
                    **self._fields,
                }
            )


class _NullSpan:
    """Shared no-op span for the disabled path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_SPAN = _NullSpan()


class MetricsRegistry:
    """Collects counters, gauges, timer spans, and trace events.

    Parameters
    ----------
    trace:
        When true, timer spans and :meth:`event` calls append structured
        events to an in-memory buffer (exportable via
        :func:`repro.obs.write_trace_jsonl`).  Counters and timers are
        always collected.
    max_events:
        Trace buffer bound; events past it are counted in
        ``dropped_events`` instead of stored, so a runaway loop cannot
        exhaust memory.
    """

    enabled = True

    def __init__(self, trace: bool = False, max_events: int = 200_000):
        self.tracing = bool(trace)
        self.max_events = int(max_events)
        self._counters: dict = {}
        self._gauges: dict = {}
        self._timers: dict = {}
        self._events: list = []
        self._dropped = 0
        #: Paths of the open spans, outermost first.
        self._span_stack: list = []
        self._epoch = time.perf_counter()

    @property
    def _span_depth(self) -> int:
        """Current span nesting depth (length of the open-span stack)."""
        return len(self._span_stack)

    # -- recording ------------------------------------------------------
    def inc(self, name: str, value: float = 1) -> None:
        """Add ``value`` to counter ``name`` (creating it at 0)."""
        self._counters[name] = self._counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to its latest value."""
        self._gauges[name] = value

    def timer(self, name: str, **fields) -> _Span:
        """Context manager timing a span; ``fields`` annotate its event."""
        return _Span(self, name, fields)

    def event(self, kind: str, **fields) -> None:
        """Append a structured trace event (no-op unless tracing)."""
        if self.tracing:
            self._append_event(
                {"kind": kind, "t": time.perf_counter() - self._epoch, **fields}
            )

    def _append_event(self, event: dict) -> None:
        if len(self._events) >= self.max_events:
            self._dropped += 1
        else:
            self._events.append(event)

    # -- reading / lifecycle -------------------------------------------
    def counter(self, name: str, default: float = 0) -> float:
        """Current value of counter ``name``."""
        return self._counters.get(name, default)

    def snapshot(self) -> MetricsSnapshot:
        """Picklable copy of the current state."""
        return MetricsSnapshot(
            counters=dict(self._counters),
            gauges=dict(self._gauges),
            timers={name: s.copy() for name, s in self._timers.items()},
            events=[dict(e) for e in self._events],
            dropped_events=self._dropped,
        )

    def merge_snapshot(self, snapshot: MetricsSnapshot) -> None:
        """Fold a (worker's) snapshot into this registry.

        Timer paths and span-event depths are re-rooted under the
        currently open span, so a snapshot recorded in a fresh registry
        merges to what the same spans would have recorded here in place.
        """
        for name, value in snapshot.counters.items():
            self.inc(name, value)
        self._gauges.update(snapshot.gauges)
        prefix = f"{self._span_stack[-1]}/" if self._span_stack else ""
        for name, stats in snapshot.timers.items():
            mine = self._timers.get(prefix + name)
            if mine is None:
                self._timers[prefix + name] = stats.copy()
            else:
                mine.merge(stats)
        depth = len(self._span_stack)
        for event in snapshot.events:
            event = dict(event)
            if depth and event.get("kind") == "span":
                event["depth"] += depth
            self._append_event(event)
        self._dropped += snapshot.dropped_events

    def reset(self) -> None:
        """Clear all collected state (the configuration stays)."""
        self._counters.clear()
        self._gauges.clear()
        self._timers.clear()
        self._events.clear()
        self._dropped = 0
        self._span_stack.clear()
        self._epoch = time.perf_counter()


class NullRegistry:
    """The disabled mode: every instrument is an empty body.

    Shares :class:`MetricsRegistry`'s call-site protocol so instrumented
    code never branches; ``snapshot()`` returns an empty snapshot so
    downstream report/export code needs no special case either.
    """

    enabled = False
    tracing = False

    def inc(self, name: str, value: float = 1) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def timer(self, name: str, **fields) -> _NullSpan:
        return _NULL_SPAN

    def event(self, kind: str, **fields) -> None:
        pass

    def counter(self, name: str, default: float = 0) -> float:
        return default

    def snapshot(self) -> MetricsSnapshot:
        return MetricsSnapshot()

    def merge_snapshot(self, snapshot: MetricsSnapshot) -> None:
        pass

    def reset(self) -> None:
        pass


_NULL = NullRegistry()
_active = _NULL


def get_registry():
    """The process-global registry instrumented code reports to."""
    return _active


def set_registry(registry) -> object:
    """Install ``registry`` (``None`` = the shared null); returns the
    previous one so callers can restore it."""
    global _active
    previous = _active
    _active = registry if registry is not None else _NULL
    return previous


def enable_metrics(trace: bool = False, max_events: int = 200_000) -> MetricsRegistry:
    """Install and return a fresh :class:`MetricsRegistry` globally."""
    registry = MetricsRegistry(trace=trace, max_events=max_events)
    set_registry(registry)
    return registry


def disable_metrics() -> None:
    """Restore the no-op default registry."""
    set_registry(None)


@contextmanager
def use_registry(registry):
    """Scope ``registry`` as the global one for a ``with`` block."""
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)
