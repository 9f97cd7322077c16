"""Recorders: where instrumented code sends spans, events, and metrics.

The contract with the hot paths (see ``docs/observability.md``):

* Instrumented components normalize at construction time -- they keep
  ``None`` instead of a disabled recorder and guard every site with
  ``if recorder is not None``, so telemetry-off runs pay a single
  predictable branch per site.  :class:`NullRecorder` therefore costs
  nothing beyond that branch; the ``obs_overhead`` bench suite gates it
  at <=2% against the uninstrumented path.
* All timestamps passed in are **simulated** time.  Recorders never read
  the wall clock (reprolint RL008 enforces this for the whole package;
  only ``repro/obs/host*.py`` may, for capture metadata).
* Spans are keyed ``(name, key)``; begin/end pairs match on that key, so
  overlapping spans of the same name are fine as long as keys are unique
  among *open* spans (e.g. a node id: a node runs one job at a time).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from repro.obs.metrics import MetricsRegistry

Number = Union[int, float]


class Recorder:
    """The recorder interface; base methods are explicit no-ops, except
    :meth:`observe_many`, which feeds each value to :meth:`observe`.

    Attributes:
        enabled: False for no-op recorders.  Instrumented components
            check it once at attach time and drop disabled recorders, so
            per-event calls never happen when telemetry is off.
    """

    enabled = False

    def event(self, name: str, time: float, attrs: Optional[Mapping[str, Any]] = None) -> None:
        """Record an instant event at simulated ``time``."""

    def span_begin(self, name: str, key: Any, time: float, attrs: Optional[Mapping[str, Any]] = None) -> None:
        """Open the span ``(name, key)`` at simulated ``time``."""

    def span_end(self, name: str, key: Any, time: float, attrs: Optional[Mapping[str, Any]] = None) -> None:
        """Close the span ``(name, key)``; ``attrs`` merge over begin's."""

    def count(self, name: str, value: Number = 1, labels: Optional[Mapping[str, Any]] = None) -> None:
        """Increment the counter ``name``."""

    def gauge(self, name: str, value: Number, labels: Optional[Mapping[str, Any]] = None) -> None:
        """Set the gauge ``name``."""

    def observe(self, name: str, value: Number, labels: Optional[Mapping[str, Any]] = None) -> None:
        """Record ``value`` into the histogram ``name``."""

    def observe_many(self, name: str, values: Any, labels: Optional[Mapping[str, Any]] = None) -> None:
        """Record every value of a numpy array into the histogram ``name``."""
        for value in values.tolist():
            self.observe(name, value, labels)


class NullRecorder(Recorder):
    """The zero-cost default: disabled, every method inherited as a no-op."""


@dataclass
class SpanRecord:
    """One closed span: a named simulated-time interval with attributes."""

    name: str
    key: Any
    start: float
    end: float
    attrs: Dict[str, Any] = field(default_factory=dict)
    #: True when the end arrived without a matching begin (zero-length).
    unmatched: bool = False

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "key": self.key,
            "start": self.start,
            "end": self.end,
            "attrs": dict(self.attrs),
            "unmatched": self.unmatched,
        }


@dataclass
class EventRecord:
    """One instant event."""

    name: str
    time: float
    attrs: Dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {"name": self.name, "time": self.time, "attrs": dict(self.attrs)}


class TelemetryRecorder(Recorder):
    """The buffering recorder: spans and events in memory, metrics in a
    :class:`~repro.obs.metrics.MetricsRegistry`.

    Args:
        max_spans / max_events: Optional record caps.  Past a cap, new
            records are *dropped and counted* (``dropped_spans`` /
            ``dropped_events``) rather than evicting old ones, so the
            retained prefix is deterministic; metric counts stay complete
            regardless.
    """

    enabled = True

    def __init__(
        self,
        *,
        max_spans: Optional[int] = None,
        max_events: Optional[int] = None,
    ) -> None:
        if max_spans is not None and max_spans < 0:
            raise ValueError(f"max_spans must be non-negative, got {max_spans}")
        if max_events is not None and max_events < 0:
            raise ValueError(f"max_events must be non-negative, got {max_events}")
        self._registry = MetricsRegistry()
        self._spans: List[SpanRecord] = []
        self._events: List[EventRecord] = []
        self._open: Dict[Tuple[str, Any], Tuple[float, Dict[str, Any]]] = {}
        self._max_spans = max_spans
        self._max_events = max_events
        self.dropped_spans = 0
        self.dropped_events = 0

    # -- recording ------------------------------------------------------

    def event(self, name: str, time: float, attrs: Optional[Mapping[str, Any]] = None) -> None:
        if self._max_events is not None and len(self._events) >= self._max_events:
            self.dropped_events += 1
            return
        self._events.append(EventRecord(name, time, dict(attrs) if attrs else {}))

    def span_begin(self, name: str, key: Any, time: float, attrs: Optional[Mapping[str, Any]] = None) -> None:
        self._open[(name, key)] = (time, dict(attrs) if attrs else {})

    def span_end(self, name: str, key: Any, time: float, attrs: Optional[Mapping[str, Any]] = None) -> None:
        opened = self._open.pop((name, key), None)
        if self._max_spans is not None and len(self._spans) >= self._max_spans:
            self.dropped_spans += 1
            return
        if opened is None:
            start, merged = time, {}
        else:
            start, merged = opened
        if attrs:
            merged.update(attrs)
        self._spans.append(
            SpanRecord(name, key, start, time, merged, unmatched=opened is None)
        )

    def count(self, name: str, value: Number = 1, labels: Optional[Mapping[str, Any]] = None) -> None:
        self._registry.counter(name).inc(value, labels)

    def gauge(self, name: str, value: Number, labels: Optional[Mapping[str, Any]] = None) -> None:
        self._registry.gauge(name).set(value, labels)

    def observe(self, name: str, value: Number, labels: Optional[Mapping[str, Any]] = None) -> None:
        self._registry.histogram(name).observe(value, labels)

    def observe_many(self, name: str, values: Any, labels: Optional[Mapping[str, Any]] = None) -> None:
        self._registry.histogram(name).observe_many(values, labels)

    # -- reading back ---------------------------------------------------

    @property
    def registry(self) -> MetricsRegistry:
        """The backing metrics registry (for tests and direct queries)."""
        return self._registry

    @property
    def spans(self) -> List[SpanRecord]:
        """Closed spans, in close order."""
        return list(self._spans)

    @property
    def events(self) -> List[EventRecord]:
        """Instant events, in record order."""
        return list(self._events)

    @property
    def open_spans(self) -> int:
        """Spans begun but not yet ended."""
        return len(self._open)

    def as_payload(self) -> dict:
        """The picklable/JSON-ready form shipped in replicate envelopes."""
        return {
            "metrics": self._registry.snapshot(),
            "spans": [span.as_dict() for span in self._spans],
            "events": [event.as_dict() for event in self._events],
            "open_spans": self.open_spans,
            "dropped_spans": self.dropped_spans,
            "dropped_events": self.dropped_events,
        }


class TeeRecorder(Recorder):
    """Forward every call to several recorders (disabled ones dropped)."""

    def __init__(self, *recorders: Optional[Recorder]) -> None:
        self.recorders: Tuple[Recorder, ...] = tuple(
            recorder
            for recorder in recorders
            if recorder is not None and recorder.enabled
        )
        self.enabled = bool(self.recorders)

    def event(self, name: str, time: float, attrs: Optional[Mapping[str, Any]] = None) -> None:
        for recorder in self.recorders:
            recorder.event(name, time, attrs)

    def span_begin(self, name: str, key: Any, time: float, attrs: Optional[Mapping[str, Any]] = None) -> None:
        for recorder in self.recorders:
            recorder.span_begin(name, key, time, attrs)

    def span_end(self, name: str, key: Any, time: float, attrs: Optional[Mapping[str, Any]] = None) -> None:
        for recorder in self.recorders:
            recorder.span_end(name, key, time, attrs)

    def count(self, name: str, value: Number = 1, labels: Optional[Mapping[str, Any]] = None) -> None:
        for recorder in self.recorders:
            recorder.count(name, value, labels)

    def gauge(self, name: str, value: Number, labels: Optional[Mapping[str, Any]] = None) -> None:
        for recorder in self.recorders:
            recorder.gauge(name, value, labels)

    def observe(self, name: str, value: Number, labels: Optional[Mapping[str, Any]] = None) -> None:
        for recorder in self.recorders:
            recorder.observe(name, value, labels)

    def observe_many(self, name: str, values: Any, labels: Optional[Mapping[str, Any]] = None) -> None:
        for recorder in self.recorders:
            recorder.observe_many(name, values, labels)


def active(recorder: Optional[Recorder]) -> Optional[Recorder]:
    """Normalize: a disabled (or missing) recorder becomes ``None``.

    Instrumented constructors call this once, so their hot-path guards
    are a plain ``is not None`` check.
    """
    if recorder is None or not recorder.enabled:
        return None
    return recorder


__all__ = [
    "EventRecord",
    "NullRecorder",
    "Recorder",
    "SpanRecord",
    "TeeRecorder",
    "TelemetryRecorder",
    "active",
]
