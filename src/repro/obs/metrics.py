"""The metrics registry: counters, gauges, fixed-boundary histograms.

Deterministic by construction, so telemetry can ride inside replicate
envelopes without breaking the parallel engine's byte-identity contract:

* families and labeled series iterate in insertion order;
* :meth:`MetricsRegistry.snapshot` renders a canonical JSON-ready dict
  (families and series sorted), so equal registries snapshot to equal
  bytes;
* :func:`merge_snapshots` is a pure position-ordered fold -- counters and
  histogram bins sum, gauges keep their maximum (high-water-mark
  semantics, which is also order-independent) -- so merging ``jobs=4``
  worker snapshots equals merging the same snapshots serially.

This registry is the cross-run, exportable telemetry store behind
:class:`repro.obs.recorder.TelemetryRecorder`.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

#: Canonical labeled-series key: sorted ``(key, value)`` string pairs.
LabelPairs = Tuple[Tuple[str, str], ...]

#: Default histogram bucket upper bounds (simulated time units / sizes).
DEFAULT_BOUNDARIES: Tuple[float, ...] = (
    0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 250.0, 1000.0,
)


def _label_key(labels: Optional[Mapping[str, Any]]) -> LabelPairs:
    if not labels:
        return ()
    return tuple(sorted((str(key), str(value)) for key, value in labels.items()))


class CounterFamily:
    """A monotonically increasing counter with labeled series."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._series: Dict[LabelPairs, Union[int, float]] = {}

    def inc(self, value: Union[int, float] = 1, labels: Optional[Mapping[str, Any]] = None) -> None:
        """Add ``value`` (must be non-negative) to one labeled series."""
        if value < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (got {value})")
        key = _label_key(labels)
        self._series[key] = self._series.get(key, 0) + value

    def value(self, labels: Optional[Mapping[str, Any]] = None) -> Union[int, float]:
        """Current value of one labeled series (0 if never incremented)."""
        return self._series.get(_label_key(labels), 0)

    def _snapshot_series(self) -> List[dict]:
        return [
            {"labels": dict(key), "value": self._series[key]}
            for key in sorted(self._series)
        ]


class GaugeFamily:
    """A point-in-time value; merged snapshots keep the maximum."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._series: Dict[LabelPairs, Union[int, float]] = {}

    def set(self, value: Union[int, float], labels: Optional[Mapping[str, Any]] = None) -> None:
        """Set one labeled series to ``value``."""
        self._series[_label_key(labels)] = value

    def value(self, labels: Optional[Mapping[str, Any]] = None) -> Union[int, float]:
        """Current value of one labeled series (0 if never set)."""
        return self._series.get(_label_key(labels), 0)

    def _snapshot_series(self) -> List[dict]:
        return [
            {"labels": dict(key), "value": self._series[key]}
            for key in sorted(self._series)
        ]


class HistogramFamily:
    """A fixed-boundary histogram (cumulative export, mergeable bins).

    ``boundaries`` are bucket *upper bounds*; an extra overflow bucket
    catches everything above the last bound, so ``counts`` always has
    ``len(boundaries) + 1`` entries.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        boundaries: Optional[Sequence[float]] = None,
        help: str = "",
    ) -> None:
        bounds = tuple(float(b) for b in (boundaries or DEFAULT_BOUNDARIES))
        if not bounds:
            raise ValueError(f"histogram {name!r} needs at least one boundary")
        if list(bounds) != sorted(set(bounds)):
            raise ValueError(f"histogram {name!r} boundaries must be strictly increasing")
        self.name = name
        self.help = help
        self.boundaries = bounds
        self._series: Dict[LabelPairs, dict] = {}

    def _state(self, labels: Optional[Mapping[str, Any]]) -> dict:
        key = _label_key(labels)
        state = self._series.get(key)
        if state is None:
            state = {"counts": [0] * (len(self.boundaries) + 1), "sum": 0.0, "count": 0}
            self._series[key] = state
        return state

    def observe(self, value: Union[int, float], labels: Optional[Mapping[str, Any]] = None) -> None:
        """Record one observation into the matching bucket."""
        state = self._state(labels)
        state["counts"][bisect_right(self.boundaries, value)] += 1
        state["sum"] += value
        state["count"] += 1

    def observe_many(self, values: Any, labels: Optional[Mapping[str, Any]] = None) -> None:
        """Record a numpy array of observations in one pass.

        Buckets match :meth:`observe` value for value:
        ``searchsorted(side="right")`` is ``bisect_right``.  The sum is
        numpy's, so it can differ from a loop of :meth:`observe` calls in
        the last bits.
        """
        # Imported here: only numpy engines call this, and they have
        # loaded numpy already; plain telemetry users never pay for it.
        import numpy as np

        if not values.size:
            return
        state = self._state(labels)
        buckets = np.searchsorted(self.boundaries, values, side="right")
        binned = np.bincount(buckets, minlength=len(self.boundaries) + 1)
        state["counts"] = [a + int(b) for a, b in zip(state["counts"], binned)]
        state["sum"] += float(values.sum())
        state["count"] += int(values.size)

    def count(self, labels: Optional[Mapping[str, Any]] = None) -> int:
        """Observations recorded in one labeled series."""
        state = self._series.get(_label_key(labels))
        return 0 if state is None else state["count"]

    def _snapshot_series(self) -> List[dict]:
        return [
            {
                "labels": dict(key),
                "counts": list(self._series[key]["counts"]),
                "sum": self._series[key]["sum"],
                "count": self._series[key]["count"],
            }
            for key in sorted(self._series)
        ]


#: Any of the three family types.
MetricFamily = Union[CounterFamily, GaugeFamily, HistogramFamily]


class MetricsRegistry:
    """Insertion-ordered store of metric families, one per name.

    ``counter``/``gauge``/``histogram`` get-or-create a family;
    re-registering a name under a different kind is an error (one name,
    one schema -- merges depend on it).
    """

    def __init__(self) -> None:
        self._families: Dict[str, MetricFamily] = {}

    def _get(self, name: str, kind: str) -> Optional[MetricFamily]:
        family = self._families.get(name)
        if family is not None and family.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as {family.kind}, not {kind}"
            )
        return family

    def counter(self, name: str, help: str = "") -> CounterFamily:
        """Get or create the counter family called ``name``."""
        family = self._get(name, "counter")
        if family is None:
            family = CounterFamily(name, help)
            self._families[name] = family
        return family  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "") -> GaugeFamily:
        """Get or create the gauge family called ``name``."""
        family = self._get(name, "gauge")
        if family is None:
            family = GaugeFamily(name, help)
            self._families[name] = family
        return family  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        boundaries: Optional[Sequence[float]] = None,
        help: str = "",
    ) -> HistogramFamily:
        """Get or create the histogram family called ``name``.

        ``boundaries`` only applies on creation; a later mismatch with
        the existing family's boundaries is an error.
        """
        family = self._get(name, "histogram")
        if family is None:
            family = HistogramFamily(name, boundaries, help)
            self._families[name] = family
        elif boundaries is not None and tuple(float(b) for b in boundaries) != family.boundaries:  # type: ignore[union-attr]
            raise ValueError(f"metric {name!r} re-registered with different boundaries")
        return family  # type: ignore[return-value]

    def families(self) -> List[MetricFamily]:
        """All families, in registration order."""
        return list(self._families.values())

    def snapshot(self) -> Dict[str, dict]:
        """Canonical JSON-ready form: families and series sorted.

        The mergeable interchange format -- see :func:`merge_snapshots`.
        """
        out: Dict[str, dict] = {}
        for name in sorted(self._families):
            family = self._families[name]
            entry: Dict[str, Any] = {"kind": family.kind, "help": family.help}
            if family.kind == "histogram":
                entry["boundaries"] = list(family.boundaries)  # type: ignore[union-attr]
            entry["series"] = family._snapshot_series()
            out[name] = entry
        return out


def _merge_series(kind: str, into: List[dict], extra: Sequence[dict], name: str) -> List[dict]:
    """Fold ``extra`` series into ``into`` (both label-sorted); re-sorts."""
    by_labels: Dict[LabelPairs, dict] = {
        tuple(sorted(entry["labels"].items())): entry for entry in into
    }
    for entry in extra:
        key = tuple(sorted(entry["labels"].items()))
        current = by_labels.get(key)
        if current is None:
            by_labels[key] = {
                k: (list(v) if isinstance(v, list) else dict(v) if isinstance(v, dict) else v)
                for k, v in entry.items()
            }
            continue
        if kind == "counter":
            current["value"] = current["value"] + entry["value"]
        elif kind == "gauge":
            current["value"] = max(current["value"], entry["value"])
        else:  # histogram
            if len(current["counts"]) != len(entry["counts"]):
                raise ValueError(f"histogram {name!r} bucket shapes differ across snapshots")
            current["counts"] = [a + b for a, b in zip(current["counts"], entry["counts"])]
            current["sum"] = current["sum"] + entry["sum"]
            current["count"] = current["count"] + entry["count"]
    return [by_labels[key] for key in sorted(by_labels)]


def merge_snapshots(snapshots: Sequence[Dict[str, dict]]) -> Dict[str, dict]:
    """Merge registry snapshots into one, in the order given.

    Counters and histogram bins sum; gauges keep their maximum;
    histogram boundaries must agree.  The result is canonical (sorted),
    so merging the same snapshots always yields byte-identical JSON --
    the property the ``jobs=N == jobs=1`` telemetry tests pin down.
    """
    merged: Dict[str, dict] = {}
    for snapshot in snapshots:
        for name in sorted(snapshot):
            entry = snapshot[name]
            current = merged.get(name)
            if current is None:
                merged[name] = {
                    "kind": entry["kind"],
                    "help": entry["help"],
                    **(
                        {"boundaries": list(entry["boundaries"])}
                        if entry["kind"] == "histogram"
                        else {}
                    ),
                    "series": _merge_series(entry["kind"], [], entry["series"], name),
                }
                continue
            if current["kind"] != entry["kind"]:
                raise ValueError(
                    f"metric {name!r} has kind {entry['kind']} in one snapshot "
                    f"and {current['kind']} in another"
                )
            if entry["kind"] == "histogram" and list(entry["boundaries"]) != current["boundaries"]:
                raise ValueError(f"histogram {name!r} boundaries differ across snapshots")
            current["series"] = _merge_series(
                entry["kind"], current["series"], entry["series"], name
            )
    return {name: merged[name] for name in sorted(merged)}


__all__ = [
    "DEFAULT_BOUNDARIES",
    "CounterFamily",
    "GaugeFamily",
    "HistogramFamily",
    "MetricsRegistry",
    "merge_snapshots",
]
