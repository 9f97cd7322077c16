"""Result envelopes: what a worker ships back from one replicate.

Workers never return full simulation reports -- a 100k-task run carries
100k per-task records and pickling them back through the pool would
swamp the parallel speedup.  Instead each replicate is reduced *inside
the worker* to a flat metrics mapping plus a fingerprint of that
mapping, so the parent can aggregate and cross-check serial-vs-parallel
equality from a few hundred bytes per replicate.

:func:`fan_out` is the parent-side skeleton every runner shares: the
telemetry-sink upgrade, the crash re-raise that names the failed item,
and the position-ordered envelope list.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.obs.context import current_sink
from repro.obs.recorder import TelemetryRecorder
from repro.parallel.engine import ReplicateError

#: Per-worker record caps: telemetry payloads travel back through the
#: process pool, so buffers are bounded.  Drops are deterministic (a pure
#: function of the item's event stream), which preserves the
#: jobs=N == jobs=1 byte-identity of merged telemetry.
_WORKER_SPAN_CAP = 10_000
_WORKER_EVENT_CAP = 10_000


def fingerprint_of(metrics: Dict[str, Any]) -> str:
    """SHA-256 over the canonical JSON rendering of ``metrics``.

    Canonical means sorted keys and ``repr``-shortest float rendering, so
    two runs fingerprint identically iff their metrics are byte-identical
    after JSON encoding.  Non-JSON values fall back to ``repr``.
    """
    canonical = json.dumps(metrics, sort_keys=True, default=repr)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ReplicateEnvelope:
    """One replicate's outcome, as shipped back by a worker.

    Attributes:
        position: Index of the replicate in the submitted spec list (the
            reducer aggregates in this order, never completion order).
        seed: The replicate's derived root seed.
        metrics: Flat metric mapping (the substrate report's
            ``as_dict()``).
        fingerprint: :func:`fingerprint_of` the metrics.
        duration: Worker-side wall-clock seconds spent on the replicate.
        worker_pid: PID of the process that ran it (diagnostics only;
            excluded from fingerprints and aggregation).
        telemetry: Optional :meth:`~repro.obs.TelemetryRecorder.as_payload`
            mapping recorded inside the worker when the spec asked for
            telemetry.  Like ``worker_pid``, it is observability sidecar
            data: excluded from fingerprints and metric aggregation.
    """

    position: int
    seed: int
    metrics: Dict[str, Any] = field(default_factory=dict)
    fingerprint: str = ""
    duration: float = 0.0
    worker_pid: int = 0
    telemetry: Optional[Dict[str, Any]] = None


def worker_recorder(telemetry: bool) -> Optional[TelemetryRecorder]:
    """A capped buffering recorder if the spec asked for telemetry."""
    if not telemetry:
        return None
    return TelemetryRecorder(max_spans=_WORKER_SPAN_CAP, max_events=_WORKER_EVENT_CAP)


@dataclass(frozen=True)
class RawResult:
    """What a worker ships back (position is attached by the parent)."""

    seed: int
    metrics: dict
    fingerprint: str
    duration: float
    worker_pid: int
    telemetry: Optional[dict] = None


def raw_result(
    seed: int,
    metrics: dict,
    start: float,
    recorder: Optional[TelemetryRecorder] = None,
) -> RawResult:
    """Fingerprint ``metrics`` and time the item from ``start``.

    A plain function rather than a classmethod, so ``repro-lint``'s call
    graph follows workers into it.
    """
    return RawResult(
        seed=seed,
        metrics=metrics,
        fingerprint=fingerprint_of(metrics),
        duration=time.perf_counter() - start,
        worker_pid=os.getpid(),
        telemetry=recorder.as_payload() if recorder is not None else None,
    )


def fan_out(
    run: Callable[[List[Any]], List[RawResult]],
    specs: Sequence[Any],
    *,
    noun: str,
    merge: Optional[Callable[[List[ReplicateEnvelope]], Any]] = None,
    label: str = "",
) -> List[ReplicateEnvelope]:
    """Run ``specs`` through ``run`` and envelope the results in order.

    ``run`` is the runner's own ``parallel_map(<worker>, specs, ...)``
    call; keeping it literal in the runner lets ``repro-lint`` find the
    worker.  ``merge`` (the caller passes
    :func:`~repro.parallel.reducer.merge_telemetry`, which imports this
    module) marks specs that carry a ``telemetry`` flag: when a
    :class:`~repro.obs.TelemetrySink` is installed, the specs are
    upgraded to record telemetry -- parent-side only, never changing
    seeds, metrics, or fingerprints -- and the merged payload is handed
    to the sink as ``"<strategy> <label>x<count>"``.

    Raises:
        ReplicateError: naming the failed ``noun``'s position, seed and
            strategy when any item crashes.
    """
    specs = list(specs)
    sink = current_sink() if merge is not None else None
    if sink is not None and specs and not any(spec.telemetry for spec in specs):
        specs = [replace(spec, telemetry=True) for spec in specs]
    try:
        raws = run(specs)
    except ReplicateError as exc:
        if 0 <= exc.position < len(specs):
            failed = specs[exc.position]
            raise ReplicateError(
                f"{noun} #{exc.position} (seed {failed.seed}, "
                f"strategy {failed.strategy.describe()}) failed: "
                f"{exc.error_type}: {exc}",
                position=exc.position,
                error_type=exc.error_type,
                traceback_text=exc.traceback_text,
            ) from exc
        raise
    envelopes = [
        ReplicateEnvelope(
            position=position,
            seed=raw.seed,
            metrics=raw.metrics,
            fingerprint=raw.fingerprint,
            duration=raw.duration,
            worker_pid=raw.worker_pid,
            telemetry=raw.telemetry,
        )
        for position, raw in enumerate(raws)
    ]
    if sink is not None and envelopes:
        sink.add_run(
            f"{specs[0].strategy.describe()} {label}x{len(specs)}", merge(envelopes)
        )
    return envelopes
