"""Shared plumbing for the experiment harnesses: series containers,
replication with confidence intervals, and fixed-width table rendering."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.strategy import RedundancyStrategy
from repro.parallel import (
    ReplicateEnvelope,
    aggregate_metrics,
    dca_replicate_specs,
    run_dca_replicates,
)


@dataclass(frozen=True)
class SeriesPoint:
    """One point of a reliability-vs-cost (or similar) series."""

    label: str
    cost: float
    reliability: float
    cost_err: float = 0.0
    reliability_err: float = 0.0
    extra: Dict[str, float] = field(default_factory=dict)


@dataclass
class Series:
    """A named sequence of points (one technique's curve)."""

    name: str
    points: List[SeriesPoint] = field(default_factory=list)

    def add(self, point: SeriesPoint) -> None:
        self.points.append(point)


@dataclass
class ExperimentResult:
    """What an experiment's ``compute`` returns: titled series plus notes."""

    title: str
    series: List[Series]
    notes: List[str] = field(default_factory=list)

    def series_by_name(self, name: str) -> Series:
        for series in self.series:
            if series.name == name:
                return series
        raise KeyError(name)

    def as_dict(self) -> dict:
        """JSON-ready structure (for ``--json`` and downstream tooling)."""
        return {
            "title": self.title,
            "notes": list(self.notes),
            "series": [
                {
                    "name": series.name,
                    "points": [
                        {
                            "label": point.label,
                            "cost": point.cost,
                            "reliability": point.reliability,
                            "cost_err": point.cost_err,
                            "reliability_err": point.reliability_err,
                            "extra": dict(point.extra),
                        }
                        for point in series.points
                    ],
                }
                for series in self.series
            ],
        }


def render_table(
    title: str,
    header: Sequence[str],
    rows: Sequence[Sequence[object]],
    notes: Sequence[str] = (),
) -> str:
    """Fixed-width text table, the form every experiment prints."""
    columns = [str(h) for h in header]
    text_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(col) for col in columns]
    for row in text_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [title, "=" * len(title)]
    lines.append("  ".join(col.ljust(widths[i]) for i, col in enumerate(columns)))
    lines.append("  ".join("-" * widths[i] for i in range(len(columns))))
    for row in text_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    for note in notes:
        lines.append(f"note: {note}")
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        if math.isnan(cell):
            return "-"
        return f"{cell:.4g}"
    return str(cell)


@dataclass(frozen=True)
class ReplicatedMeasurement:
    """Mean and standard error over independent replications."""

    mean_reliability: float
    mean_cost: float
    reliability_err: float
    cost_err: float
    mean_response_time: float
    max_jobs: int
    replications: int


def measurement_from_envelopes(
    envelopes: Sequence[ReplicateEnvelope],
) -> ReplicatedMeasurement:
    """Fold one sweep point's replicate envelopes into a measurement.

    Aggregation happens in replicate (position) order via the parallel
    reducer, so the result is identical however the replicates were
    scheduled.  One replicate yields zero error bars, not NaN.
    """
    aggregates = aggregate_metrics(
        envelopes, keys=("reliability", "cost_factor", "mean_response_time")
    )
    return ReplicatedMeasurement(
        mean_reliability=aggregates["reliability"].mean,
        mean_cost=aggregates["cost_factor"].mean,
        reliability_err=aggregates["reliability"].stderr,
        cost_err=aggregates["cost_factor"].stderr,
        mean_response_time=aggregates["mean_response_time"].mean,
        max_jobs=max(int(envelope.metrics["max_jobs"]) for envelope in envelopes),
        replications=len(envelopes),
    )


def replicate_dca(
    strategy_factory: Callable[[], RedundancyStrategy],
    *,
    tasks: int,
    nodes: int,
    reliability: float,
    replications: int = 3,
    seed: int = 0,
    jobs: Optional[int] = 1,
    **config_overrides,
) -> ReplicatedMeasurement:
    """Run several independent replications and aggregate with errors.

    A fresh strategy instance per replication keeps node-aware strategies
    honest; per-replicate seeds spawn deterministically from the base
    seed (:func:`repro.parallel.replicate_seeds`), so the same base seed
    always reproduces the same replicates.

    Args:
        jobs: Worker processes for the replication engine.  ``1``
            (default) runs the exact in-process serial path; ``None``
            uses every core.  All values produce identical results.
        config_overrides: Extra :func:`~repro.parallel.dca_replicate_specs`
            arguments: :class:`~repro.dca.DcaConfig` fields, and
            ``engine`` (``"columnar"`` by default, ``"des"`` for node
            contention, node-aware strategies or non-binary votes).
    """
    if replications < 1:
        raise ValueError(f"need at least one replication, got {replications}")
    specs = dca_replicate_specs(
        strategy_factory,
        tasks=tasks,
        nodes=nodes,
        reliability=reliability,
        replications=replications,
        seed=seed,
        **config_overrides,
    )
    return measurement_from_envelopes(run_dca_replicates(specs, jobs=jobs))


#: Scales for the CLI: (tasks, nodes, replications) for DES experiments.
SCALES = {
    "smoke": dict(tasks=1_000, nodes=200, replications=2),
    "default": dict(tasks=10_000, nodes=1_000, replications=3),
    "full": dict(tasks=100_000, nodes=10_000, replications=3),
}

#: Scales for figures that run on the columnar engine, where ``full`` is
#: the paper's own XDEVS scale (section 4.1: 10^6 tasks on 10^4 nodes).
COLUMNAR_SCALES = {
    **SCALES,
    "full": dict(tasks=1_000_000, nodes=10_000, replications=3),
}
