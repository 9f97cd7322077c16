"""Figure 6: average response time vs cost factor.

The paper's XDEVS measurements: progressive redundancy responds 1.4-2.5x
slower than traditional redundancy and iterative redundancy 1.4-2.8x
slower, because PR/IR wait for waves sequentially while TR launches all k
jobs at once.  Measured on the object DES (``engine="des"``): response
time depends on node contention, which the columnar engine leaves out
(its Assumption 1).  The unloaded-system analytic model (expected max of
each wave's uniform durations) is printed alongside.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core import IterativeRedundancy, ProgressiveRedundancy, TraditionalRedundancy
from repro.core import analysis
from repro.experiments.common import (
    SCALES,
    ExperimentResult,
    Series,
    SeriesPoint,
    measurement_from_envelopes,
    render_table,
)
from repro.parallel import dca_replicate_specs, run_dca_replicates

DEFAULT_R = 0.7
DEFAULT_KS = (3, 7, 11, 15, 19, 25)
DEFAULT_DS = (1, 2, 4, 6, 8, 10)


def compute(
    r: float = DEFAULT_R,
    ks: Sequence[int] = DEFAULT_KS,
    ds: Sequence[int] = DEFAULT_DS,
    *,
    tasks: int = 10_000,
    nodes: int = 1_000,
    replications: int = 3,
    seed: int = 5,
    jobs: Optional[int] = 1,
) -> ExperimentResult:
    """Measure response time per technique across the cost sweep.

    Like Figure 5(a), the full sweep is one flat spec list through the
    parallel replication engine; ``jobs`` never changes the results.
    """
    sweeps = [
        ("TR", "traditional", [(f"k={k}", k, lambda k=k: TraditionalRedundancy(k)) for k in ks]),
        ("PR", "progressive", [(f"k={k}", k, lambda k=k: ProgressiveRedundancy(k)) for k in ks]),
        ("IR", "iterative", [(f"d={d}", d, lambda d=d: IterativeRedundancy(d)) for d in ds]),
    ]
    specs = []
    points = []  # (series name, label, analytic response, start, stop)
    for name, model_name, configs in sweeps:
        for label, param, factory in configs:
            point_specs = dca_replicate_specs(
                factory,
                tasks=tasks,
                nodes=nodes,
                reliability=r,
                replications=replications,
                seed=seed,
                engine="des",
            )
            start = len(specs)
            specs.extend(point_specs)
            points.append(
                (
                    name,
                    label,
                    analysis.expected_response_time(r, model_name, param),
                    start,
                    len(specs),
                )
            )
    envelopes = run_dca_replicates(specs, jobs=jobs)

    series_list: List[Series] = []
    for name, _, _ in sweeps:
        series = Series(name)
        for point_name, label, analytic_response, start, stop in points:
            if point_name != name:
                continue
            measurement = measurement_from_envelopes(envelopes[start:stop])
            series.add(
                SeriesPoint(
                    label=label,
                    cost=measurement.mean_cost,
                    reliability=measurement.mean_response_time,
                    extra={"analytic_response": analytic_response},
                )
            )
        series_list.append(series)
    return ExperimentResult(
        title=(
            f"Figure 6: average response time vs cost factor "
            f"(r = {r}, {tasks} tasks x {replications} reps, {nodes} nodes)"
        ),
        series=series_list,
        notes=[
            "columns: measured mean response time; analytic = unloaded-system model",
            "expected: PR 1.4-2.5x and IR 1.4-2.8x the TR response at matched params",
        ],
    )


def render(result: ExperimentResult) -> str:
    rows: List[List[object]] = []
    for series in result.series:
        for point in series.points:
            rows.append(
                [
                    series.name,
                    point.label,
                    point.cost,
                    point.reliability,
                    point.extra["analytic_response"],
                ]
            )
    return render_table(
        result.title,
        ["technique", "param", "cost factor", "response time", "response (model)"],
        rows,
        result.notes,
    )


def main(
    scale: str = "default",
    r: float = DEFAULT_R,
    jobs: Optional[int] = 1,
) -> str:
    params = SCALES[scale]
    return render(
        compute(
            r=r,
            tasks=params["tasks"],
            nodes=params["nodes"],
            replications=params["replications"],
            jobs=jobs,
        )
    )


if __name__ == "__main__":  # pragma: no cover
    print(main("smoke"))
