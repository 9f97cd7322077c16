"""Sharded DCA task server: one computation split across worker shards.

The DES and the columnar engine both run a whole computation in one
process.  To push toward million-node pools, this module splits *one*
computation -- its task list and its node pool -- into ``S`` shards and
runs each shard as an independent task server on a
:func:`~repro.parallel.engine.parallel_map` worker.

The split is exact, not an approximation, in the model's own terms:
tasks are independent (the paper's DCA definition) and assumption 1
assigns every job a uniformly random node, so partitioning the pool and
giving each shard its tasks' waves changes nothing about any task's vote
distribution.  Churn rates split with the pool: a shard holding
``n_i / N`` of the nodes sees ``n_i / N`` of the arrival and departure
flux, so the computation-wide churn intensity is preserved.  Each shard
draws from its own spawn-derived seed family (``shard:<i>``,
:func:`~repro.parallel.seeds.shard_seeds`), so shard results depend only
on ``(base seed, shard index)`` -- never on which worker ran the shard
or in what order shards finished.

The cross-shard merge reuses the envelope machinery: every shard ships a
:class:`~repro.parallel.envelope.ReplicateEnvelope`, the reduction walks
them in **position order** (:func:`merge_shard_reports`), and
:func:`~repro.parallel.reducer.combined_fingerprint` gives the whole
computation one checksum.  ``jobs=N`` is therefore byte-identical to
``jobs=1`` for the same shard count -- the property the ``scale`` bench
suites gate in CI.  Shards return metrics only, a few hundred bytes
each.

Each shard runs the columnar engine by default (``engine="columnar"``)
and falls back to the object DES with ``engine="des"`` for
configurations the columnar regime rejects.
"""

from __future__ import annotations

import math
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.distributions import ReliabilityDistribution
from repro.core.strategy import RedundancyStrategy
from repro.dca import DcaConfig, DcaReport, run_columnar_dca, run_dca
from repro.parallel.dca import DcaSpec
from repro.parallel.engine import parallel_map
from repro.parallel.envelope import (
    RawResult,
    ReplicateEnvelope,
    fan_out,
    raw_result,
    worker_recorder,
)
from repro.parallel.reducer import combined_fingerprint, merge_telemetry, ordered
from repro.parallel.seeds import shard_seeds


def _split(total: int, shards: int) -> List[int]:
    """Split ``total`` into ``shards`` near-equal positive parts.

    Deterministic and position-stable: shard ``i`` always receives
    ``total // shards`` plus one extra when ``i < total % shards``.
    """
    base, extra = divmod(total, shards)
    return [base + (1 if index < extra else 0) for index in range(shards)]


def shard_specs(
    strategy_factory: Callable[[], RedundancyStrategy],
    *,
    tasks: int,
    nodes: int,
    reliability: Union[float, ReliabilityDistribution],
    shards: int,
    seed: int,
    engine: str = "columnar",
    telemetry: bool = False,
    **config_overrides: Any,
) -> List[DcaSpec]:
    """Split one computation into per-shard specs with spawn-derived seeds.

    Churn rates (``arrival_rate`` / ``departure_rate`` overrides) are
    scaled by each shard's node share, so the whole computation sees the
    configured churn flux; every other override passes through
    untouched.

    Raises:
        ValueError: if ``shards`` exceeds ``tasks`` or ``nodes`` (every
            shard must hold at least one task and one node -- rejecting
            degenerate zero-task shards up front beats silently merging
            their nan-valued reports later), or for an engine not in
            :data:`repro.dca.ENGINES`.
        ColumnarUnsupported: for a node-aware strategy or a non-binary
            failure model on ``engine="columnar"``.
    """
    if shards < 1:
        raise ValueError(f"need at least one shard, got {shards}")
    if shards > tasks:
        raise ValueError(f"cannot split {tasks} tasks across {shards} shards")
    if shards > nodes:
        raise ValueError(f"cannot split {nodes} nodes across {shards} shards")
    seeds = shard_seeds(seed, shards)
    task_shares = _split(tasks, shards)
    node_shares = _split(nodes, shards)

    def shard_overrides(node_share: int) -> Tuple[Tuple[str, Any], ...]:
        scaled = dict(config_overrides)
        for rate_key in ("arrival_rate", "departure_rate"):
            if scaled.get(rate_key):
                scaled[rate_key] = scaled[rate_key] * (node_share / nodes)
        return tuple(sorted(scaled.items()))

    return [
        DcaSpec(
            seed=shard_seed,
            strategy=strategy_factory(),
            tasks=task_share,
            nodes=node_share,
            reliability=reliability,
            engine=engine,
            overrides=shard_overrides(node_share),
            telemetry=telemetry,
        )
        for shard_seed, task_share, node_share in zip(seeds, task_shares, node_shares)
    ]


def _regime_metrics(report: DcaReport, config: DcaConfig) -> Dict[str, Any]:
    """Extra extensive counters for the regimes the config enables.

    Keys are added only when their regime is on, so runs outside the
    regime keep their historical metric mapping -- and therefore their
    committed fingerprints -- byte-identical.
    """
    extras: Dict[str, Any] = {}
    if config.arrival_rate or config.departure_rate:
        extras["nodes_joined"] = report.nodes_joined
        extras["nodes_departed"] = report.nodes_departed
    if config.spot_check_rate:
        extras["spot_checks"] = report.spot_checks
        extras["nodes_blacklisted"] = report.nodes_blacklisted
    if config.max_time is not None:
        extras["tasks_submitted"] = report.tasks_submitted
    return extras


def run_dca_shard(spec: DcaSpec) -> RawResult:
    """Execute one shard (the module-level, picklable worker).

    The shard's metrics are its report's ``as_dict()`` plus the extensive
    counters (``tasks_correct``, ``total_jobs``, ``jobs_timed_out``, and
    per-regime extras) the cross-shard reduction needs to merge exactly
    rather than from rounded means.
    """
    start = time.perf_counter()
    recorder = worker_recorder(spec.telemetry)
    config = spec.config()
    # The columnar engine is called by name rather than through run_dca's
    # engine switch, so perfbench's traced run can time it on its own.
    if spec.engine == "columnar":
        report = run_columnar_dca(config, recorder=recorder)
    else:
        report = run_dca(config, recorder=recorder)
    metrics = report.as_dict()
    metrics["tasks_correct"] = report.tasks_correct
    metrics["total_jobs"] = report.total_jobs
    metrics["jobs_timed_out"] = report.jobs_timed_out
    metrics.update(_regime_metrics(report, config))
    return raw_result(spec.seed, metrics, start, recorder)


def run_dca_shards(
    specs: Sequence[DcaSpec],
    *,
    jobs: Optional[int] = 1,
    chunk_size: Optional[int] = None,
) -> List[ReplicateEnvelope]:
    """Run the shards (serial or fanned out) and envelope the results.

    The envelope list is in shard-position order whatever the worker
    scheduling was; feed it to :func:`merge_shard_reports` for the
    merged computation-level report.  As in
    :func:`~repro.parallel.dca.run_dca_replicates`, an installed
    :class:`~repro.obs.TelemetrySink` transparently upgrades the specs
    to record telemetry, without perturbing metrics or fingerprints.

    Raises:
        ReplicateError: naming the failed shard's position and seed when
            any shard crashes.
    """
    return fan_out(
        lambda specs: parallel_map(
            run_dca_shard, specs, jobs=jobs, chunk_size=chunk_size
        ),
        specs,
        noun="shard",
        merge=merge_telemetry,
        label="sharded ",
    )


#: Extensive per-regime counters that sum across shards when present.
_REGIME_SUM_KEYS = (
    "nodes_joined",
    "nodes_departed",
    "spot_checks",
    "nodes_blacklisted",
    "tasks_submitted",
)


def merge_shard_reports(envelopes: Sequence[ReplicateEnvelope]) -> Dict[str, Any]:
    """Reduce shard envelopes into one computation-level report dict.

    Position-ordered and purely arithmetic, so the merged report is
    identical whatever order the shards completed in:

    * extensive counters (tasks, correct tasks, jobs, timeouts, and any
      per-regime extras) sum;
    * per-task means re-weight by each shard's *completed* task count,
      skipping empty shards -- under a ``max_time`` horizon a shard can
      complete zero tasks, and its nan-valued means must not poison the
      weighted average (nor its zero count the divisor);
    * maxima (max jobs, max response time, makespan) take the max over
      non-empty shards -- shards run concurrently, so the computation
      finishes when the slowest shard does;
    * ``checksum`` is :func:`~repro.parallel.reducer.combined_fingerprint`
      over the shard fingerprints, the identity the bench suites gate.
    """
    if not envelopes:
        raise ValueError("cannot merge zero shard envelopes")
    by_position = ordered(envelopes)
    metrics = [envelope.metrics for envelope in by_position]
    tasks = sum(shard["tasks"] for shard in metrics)
    correct = sum(shard["tasks_correct"] for shard in metrics)
    total_jobs = sum(shard["total_jobs"] for shard in metrics)
    # Shards that completed zero tasks report nan means and 0/nan
    # extremes; every per-task aggregate below walks the live ones only.
    live = [shard for shard in metrics if shard["tasks"]]

    def weighted(key: str) -> float:
        if not tasks:
            return math.nan
        return sum(shard[key] * shard["tasks"] for shard in live) / tasks

    merged = {
        "strategy": metrics[0]["strategy"],
        "shards": len(by_position),
        "tasks": tasks,
        "tasks_correct": correct,
        "reliability": correct / tasks if tasks else math.nan,
        "total_jobs": total_jobs,
        "cost_factor": total_jobs / tasks if tasks else math.nan,
        "max_jobs": max((shard["max_jobs"] for shard in live), default=0),
        "mean_response_time": weighted("mean_response_time"),
        "max_response_time": max(
            (shard["max_response_time"] for shard in live), default=math.nan
        ),
        "mean_waves": weighted("mean_waves"),
        "makespan": max(shard["makespan"] for shard in metrics),
        "jobs_timed_out": sum(shard["jobs_timed_out"] for shard in metrics),
        "checksum": combined_fingerprint(by_position),
    }
    for key in _REGIME_SUM_KEYS:
        if all(key in shard for shard in metrics):
            merged[key] = sum(shard[key] for shard in metrics)
    return merged
