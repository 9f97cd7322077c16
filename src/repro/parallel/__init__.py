"""Deterministic parallel replication engine.

The experiment harnesses aggregate many *independent* simulation
replicates (Figures 3, 5a-c, 6 and the ablations).  Because every
replicate is a pure function of its spec -- strategy, scale, and a
deterministically derived seed -- replicates can fan out over a process
pool and still produce results byte-identical to a serial run:

* :mod:`repro.parallel.seeds` derives one decorrelated seed per
  replicate from the experiment's base seed via
  :meth:`~repro.sim.rng.RngRegistry.spawn`;
* :mod:`repro.parallel.engine` maps a picklable worker over the specs
  with chunked, straggler-aware scheduling (``--jobs 1`` is the exact
  legacy in-process serial path);
* :mod:`repro.parallel.envelope` holds the worker result types and
  :func:`~repro.parallel.envelope.fan_out`, the parent-side skeleton all
  three runners share;
* :mod:`repro.parallel.reducer` folds the per-replicate envelopes back
  into means/standard errors in *spec order*, so aggregates never depend
  on completion order;
* :mod:`repro.parallel.dca` and :mod:`repro.parallel.volunteer` are the
  substrate-specific workers used by :mod:`repro.experiments`;
* :mod:`repro.parallel.shards` splits *one* large computation into
  task-server shards with a deterministic cross-shard merge (see
  ``docs/scaling.md``).

See ``docs/parallelism.md`` for the full design.
"""

from repro.parallel.dca import (
    DcaSpec,
    dca_replicate_specs,
    run_dca_replicate,
    run_dca_replicates,
)
from repro.parallel.engine import (
    ReplicateError,
    WorkerCrash,
    default_chunk_size,
    parallel_map,
    resolve_jobs,
)
from repro.parallel.envelope import ReplicateEnvelope, fingerprint_of
from repro.parallel.reducer import (
    MetricAggregate,
    aggregate_metrics,
    combined_fingerprint,
    mean,
    merge_telemetry,
    ordered,
    stderr,
)
from repro.parallel.seeds import replicate_seeds, shard_seeds
from repro.parallel.shards import (
    merge_shard_reports,
    run_dca_shard,
    run_dca_shards,
    shard_specs,
)
from repro.parallel.volunteer import (
    VolunteerProblemSpec,
    run_volunteer_problem,
    run_volunteer_problems,
)

__all__ = [
    "DcaSpec",
    "MetricAggregate",
    "ReplicateEnvelope",
    "ReplicateError",
    "VolunteerProblemSpec",
    "WorkerCrash",
    "aggregate_metrics",
    "combined_fingerprint",
    "dca_replicate_specs",
    "default_chunk_size",
    "fingerprint_of",
    "mean",
    "merge_shard_reports",
    "merge_telemetry",
    "ordered",
    "parallel_map",
    "replicate_seeds",
    "resolve_jobs",
    "run_dca_shard",
    "run_dca_shards",
    "run_dca_replicate",
    "run_dca_replicates",
    "run_volunteer_problem",
    "run_volunteer_problems",
    "shard_seeds",
    "shard_specs",
    "stderr",
]
