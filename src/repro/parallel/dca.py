"""DCA replicate worker: run one replicate, return an envelope.

This is the substrate glue between :func:`repro.parallel.engine.parallel_map`
and :func:`repro.dca.run_dca`.  :class:`DcaSpec` is a frozen, picklable
value object, the one spec type of both the replicate path and the
shard path (:mod:`repro.parallel.shards`); the worker rebuilds the full
:class:`~repro.dca.config.DcaConfig` from it inside the (possibly
remote) process, so no live simulation state ever crosses a process
boundary.

Each spec names its engine (``engine=``, default ``"columnar"``); the
worker hands it to :func:`repro.dca.run_dca`.  Building a spec checks
the engine against the config, so an unsupported combination fails in
the parent before any worker forks.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple, Union

from repro.core.distributions import ReliabilityDistribution
from repro.core.strategy import RedundancyStrategy
from repro.dca import DcaConfig, check_engine, run_dca
from repro.parallel.engine import parallel_map
from repro.parallel.envelope import (
    RawResult,
    ReplicateEnvelope,
    fan_out,
    raw_result,
    worker_recorder,
)
from repro.parallel.reducer import merge_telemetry
from repro.parallel.seeds import replicate_seeds


@dataclass(frozen=True)
class DcaSpec:
    """Everything one DCA replicate or shard needs, in picklable form.

    The strategy is a *fresh instance* built by the caller's factory; it
    is pickled to the worker (parallel) or used directly (serial), so
    node-aware strategies start every replicate from a clean slate either
    way.  ``overrides`` carries extra :class:`DcaConfig` fields as a
    sorted tuple of pairs to keep the spec hashable.  For a shard,
    ``tasks`` and ``nodes`` are the shard's share of the computation and
    ``seed`` its spawn-derived root seed (see
    :func:`~repro.parallel.shards.shard_specs`).

    ``engine`` picks the engine that runs the replicate (see
    :data:`repro.dca.ENGINES`); construction rejects an unknown name,
    and a node-aware strategy or non-binary failure model on
    ``"columnar"`` (:class:`~repro.dca.ColumnarUnsupported`).

    ``telemetry`` asks the worker to run under a buffering
    :class:`~repro.obs.TelemetryRecorder` and ship the capped payload
    back in the envelope.  It never perturbs the simulation: metrics and
    fingerprints are identical with it on or off.
    """

    seed: int
    strategy: RedundancyStrategy
    tasks: int
    nodes: int
    reliability: Union[float, ReliabilityDistribution]
    overrides: Tuple[Tuple[str, Any], ...] = ()
    telemetry: bool = False
    engine: str = "columnar"

    def __post_init__(self) -> None:
        check_engine(self.engine, self.strategy, dict(self.overrides).get("failure_model"))

    def config(self) -> DcaConfig:
        """The run's config, with its own deep copy of the strategy.

        The copy makes serial runs match parallel ones (where pickling
        makes it) even if a caller shares one strategy across specs.
        """
        return DcaConfig(
            strategy=copy.deepcopy(self.strategy),
            tasks=self.tasks,
            nodes=self.nodes,
            reliability=self.reliability,
            seed=self.seed,
            **dict(self.overrides),
        )


def dca_replicate_specs(
    strategy_factory: Callable[[], RedundancyStrategy],
    *,
    tasks: int,
    nodes: int,
    reliability: Union[float, ReliabilityDistribution],
    replications: int,
    seed: int,
    telemetry: bool = False,
    engine: str = "columnar",
    **config_overrides: Any,
) -> List[DcaSpec]:
    """Build one spec per replicate with spawn-derived seeds.

    Raises:
        ValueError: for an engine not in :data:`repro.dca.ENGINES`.
        ColumnarUnsupported: for a node-aware strategy or a non-binary
            failure model on ``engine="columnar"``.
    """
    seeds = replicate_seeds(seed, replications)
    overrides = tuple(sorted(config_overrides.items()))
    return [
        DcaSpec(
            seed=replicate_seed,
            strategy=strategy_factory(),
            tasks=tasks,
            nodes=nodes,
            reliability=reliability,
            overrides=overrides,
            telemetry=telemetry,
            engine=engine,
        )
        for replicate_seed in seeds
    ]


def run_dca_replicate(spec: DcaSpec) -> RawResult:
    """Execute one replicate (the module-level, picklable worker)."""
    start = time.perf_counter()
    recorder = worker_recorder(spec.telemetry)
    report = run_dca(spec.config(), recorder=recorder, engine=spec.engine)
    return raw_result(spec.seed, report.as_dict(), start, recorder)


def run_dca_replicates(
    specs: Sequence[DcaSpec],
    *,
    jobs: Optional[int] = 1,
    chunk_size: Optional[int] = None,
) -> List[ReplicateEnvelope]:
    """Run DCA replicates (serial or fanned out) and envelope the results.

    When a :class:`~repro.obs.TelemetrySink` is installed (see
    ``--telemetry`` on the experiment CLIs), specs are transparently
    upgraded to record telemetry and the position-merged payload is
    handed to the sink.  The upgrade happens parent-side only and never
    changes seeds, metrics, or fingerprints.

    Raises:
        ReplicateError: naming the failed replicate's position *and
            seed* when any replicate crashes.
    """
    return fan_out(
        lambda specs: parallel_map(
            run_dca_replicate, specs, jobs=jobs, chunk_size=chunk_size
        ),
        specs,
        noun="replicate",
        merge=merge_telemetry,
    )
