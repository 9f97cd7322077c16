"""The benchmark suites: voting hot paths, the DES engine, the DCA
model, the serial-vs-parallel figure sweep, and the million-task
sharded ``scale`` tier.

Every suite is deterministic given its seed: reports carry a checksum
(:func:`repro.parallel.fingerprint_of` over the computed results) so CI
can flag *correctness* drift, not just perf drift.  The ``figure_sweep``
suite computes the same figure serially and in parallel and compares the
two checksums -- a standing regression test for the replication engine's
jobs-invariance guarantee; the ``scale`` suite does the same for the
sharded columnar task server at 10^6 tasks / 10^5 nodes.
"""

from __future__ import annotations

import gc
import math
import statistics
import time
from typing import Callable, Dict, Optional

from repro.bench.timing import TimingStats, time_callable
from repro.core import (
    IterativeRedundancy,
    ProgressiveRedundancy,
    TraditionalRedundancy,
)
from repro.core.runner import monte_carlo
from repro.dca import DcaConfig, run_dca
from repro.dca import columnar
from repro.obs import NullRecorder, TelemetryRecorder
from repro.parallel import (
    fingerprint_of,
    merge_shard_reports,
    resolve_jobs,
    run_dca_shards,
    shard_specs,
)
from repro.sim.engine import Simulator

#: suite name -> callable(seed=, jobs=, quick=, repeats=) -> payload dict
SUITES: Dict[str, Callable[..., dict]] = {}


def _suite(fn: Callable[..., dict]) -> Callable[..., dict]:
    SUITES[fn.__name__.replace("bench_", "")] = fn
    return fn


@_suite
def bench_decide_loops(
    *, seed: int = 0, jobs: Optional[int] = None, quick: bool = False, repeats: int = 3
) -> dict:
    """Time the three decide loops via the substrate-free Monte-Carlo runner."""
    del jobs
    tasks = 400 if quick else 4_000
    r = 0.7
    cases = {
        "iterative_d3": lambda: monte_carlo(
            lambda: IterativeRedundancy(3), r, tasks, seed=seed
        ),
        "progressive_k7": lambda: monte_carlo(
            lambda: ProgressiveRedundancy(7), r, tasks, seed=seed
        ),
        "traditional_k7": lambda: monte_carlo(
            lambda: TraditionalRedundancy(7), r, tasks, seed=seed
        ),
    }
    timings = {}
    results = {}
    for name, body in cases.items():
        stats, estimate = time_callable(body, repeats=repeats)
        timings[name] = stats.as_dict()
        results[name] = {
            "reliability": estimate.reliability,
            "cost_factor": estimate.cost_factor,
            "mean_waves": estimate.mean_waves,
            "tasks_per_second": tasks / stats.best,
        }
    checksum_input = {
        name: {k: v for k, v in metrics.items() if k != "tasks_per_second"}
        for name, metrics in results.items()
    }
    return {
        "seed": seed,
        "quick": quick,
        "params": {"tasks": tasks, "r": r},
        "timings": timings,
        "results": results,
        "checksum": fingerprint_of(checksum_input),
    }


@_suite
def bench_sim_engine(
    *, seed: int = 0, jobs: Optional[int] = None, quick: bool = False, repeats: int = 3
) -> dict:
    """Raw DES event throughput: a self-rescheduling event chain."""
    del jobs
    events = 20_000 if quick else 200_000

    def body() -> int:
        sim = Simulator(seed=seed)
        delays = sim.rng.stream("bench-delays")

        def tick(event) -> None:
            if sim.events_processed < events:
                sim.schedule_after(delays.expovariate(1.0), tick)

        sim.schedule(0.0, tick)
        sim.run()
        return sim.events_processed

    stats, processed = time_callable(body, repeats=repeats)
    results = {
        "events_processed": processed,
        "events_per_second": processed / stats.best,
    }
    return {
        "seed": seed,
        "quick": quick,
        "params": {"events": events},
        "timings": {"event_chain": stats.as_dict()},
        "results": results,
        "checksum": fingerprint_of({"events_processed": processed}),
    }


@_suite
def bench_dca_run(
    *, seed: int = 0, jobs: Optional[int] = None, quick: bool = False, repeats: int = 3
) -> dict:
    """End-to-end DCA simulation throughput (the per-replicate unit of work)."""
    del jobs
    tasks = 300 if quick else 2_000
    nodes = 100 if quick else 400
    config = dict(tasks=tasks, nodes=nodes, reliability=0.7, seed=seed)

    def body() -> dict:
        report = run_dca(DcaConfig(strategy=IterativeRedundancy(3), **config))
        return report.as_dict()

    stats, metrics = time_callable(body, repeats=repeats)
    return {
        "seed": seed,
        "quick": quick,
        "params": config,
        "timings": {"iterative_d3": stats.as_dict()},
        "results": {
            "metrics": metrics,
            "tasks_per_second": tasks / stats.best,
        },
        "checksum": fingerprint_of(metrics),
    }


@_suite
def bench_obs_overhead(
    *, seed: int = 0, jobs: Optional[int] = None, quick: bool = False, repeats: int = 15
) -> dict:
    """Telemetry overhead on the per-replicate unit of work.

    Times the same DCA run three ways: uninstrumented, with a
    :class:`~repro.obs.NullRecorder` (what every telemetry-off run pays
    for the instrumentation hooks), and with a full buffering
    :class:`~repro.obs.TelemetryRecorder`.

    The *gated* quantity is ``null_recorder_ratio`` -- the median, over
    rounds, of the paired NullRecorder/bare time ratio -- stored as a
    pseudo-timing (clamped below at the true floor of 1.0) so the
    standard ``--compare`` machinery can hold it to a tolerance.  Being
    dimensionless, the committed baseline (1.0 on any healthy machine)
    transfers across machines; absolute seconds land in ``results``
    ungated.

    The variants are timed *interleaved* (bare, null, telemetry per
    round) rather than in consecutive blocks, and the ratio is paired
    within each round, so slow drift in machine load hits all variants
    alike and cancels; the median shrugs off bursty rounds that a
    best-of or a mean would absorb.
    """
    del jobs
    tasks = 300 if quick else 1_500
    nodes = 100 if quick else 300
    config = dict(tasks=tasks, nodes=nodes, reliability=0.7, seed=seed)

    def run(recorder):
        report = run_dca(
            DcaConfig(strategy=IterativeRedundancy(3), **config), recorder=recorder
        )
        return report.as_dict()

    variants = [
        ("bare", lambda: run(None)),
        ("null_recorder", lambda: run(NullRecorder())),
        ("telemetry_recorder", lambda: run(TelemetryRecorder())),
    ]
    metrics = {}
    durations: dict = {name: [] for name, _ in variants}
    for name, body in variants:  # warmup round
        metrics[name] = body()
    for round_index in range(repeats):
        # Rotate the order each round and collect garbage before each
        # timed run, so neither position in the round nor the previous
        # variant's garbage biases any one variant.
        offset = round_index % len(variants)
        for name, body in variants[offset:] + variants[:offset]:
            gc.collect()
            start = time.perf_counter()
            body()
            durations[name].append(time.perf_counter() - start)
    stats = {
        name: TimingStats(
            repeats=repeats,
            best=min(times),
            mean=sum(times) / len(times),
            total=sum(times),
        )
        for name, times in durations.items()
    }
    bare_stats = stats["bare"]
    null_stats = stats["null_recorder"]
    telemetry_stats = stats["telemetry_recorder"]
    bare_metrics = metrics["bare"]
    if not (bare_metrics == metrics["null_recorder"] == metrics["telemetry_recorder"]):
        raise AssertionError("telemetry perturbed simulation metrics")
    null_ratio = statistics.median(
        null / bare
        for null, bare in zip(durations["null_recorder"], durations["bare"])
    )
    telemetry_ratio = statistics.median(
        tele / bare
        for tele, bare in zip(durations["telemetry_recorder"], durations["bare"])
    )
    return {
        "seed": seed,
        "quick": quick,
        "params": config,
        "timings": {
            # Dimensionless ratio as the gated "timing": machine-portable.
            # Clamped below at 1.0 -- a NullRecorder run cannot truly beat
            # the bare run, so anything under 1.0 is measurement noise and
            # would only make a regenerated baseline unfairly strict.
            "null_recorder_ratio": {
                "repeats": repeats,
                "best_seconds": max(1.0, null_ratio),
                "mean_seconds": max(1.0, null_ratio),
                "total_seconds": max(1.0, null_ratio),
            },
        },
        "results": {
            "bare": bare_stats.as_dict(),
            "null_recorder": null_stats.as_dict(),
            "telemetry_recorder": telemetry_stats.as_dict(),
            "null_recorder_overhead": null_ratio - 1.0,
            "telemetry_recorder_overhead": telemetry_ratio - 1.0,
        },
        "checksum": fingerprint_of(bare_metrics),
    }


@_suite
def bench_figure_sweep(
    *, seed: int = 0, jobs: Optional[int] = None, quick: bool = False, repeats: int = 1
) -> dict:
    """Figure 5(a) at reduced scale, serial vs parallel.

    The serial and parallel checksums must be identical -- any divergence
    means the replication engine broke its determinism contract, and the
    CLI turns it into a non-zero exit for CI.
    """
    from repro.experiments import figure5a

    effective_jobs = resolve_jobs(jobs)
    params = dict(
        ks=(3, 7),
        ds=(2, 3),
        tasks=300 if quick else 1_500,
        nodes=100 if quick else 300,
        replications=2,
        seed=seed,
    )

    def run(n_jobs: int) -> dict:
        return figure5a.compute(jobs=n_jobs, **params).as_dict()

    serial_stats, serial_result = time_callable(
        lambda: run(1), repeats=repeats, warmup=0
    )
    parallel_stats, parallel_result = time_callable(
        lambda: run(effective_jobs), repeats=repeats, warmup=0
    )
    serial_checksum = fingerprint_of(serial_result)
    parallel_checksum = fingerprint_of(parallel_result)
    return {
        "seed": seed,
        "quick": quick,
        "jobs": effective_jobs,
        "params": params,
        "timings": {
            "serial": serial_stats.as_dict(),
            "parallel": parallel_stats.as_dict(),
        },
        "results": {
            "speedup": serial_stats.best / parallel_stats.best,
        },
        "serial_checksum": serial_checksum,
        "parallel_checksum": parallel_checksum,
        "checksum": serial_checksum,
        "diverged": serial_checksum != parallel_checksum,
    }


@_suite
def bench_scale(
    *, seed: int = 0, jobs: Optional[int] = None, quick: bool = False, repeats: int = 3
) -> dict:
    """Million-task tier: the sharded columnar engine, serial vs parallel.

    Splits one computation into task-server shards
    (:func:`repro.parallel.shard_specs`), runs them at ``jobs=1`` and
    ``jobs=N``, and merges each side with
    :func:`repro.parallel.merge_shard_reports`.  The two merged reports
    -- including their :func:`~repro.parallel.combined_fingerprint`
    checksums -- must be byte-identical; any divergence sets
    ``diverged`` and the CLI turns it into a non-zero exit for CI.

    Full size is 10^6 tasks over 10^5 nodes (the scaling target from
    ``docs/scaling.md``); quick size is the CI smoke gate.  Quick runs
    finish in tens of milliseconds, where wall-clock noise dwarfs any
    real signal, so -- like ``obs_overhead``'s ratio trick -- the quick
    payload gates *checksum identity only* and reports its raw timings
    ungated under ``results``; perf regressions are gated at full size,
    where best-of-``repeats`` seconds are stable.  Without numpy the
    suite degrades to a small object-DES run -- the ``engine`` param
    then differs from any committed columnar baseline, so ``--compare``
    reports *incomparable* instead of a vacuous pass.
    """
    engine = "des" if columnar.np is None else "columnar"
    if engine == "columnar":
        tasks = 20_000 if quick else 1_000_000
        nodes = 2_000 if quick else 100_000
    else:
        tasks = 2_000 if quick else 10_000
        nodes = 200 if quick else 1_000
    shards = 4 if quick else 8
    # The identity under test is cross-process determinism, so the
    # parallel leg gets at least two workers even on a one-CPU host.
    parallel_jobs = max(2, resolve_jobs(jobs))
    params = dict(
        tasks=tasks, nodes=nodes, shards=shards, reliability=0.7, engine=engine
    )

    def run(n_jobs: int) -> dict:
        specs = shard_specs(
            lambda: IterativeRedundancy(3),
            tasks=tasks,
            nodes=nodes,
            reliability=0.7,
            shards=shards,
            seed=seed,
            engine=engine,
        )
        return merge_shard_reports(run_dca_shards(specs, jobs=n_jobs))

    serial_stats, serial_merged = time_callable(
        lambda: run(1), repeats=repeats, warmup=0
    )
    parallel_stats, parallel_merged = time_callable(
        lambda: run(parallel_jobs), repeats=repeats, warmup=0
    )
    serial_checksum = serial_merged["checksum"]
    parallel_checksum = parallel_merged["checksum"]
    timings = {
        "serial": serial_stats.as_dict(),
        "parallel": parallel_stats.as_dict(),
    }
    results = {
        "merged": serial_merged,
        "tasks_per_second": tasks / serial_stats.best,
        "speedup": serial_stats.best / parallel_stats.best,
    }
    if quick:
        results["timings_ungated"] = timings
    return {
        "seed": seed,
        "quick": quick,
        "jobs": parallel_jobs,
        "params": params,
        "timings": {} if quick else timings,
        "results": results,
        "serial_checksum": serial_checksum,
        "parallel_checksum": parallel_checksum,
        "checksum": serial_checksum,
        # Whole-report equality, strictly stronger than checksum equality.
        "diverged": serial_merged != parallel_merged,
    }


#: regime name -> config overrides as a function of the pool size.
#: Churn rates scale with the pool (a bigger pool churns more per unit
#: time at the same per-node hazard); the spot-check gate and the
#: deadline are per-assignment / per-run quantities and stay fixed.
_SCALE_REGIMES: Dict[str, Callable[[int], dict]] = {
    "churn": lambda nodes: {
        "arrival_rate": nodes * 0.01,
        "departure_rate": nodes * 0.01,
    },
    "spot": lambda nodes: {"spot_check_rate": 0.05},
    "deadline": lambda nodes: {"max_time": 6.0},
}

#: Minimum full-size columnar-vs-DES throughput ratio per regime (the
#: ``below_des_floor`` gate; see ``docs/performance.md``).
DES_SPEEDUP_FLOOR = 50.0


def _bench_scale_regime(
    regime: str,
    *,
    seed: int,
    jobs: Optional[int],
    quick: bool,
    repeats: int,
) -> dict:
    """Shared body of the per-regime ``scale_*`` suites.

    Same shape as :func:`bench_scale` -- sharded columnar serial vs
    parallel, whole-merged-report identity gated via ``diverged`` -- plus
    a small object-DES leg of the *same* regime that yields
    ``speedup_vs_des``, gated at full size against
    :data:`DES_SPEEDUP_FLOOR` via ``below_des_floor``.
    """
    engine = "des" if columnar.np is None else "columnar"
    if engine == "columnar":
        tasks = 20_000 if quick else 1_000_000
        nodes = 2_000 if quick else 100_000
    else:
        tasks = 2_000 if quick else 10_000
        nodes = 200 if quick else 1_000
    shards = 4 if quick else 8
    parallel_jobs = max(2, resolve_jobs(jobs))
    overrides = _SCALE_REGIMES[regime](nodes)
    params = dict(
        tasks=tasks,
        nodes=nodes,
        shards=shards,
        reliability=0.7,
        engine=engine,
        **overrides,
    )

    def run(n_jobs: int) -> dict:
        specs = shard_specs(
            lambda: IterativeRedundancy(3),
            tasks=tasks,
            nodes=nodes,
            reliability=0.7,
            shards=shards,
            seed=seed,
            engine=engine,
            **overrides,
        )
        return merge_shard_reports(run_dca_shards(specs, jobs=n_jobs))

    serial_stats, serial_merged = time_callable(
        lambda: run(1), repeats=repeats, warmup=0
    )
    parallel_stats, parallel_merged = time_callable(
        lambda: run(parallel_jobs), repeats=repeats, warmup=0
    )

    # The DES reference leg: the same regime at a size the object DES
    # can stomach, timed once -- throughputs divide, so the legs need
    # not be the same size.
    des_tasks = 500 if quick else 2_000
    des_nodes = max(1, nodes * des_tasks // tasks)
    des_overrides = _SCALE_REGIMES[regime](des_nodes)
    des_stats, des_metrics = time_callable(
        lambda: run_dca(
            DcaConfig(
                strategy=IterativeRedundancy(3),
                tasks=des_tasks,
                nodes=des_nodes,
                reliability=0.7,
                seed=seed,
                **des_overrides,
            )
        ).as_dict(),
        repeats=1,
        warmup=0,
    )
    # Throughput counts *completed* tasks: under a deadline both engines
    # stop at the horizon with work undone, and crediting submitted
    # tasks would reward the engine that finished the smaller fraction.
    tasks_per_second = serial_merged["tasks"] / serial_stats.best
    des_tasks_per_second = des_metrics["tasks"] / des_stats.best
    speedup_vs_des = (
        tasks_per_second / des_tasks_per_second
        if des_tasks_per_second
        else math.inf
    )

    serial_checksum = serial_merged["checksum"]
    parallel_checksum = parallel_merged["checksum"]
    timings = {
        "serial": serial_stats.as_dict(),
        "parallel": parallel_stats.as_dict(),
    }
    results = {
        "merged": serial_merged,
        "tasks_per_second": tasks_per_second,
        "speedup": serial_stats.best / parallel_stats.best,
        "des_tasks_per_second": des_tasks_per_second,
        "des_reference": {"tasks": des_tasks, "nodes": des_nodes, **des_overrides},
        "speedup_vs_des": speedup_vs_des,
    }
    if quick:
        results["timings_ungated"] = timings
    return {
        "seed": seed,
        "quick": quick,
        "jobs": parallel_jobs,
        "params": params,
        "timings": {} if quick else timings,
        "results": results,
        "serial_checksum": serial_checksum,
        "parallel_checksum": parallel_checksum,
        "checksum": serial_checksum,
        "diverged": serial_merged != parallel_merged,
        # Only meaningful at full columnar size; quick runs are noise.
        "below_des_floor": (
            engine == "columnar" and not quick and speedup_vs_des < DES_SPEEDUP_FLOOR
        ),
    }


@_suite
def bench_scale_churn(
    *, seed: int = 0, jobs: Optional[int] = None, quick: bool = False, repeats: int = 3
) -> dict:
    """Million-task tier under node churn (sharded columnar)."""
    return _bench_scale_regime(
        "churn", seed=seed, jobs=jobs, quick=quick, repeats=repeats
    )


@_suite
def bench_scale_spot(
    *, seed: int = 0, jobs: Optional[int] = None, quick: bool = False, repeats: int = 3
) -> dict:
    """Million-task tier with spot-check diversion (sharded columnar)."""
    return _bench_scale_regime(
        "spot", seed=seed, jobs=jobs, quick=quick, repeats=repeats
    )


@_suite
def bench_scale_deadline(
    *, seed: int = 0, jobs: Optional[int] = None, quick: bool = False, repeats: int = 3
) -> dict:
    """Million-task tier under a ``max_time`` horizon (sharded columnar)."""
    return _bench_scale_regime(
        "deadline", seed=seed, jobs=jobs, quick=quick, repeats=repeats
    )


def run_suite(
    name: str,
    *,
    seed: int = 0,
    jobs: Optional[int] = None,
    quick: bool = False,
    repeats: Optional[int] = None,
) -> dict:
    """Run one suite by name; returns its report payload with wall time."""
    try:
        suite = SUITES[name]
    except KeyError:
        raise KeyError(
            f"unknown benchmark suite {name!r}; choose from {sorted(SUITES)}"
        ) from None
    kwargs = dict(seed=seed, jobs=jobs, quick=quick)
    if repeats is not None:
        kwargs["repeats"] = repeats
    start = time.perf_counter()
    payload = suite(**kwargs)
    payload["wall_clock_seconds"] = time.perf_counter() - start
    return payload


def run_suites(
    names=None,
    *,
    seed: int = 0,
    jobs: Optional[int] = None,
    quick: bool = False,
    repeats: Optional[int] = None,
) -> Dict[str, dict]:
    """Run several suites (all by default) in a stable order."""
    selected = sorted(SUITES) if names is None else list(names)
    return {
        name: run_suite(name, seed=seed, jobs=jobs, quick=quick, repeats=repeats)
        for name in selected
    }
