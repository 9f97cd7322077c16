"""Columnar wave-batched DCA engine for million-task runs.

The object-per-job DES (:mod:`repro.dca.simulation`) tops out around a
few thousand tasks per second: every job is a Python object, every vote a
dict update, every completion a heap event.  This module replaces that
churn with struct-of-arrays state -- one numpy column per task for the
``True``/``False`` tallies, silent counts, wave clocks, and jobs used --
and advances *all* active tasks one wave at a time.

The model is the paper's own analysis regime:

* **Assumption 1 (contention-free pool):** every wave's jobs run on
  independent random nodes concurrently, so a task's wave completes at
  the slowest of its jobs and the next wave starts immediately.  Node
  contention delays *when* jobs run, never *what* they report, so
  reliability, cost factor, and wave counts are exactly those of the
  DES; response times and makespan are the contention-free values.
* **Assumption 4 (binary votes):** the colluding-Byzantine worst case,
  :class:`~repro.dca.failures.ByzantineCollusion`, where each task has
  one true and one colluding wrong value.  Tallies are two int columns.

Beyond the contention-free core, the engine covers the paper's fault
regimes (Figures 5b/5c/6):

* **Churn** keeps a struct-of-arrays node pool (reliability, speed, and
  stable id columns) and applies Poisson departure/arrival batches at
  wave boundaries: the global *frontier* clock advances by each wave's
  maximum span, and the next wave's node draws see the compacted pool.
  This is a wave-boundary model of the DES's continuous churn -- a node
  cannot quit *mid-job* here (in the DES that job times out), so churn
  results match the DES statistically, not byte-for-byte.
* **Spot-checks** divert assignments to known-answer jobs exactly like
  :class:`~repro.dca.taskserver.TaskServer` (each assignment attempt
  draws the gate again, so one slot can divert repeatedly), drawing
  everything spot-related from a dedicated stream so real task outcomes
  are untouched.  Per-node pass/fail tallies accumulate in grow-only
  columns and a node with any failed check counts as blacklisted,
  mirroring :meth:`~repro.core.credibility.CredibilityManager.spot_check`.
  Unlike the DES, tallies are not cut off by the end-of-run
  ``StopSimulation`` (a shutdown artifact, not model semantics).
* **``max_time`` horizons** compare wave-end clocks against the
  deadline: a wave whose slowest job lands past the horizon is
  truncated -- its dispatches count (the DES enqueues them before the
  horizon) but the task never completes, contributes no timeouts (its
  deadline events fire past the horizon), and is excluded from the
  per-task aggregates, exactly like an unfinished DES task.

Strategy decisions stay behind the existing interfaces: the built-in
strategies (iterative, progressive, traditional, complex-iterative) have
vectorised deciders that replay their ``decide(VoteState)`` arithmetic
over whole columns, and any other non-node-aware strategy falls back to
a per-task loop through a real :class:`~repro.core.types.VoteState` --
slower, but semantically the strategy's own code.  The new regime
kernels follow the same pattern: each vectorised kernel in ``_KERNELS``
has a scalar fallback in ``_KERNEL_FALLBACKS`` consuming the *same*
pre-drawn arrays, and the cross-check tests swap them in and assert
byte-identical reports.

Configurations outside the regime (node-aware strategies, non-binary
failure models) are rejected with :class:`ColumnarUnsupported` by
:func:`check_columnar`, the one check the engine and the replicate and
shard spec builders share; use the DES (``engine="des"``) for those.

Telemetry uses the DES vocabulary (:mod:`repro.obs.names`): the same
counters and histograms on the same boundaries, filled in bulk per wave,
plus one ``dca.wave`` span per engine wave on simulated time.  Emitting
it draws no random numbers, so a run is identical with a recorder or
without.

Determinism: all draws come from seeded numpy generators whose seeds
derive from the config seed via :class:`~repro.sim.rng.RngRegistry`
spawn names, so same-config runs are byte-identical (given a numpy
version) and the columnar engine never perturbs the DES streams.  Spawn
seeds are stateless hashes of their names, so the ``churn`` and
``spot-checks`` streams never perturb the four legacy streams either: a
no-churn, no-spot-check run draws exactly what it always drew.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Optional, Tuple, Type

try:  # gated: the container/CI images ship numpy, but it stays optional
    import numpy as np
except ImportError:  # pragma: no cover - exercised only without numpy
    np = None  # type: ignore[assignment]

from repro.core.iterative import IterativeRedundancy
from repro.core.iterative_complex import ComplexIterativeRedundancy
from repro.core.progressive import ProgressiveRedundancy
from repro.core.strategy import RedundancyStrategy, is_node_aware
from repro.core.traditional import TraditionalRedundancy
from repro.core.types import VoteState
from repro.dca.config import DcaConfig
from repro.dca.failures import ByzantineCollusion
from repro.dca.report import DcaReport
from repro.obs.names import (
    DCA_ACCEPTS,
    DCA_COMPLETES,
    DCA_DECISIONS,
    DCA_DISPATCHES,
    DCA_JOBS_PER_TASK,
    DCA_MAKESPAN,
    DCA_RESPONSE_TIME,
    DCA_SPOT_CHECKS,
    DCA_SUBMITS,
    DCA_TIMEOUTS,
    DCA_WAVE_SIZE,
    DCA_WAVE_SPAN,
)
from repro.obs.recorder import Recorder
from repro.obs.recorder import active as active_recorder
from repro.sim.rng import RngRegistry


class ColumnarUnsupported(ValueError):
    """The configuration falls outside the columnar engine's regime."""


def _require_numpy() -> None:
    if np is None:  # pragma: no cover - exercised only without numpy
        raise RuntimeError(
            "the columnar engine needs numpy; install it or use repro.dca.run_dca"
        )


# ---------------------------------------------------------------------------
# Vectorised deciders
# ---------------------------------------------------------------------------

#: decider(strategy, true_votes, false_votes) ->
#:     (accept_mask, accepted_is_true, more_jobs)
#: All three outputs are columns over the active tasks; ``more_jobs`` is
#: only meaningful where ``accept_mask`` is False.
_Decider = Callable[[RedundancyStrategy, "np.ndarray", "np.ndarray"], Tuple]

_DECIDERS: Dict[Type[RedundancyStrategy], _Decider] = {}


def _decider(cls: Type[RedundancyStrategy]):
    def register(fn: _Decider) -> _Decider:
        _DECIDERS[cls] = fn
        return fn

    return register


@_decider(IterativeRedundancy)
def _decide_iterative(strategy, a, b):
    # decide(): accept when |a - b| >= d (with any response); else
    # dispatch d - margin (a full d when every job so far was silent).
    margin = np.abs(a - b)
    accept = (margin >= strategy.d) & ((a + b) > 0)
    return accept, a > b, strategy.d - margin


@_decider(ProgressiveRedundancy)
def _decide_progressive(strategy, a, b):
    # decide(): accept once one value holds the consensus; else dispatch
    # the leader's deficit (ties lead with the False value, matching
    # VoteState.ranked()'s repr ordering, but the deficit is the same).
    leader = np.maximum(a, b)
    accept = leader >= strategy.consensus
    return accept, a > b, strategy.consensus - leader


@_decider(TraditionalRedundancy)
def _decide_traditional(strategy, a, b):
    # decide(): re-issue silent jobs until k responses, then majority (k
    # odd, binary model: the plurality leader is the majority).
    responses = a + b
    accept = responses >= strategy.k
    return accept, a > b, strategy.k - responses


@_decider(ComplexIterativeRedundancy)
def _decide_complex(strategy, a, b):
    # decide(): accept when leader - runner_up >= d(r, R, 0); else
    # dispatch max(1, d0 + runner_up) - leader (a full max(1, d0) when
    # no job has responded yet).
    hi = np.maximum(a, b)
    lo = np.minimum(a, b)
    d0 = strategy._required_margin
    responded = (a + b) > 0
    accept = responded & ((hi - lo) >= d0)
    more = np.where(responded, np.maximum(1, d0 + lo) - hi, max(1, d0))
    return accept, a > b, more


def _decide_fallback(strategy, a, b):
    """Per-task decide through a real :class:`VoteState`.

    The escape hatch for strategies without a vectorised decider: build
    each active task's binary vote and let the strategy's own
    ``decide()`` run.  O(active tasks) Python per wave, but the columnar
    tallies stay the single source of truth.
    """
    accept = np.zeros(a.shape[0], dtype=bool)
    value = np.zeros(a.shape[0], dtype=bool)
    more = np.zeros(a.shape[0], dtype=np.int64)
    for i in range(a.shape[0]):
        vote = VoteState.binary(int(a[i]), int(b[i]))
        decision = strategy.decide(vote)
        if decision.done:
            accept[i] = True
            value[i] = bool(decision.accepted)
        else:
            more[i] = decision.more_jobs
    return accept, value, more


# ---------------------------------------------------------------------------
# Regime kernels (vectorised + scalar fallbacks, the decider pattern)
# ---------------------------------------------------------------------------

#: name -> vectorised kernel.  The engine always dispatches through this
#: table so tests can swap in the scalar fallback from
#: ``_KERNEL_FALLBACKS`` and assert byte-identical reports -- both
#: implementations consume the *same* pre-drawn arrays, so any
#: divergence is a kernel bug, not RNG drift.
_KERNELS: Dict[str, Callable] = {}
_KERNEL_FALLBACKS: Dict[str, Callable] = {}


def _kernel(name: str, fallback: Callable):
    def register(fn: Callable) -> Callable:
        _KERNELS[name] = fn
        _KERNEL_FALLBACKS[name] = fallback
        return fn

    return register


def _pool_compact_fallback(reliability, speed, ids, keep, new_rel, new_speed, new_ids):
    """Scalar mirror of the churn pool compaction: keep, then append."""
    out_rel = [float(reliability[i]) for i in range(reliability.shape[0]) if keep[i]]
    out_speed = [float(speed[i]) for i in range(speed.shape[0]) if keep[i]]
    out_ids = [int(ids[i]) for i in range(ids.shape[0]) if keep[i]]
    for i in range(new_rel.shape[0]):
        out_rel.append(float(new_rel[i]))
        out_speed.append(float(new_speed[i]))
        out_ids.append(int(new_ids[i]))
    return (
        np.asarray(out_rel, dtype=np.float64),
        np.asarray(out_speed, dtype=np.float64),
        np.asarray(out_ids, dtype=np.int64),
    )


@_kernel("pool_compact", _pool_compact_fallback)
def _pool_compact(reliability, speed, ids, keep, new_rel, new_speed, new_ids):
    """Apply one churn batch to the pool columns: departures drop rows
    (boolean keep-mask), arrivals append rows.  Returns the new columns."""
    return (
        np.concatenate((reliability[keep], new_rel)),
        np.concatenate((speed[keep], new_speed)),
        np.concatenate((ids[keep], new_ids)),
    )


def _spot_tally_fallback(ids, passed, passes, fails):
    """Scalar mirror of the spot-check tally: one manager call per check."""
    for i in range(ids.shape[0]):
        if passed[i]:
            passes[ids[i]] += 1
        else:
            fails[ids[i]] += 1


@_kernel("spot_tally", _spot_tally_fallback)
def _spot_tally(ids, passed, passes, fails):
    """Fold one wave's spot-check outcomes into the per-node tallies.

    In-place, duplicate-safe (``np.add.at``): the exact column analogue
    of :meth:`CredibilityManager.spot_check` called once per check.
    """
    np.add.at(passes, ids[passed], 1)
    np.add.at(fails, ids[~passed], 1)


def _horizon_cut_fallback(start, span, horizon):
    """Scalar mirror of the horizon truncation mask."""
    out = np.zeros(start.shape[0], dtype=bool)
    for i in range(start.shape[0]):
        out[i] = start[i] + span[i] > horizon
    return out


@_kernel("horizon_cut", _horizon_cut_fallback)
def _horizon_cut(start, span, horizon):
    """Which active tasks' waves end past the horizon (truncated).

    Matches the DES clock rule exactly: events *at* the horizon still
    fire (:meth:`EventQueue.pop_due` stops strictly after ``limit``), so
    a wave is truncated only when its slowest job lands strictly later.
    """
    return start + span > horizon


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------


def _segment_counts(mask, segments, widest):
    """Per-task ``True`` counts of a per-job bool column.

    ``widest`` bounds every segment's length.  When it fits a byte the
    sum runs on the mask's own bytes; any wider accumulator makes
    ``reduceat`` cast the whole column first (8 bytes per job).
    """
    if widest <= np.iinfo(np.uint8).max:
        counts = np.add.reduceat(mask.view(np.uint8), segments, dtype=np.uint8)
        return counts.astype(np.int64)
    return np.add.reduceat(mask, segments, dtype=np.int64)


def check_columnar(strategy: RedundancyStrategy, failure_model: object = None) -> None:
    """Reject a strategy or failure model outside the columnar regime.

    Raises:
        ColumnarUnsupported: for a non-binary failure model or a
            node-aware strategy; the message names ``engine="des"``.
    """
    if failure_model is not None and type(failure_model) is not ByzantineCollusion:
        raise ColumnarUnsupported(
            "the columnar engine models the binary colluding-Byzantine "
            f"failure model only, got {type(failure_model).__name__}; "
            'use engine="des"'
        )
    if is_node_aware(strategy):
        raise ColumnarUnsupported(
            'node-aware strategies need per-node bookkeeping; use engine="des"'
        )


def run_columnar_dca(
    config: DcaConfig,
    recorder: Optional[Recorder] = None,
    *,
    max_waves: int = 10_000,
) -> DcaReport:
    """Run one DCA computation with columnar batch state.

    Args:
        config: The run configuration (same class the DES takes); see
            :class:`ColumnarUnsupported` for the supported regime.
        recorder: Optional telemetry recorder; receives the DES's
            counters and histograms and one ``dca.wave`` span per wave.
        max_waves: Runaway guard; a healthy run needs a handful of waves.

    Returns:
        A :class:`~repro.dca.report.DcaReport` with the Section 4.1
        measures and no per-task records.
    """
    _require_numpy()
    check_columnar(config.strategy, config.failure_model)
    strategy = config.strategy
    decider = _DECIDERS.get(type(strategy), _decide_fallback)

    registry = RngRegistry(config.seed).spawn("columnar")
    rng_nodes = np.random.default_rng(registry.spawn("nodes").seed)
    rng_select = np.random.default_rng(registry.spawn("selection").seed)
    rng_failures = np.random.default_rng(registry.spawn("failures").seed)
    rng_durations = np.random.default_rng(registry.spawn("durations").seed)
    # Spawn seeds are stateless name hashes, so these two extra streams
    # cannot perturb the four legacy ones: the contention-free path draws
    # exactly the sequence it drew before churn/spot-check support.
    rng_churn = np.random.default_rng(registry.spawn("churn").seed)
    rng_spot = np.random.default_rng(registry.spawn("spot-checks").seed)

    tasks = config.tasks
    timeout = config.effective_timeout
    silent_prob = config.unresponsive_prob
    spot_rate = config.spot_check_rate
    horizon = config.max_time
    arrival_rate = config.arrival_rate
    departure_rate = config.departure_rate
    has_churn = bool(arrival_rate or departure_rate)
    has_spot = spot_rate > 0.0

    # Struct-of-arrays node pool: one column per node attribute.  A
    # homogeneous pool (fixed reliability, no speed spread) collapses to
    # scalars: per-job draws are then iid and no node indexing is needed.
    # Churn forces real columns even when homogeneous -- the pool's
    # *membership* varies over time -- plus a stable-id column so
    # spot-check tallies survive compaction.
    distribution = config.reliability_distribution
    homogeneous = config.speed_spread == 0.0 and not _draws(distribution)
    track_nodes = not homogeneous or has_churn
    node_reliability = None
    node_speed = None
    node_ids = None
    if homogeneous:
        scalar_reliability = distribution.sample(rng_failures)  # no draw
        if has_churn:
            node_reliability = np.full(config.nodes, float(scalar_reliability))
            node_speed = np.ones(config.nodes, dtype=np.float64)
    else:
        node_reliability = np.asarray(
            [distribution.sample(_NumpyRandom(rng_nodes)) for _ in range(config.nodes)],
            dtype=np.float64,
        )
        node_speed = 1.0 + config.speed_spread * rng_nodes.uniform(
            -1.0, 1.0, config.nodes
        )
        scalar_reliability = 0.0
    if has_churn:
        node_ids = np.arange(config.nodes, dtype=np.int64)
    next_node_id = config.nodes

    # Grow-only per-node spot-check tallies, indexed by stable node id
    # (== pool position when there is no churn).
    spot_passes = spot_fails = None
    if has_spot:
        spot_passes = np.zeros(config.nodes, dtype=np.int64)
        spot_fails = np.zeros(config.nodes, dtype=np.int64)

    # Per-task columns (the struct-of-arrays _TaskState).
    true_votes = np.zeros(tasks, dtype=np.int64)
    false_votes = np.zeros(tasks, dtype=np.int64)
    jobs_used = np.zeros(tasks, dtype=np.int64)
    waves = np.zeros(tasks, dtype=np.int64)
    clock = np.zeros(tasks, dtype=np.float64)
    accepted_true = np.zeros(tasks, dtype=bool)
    completed = np.zeros(tasks, dtype=bool)

    active = np.arange(tasks, dtype=np.int64)
    pending = np.full(tasks, strategy.initial_jobs(), dtype=np.int64)

    rec = active_recorder(recorder)
    if rec is not None:
        rec.count(DCA_SUBMITS, tasks)
        strategy_label = strategy.describe()

    total_dispatched = 0
    timed_out = 0
    completes = 0
    spot_checks = 0
    joins = 0
    departures = 0
    frontier = 0.0  # global clock: the latest wave-end seen so far
    churn_clock = 0.0  # pool state is current up to this time
    wave = 0
    while active.size:
        wave += 1
        if wave > max_waves:
            raise RuntimeError(
                f"columnar run exceeded {max_waves} waves; "
                "the strategy may not be converging"
            )

        # -- churn step: bring the pool forward to the global frontier.
        # Wave boundaries are the model's churn resolution: departures
        # drop uniform rows, arrivals append freshly drawn nodes, both
        # Poisson in the frontier time elapsed since the last step.
        if has_churn and wave > 1:
            now = frontier if horizon is None else min(frontier, horizon)
            dt = now - churn_clock
            churn_clock = now
            pool_size = node_reliability.shape[0]
            n_dep = 0
            n_arr = 0
            if departure_rate and dt > 0.0:
                # The DES departure event only fires while >1 node is
                # alive; the batch equivalent caps at pool_size - 1.
                n_dep = min(int(rng_churn.poisson(departure_rate * dt)), pool_size - 1)
            if arrival_rate and dt > 0.0:
                n_arr = int(rng_churn.poisson(arrival_rate * dt))
            if n_dep or n_arr:
                keep = np.ones(pool_size, dtype=bool)
                if n_dep:
                    gone = rng_churn.choice(pool_size, size=n_dep, replace=False)
                    keep[gone] = False
                if n_arr:
                    new_rel = np.asarray(
                        [
                            distribution.sample(_NumpyRandom(rng_churn))
                            for _ in range(n_arr)
                        ],
                        dtype=np.float64,
                    )
                    if config.speed_spread > 0.0:
                        new_speed = 1.0 + config.speed_spread * rng_churn.uniform(
                            -1.0, 1.0, n_arr
                        )
                    else:
                        new_speed = np.ones(n_arr, dtype=np.float64)
                    new_ids = np.arange(
                        next_node_id, next_node_id + n_arr, dtype=np.int64
                    )
                    next_node_id += n_arr
                    if has_spot:
                        spot_passes = np.concatenate(
                            (spot_passes, np.zeros(n_arr, dtype=np.int64))
                        )
                        spot_fails = np.concatenate(
                            (spot_fails, np.zeros(n_arr, dtype=np.int64))
                        )
                else:
                    new_rel = np.empty(0, dtype=np.float64)
                    new_speed = np.empty(0, dtype=np.float64)
                    new_ids = np.empty(0, dtype=np.int64)
                node_reliability, node_speed, node_ids = _KERNELS["pool_compact"](
                    node_reliability, node_speed, node_ids, keep, new_rel, new_speed, new_ids
                )
                departures += n_dep
                joins += n_arr

        counts = pending[active]
        segments = np.concatenate(([0], np.cumsum(counts)[:-1]))
        jobs = int(counts.sum())
        total_dispatched += jobs
        if rec is not None:
            wave_start = float(clock[active].min())
            wave_attrs = {"wave": wave, "tasks": int(counts.size), "jobs": jobs}
            rec.observe_many(DCA_WAVE_SIZE, counts, labels={"followup": wave > 1})
        pool_size = node_reliability.shape[0] if track_nodes else config.nodes

        # Job draws, one column per quantity over this wave's jobs.  A
        # wave of 10^6 tasks x k=19 is 1.9e7 jobs (152 MB per float
        # column), so every column is built in place where it can be and
        # dropped as soon as its last reader is done.
        if track_nodes:
            node_index = rng_select.integers(0, pool_size, jobs)
            reliability = node_reliability[node_index]
            speed = node_speed[node_index]
            del node_index
        else:
            reliability = scalar_reliability
            speed = None  # every node runs at speed 1.0
        silent = rng_failures.random(jobs) < silent_prob if silent_prob else None
        correct = rng_failures.random(jobs) < reliability
        del reliability
        duration = rng_durations.uniform(config.duration_low, config.duration_high, jobs)
        if speed is not None:
            duration *= speed
        del speed
        # A job responds only if the node speaks up *and* beats the
        # deadline (the DES deadline event outruns a same-time completion).
        responded = duration < timeout
        if silent is not None:
            responded &= ~silent
            duration[silent] = timeout
        del silent
        # The response time is the duration, or the deadline for a job
        # that never answered; nothing else reads the durations.
        response_time = np.minimum(duration, timeout, out=duration)

        # -- spot-checks: replay the task server's assignment gate.  Every
        # assignment attempt draws once; a diverted slot is re-assigned
        # and draws again, so the rounds shrink geometrically.  All
        # spot-related randomness comes from its own stream, so enabling
        # spot-checks never perturbs the task outcome draws above.
        if has_spot:
            start = clock[active]  # this wave's dispatch time, per task
            spot_starts = []
            pending_starts = np.repeat(start, counts)
            while pending_starts.size:
                gate = rng_spot.random(pending_starts.size)
                pending_starts = pending_starts[gate < spot_rate]
                if pending_starts.size:
                    spot_starts.append(pending_starts)
            if spot_starts:
                spot_start = np.concatenate(spot_starts)
                n_spot = spot_start.shape[0]
                spot_checks += n_spot
                total_dispatched += n_spot
                if track_nodes:
                    spot_index = rng_spot.integers(0, pool_size, n_spot)
                    spot_reliability = node_reliability[spot_index]
                    spot_speed = node_speed[spot_index]
                else:
                    spot_index = rng_spot.integers(0, config.nodes, n_spot)
                    spot_reliability = scalar_reliability
                    spot_speed = 1.0
                spot_silent = (
                    rng_spot.random(n_spot) < silent_prob
                    if silent_prob
                    else np.zeros(n_spot, dtype=bool)
                )
                spot_correct = rng_spot.random(n_spot) < spot_reliability
                spot_duration = (
                    rng_spot.uniform(config.duration_low, config.duration_high, n_spot)
                    * spot_speed
                )
                spot_responded = ~spot_silent & (spot_duration < timeout)
                # The server learns an outcome when its event fires: the
                # completion (pass or wrong answer) or the deadline
                # (silent / too slow -> also a timed-out job).  Under a
                # horizon, events past it never fire.
                if horizon is None:
                    completion_seen = np.ones(n_spot, dtype=bool)
                    deadline_seen = np.ones(n_spot, dtype=bool)
                else:
                    completion_seen = spot_start + spot_duration <= horizon
                    deadline_seen = spot_start + timeout <= horizon
                spot_timed_out = ~spot_responded & deadline_seen
                timed_out += int(spot_timed_out.sum())
                if rec is not None:
                    completes += int((spot_responded & completion_seen).sum())
                seen = np.where(spot_responded, completion_seen, deadline_seen)
                passed = spot_responded & spot_correct
                ids = node_ids[spot_index] if has_churn else spot_index
                _KERNELS["spot_tally"](
                    ids[seen], passed[seen], spot_passes, spot_fails
                )

        # Fold the wave into the tallies with segment reductions.
        widest = int(counts.max())
        true_wave = _segment_counts(responded & correct, segments, widest)
        false_wave = _segment_counts(responded & ~correct, segments, widest)
        span = np.maximum.reduceat(response_time, segments)
        del correct, duration, response_time

        if horizon is not None:
            truncated = _KERNELS["horizon_cut"](clock[active], span, horizon)
        else:
            truncated = None
        if truncated is not None and truncated.any():
            # Truncated waves were dispatched (counted above) but resolve
            # past the horizon: no votes land, no decision happens, and
            # their deadline events never fire (a wave with any timed-out
            # job spans the full timeout, which the cut proves is past
            # the horizon) -- so they add nothing to jobs_timed_out.
            live = ~truncated
            live_tasks = active[live]
            # Churn only ever reads the frontier up to the horizon, so the
            # wave's end is clipped there.
            wave_last = min(float((clock[active] + span).max()), horizon)
            responded_per_task = _segment_counts(responded, segments, widest)
            answered = int(responded_per_task[live].sum())
            timed_out += int(counts[live].sum()) - answered
            true_votes[live_tasks] += true_wave[live]
            false_votes[live_tasks] += false_wave[live]
            clock[live_tasks] += span[live]
            jobs_used[live_tasks] += counts[live]
            waves[live_tasks] += 1
            active = live_tasks
        else:
            true_votes[active] += true_wave
            false_votes[active] += false_wave
            answered = int(responded.sum())
            timed_out += jobs - answered
            # Wave-synchronous clock: the wave resolves at its slowest job.
            clock[active] += span
            jobs_used[active] += counts
            waves[active] += 1
            wave_last = float(clock[active].max())
        del responded
        frontier = max(frontier, wave_last)
        completes += answered
        if rec is not None:
            rec.span_begin(DCA_WAVE_SPAN, wave, wave_start, wave_attrs)
            rec.span_end(DCA_WAVE_SPAN, wave, wave_last)
        if not active.size:
            break
        accept, value, more = decider(strategy, true_votes[active], false_votes[active])
        if rec is not None:
            accepted = int(accept.sum())
            for outcome, n in (("accept", accepted), ("extend", accept.size - accepted)):
                if n:
                    rec.count(
                        DCA_DECISIONS, n, labels={"strategy": strategy_label, "outcome": outcome}
                    )
        done = active[accept]
        accepted_true[done] = value[accept]
        completed[done] = True
        pending[active] = more
        active = active[~accept]

    completed_count = int(completed.sum())
    if horizon is not None and completed_count < tasks:
        # Incomplete at the horizon: the DES clock stops exactly there.
        makespan = float(horizon)
    elif completed_count:
        # All done (or no horizon): the run ends at the last decision.
        makespan = float(clock[completed].max())
    else:
        makespan = 0.0
    if rec is not None:
        # Like the DES, a counter exists only once something incremented it.
        for name, n in (
            (DCA_DISPATCHES, total_dispatched),
            (DCA_COMPLETES, completes),
            (DCA_TIMEOUTS, timed_out),
            (DCA_ACCEPTS, completed_count),
            (DCA_SPOT_CHECKS, spot_checks),
        ):
            if n:
                rec.count(name, n)
        rec.gauge(DCA_MAKESPAN, makespan)
        rec.observe_many(DCA_RESPONSE_TIME, clock[completed])
        rec.observe_many(DCA_JOBS_PER_TASK, jobs_used[completed])

    if completed_count:
        done_clock = clock[completed]
        mean_response = float(done_clock.mean())
        max_response = float(done_clock.max())
        mean_waves = float(waves[completed].mean())
        total_jobs = int(jobs_used[completed].sum())
        max_jobs = int(jobs_used[completed].max())
    else:
        # As DcaReport.from_records over zero records: nan means, 0 max jobs.
        mean_response = math.nan
        max_response = math.nan
        mean_waves = math.nan
        total_jobs = 0
        max_jobs = 0
    return DcaReport(
        strategy=strategy.describe(),
        tasks_submitted=tasks,
        tasks_completed=completed_count,
        tasks_correct=int(accepted_true[completed].sum()),
        total_jobs=total_jobs,
        max_jobs_per_task=max_jobs,
        mean_response_time=mean_response,
        max_response_time=max_response,
        mean_waves=mean_waves,
        makespan=makespan,
        total_jobs_dispatched=total_dispatched,
        jobs_timed_out=timed_out,
        spot_checks=spot_checks,
        nodes_blacklisted=int((spot_fails > 0).sum()) if has_spot else 0,
        nodes_joined=joins,
        nodes_departed=departures,
        seed=config.seed,
    )


# ---------------------------------------------------------------------------
# Reliability-distribution bridging
# ---------------------------------------------------------------------------


class _NumpyRandom:
    """Just enough of the ``random.Random`` surface for distributions.

    :class:`~repro.core.distributions.ReliabilityDistribution` samplers
    take a ``random.Random``; this adapter lets them draw from a seeded
    numpy generator instead, so the node columns come from the columnar
    seed family.
    """

    def __init__(self, rng) -> None:
        self._rng = rng

    def random(self) -> float:
        return float(self._rng.random())

    def uniform(self, low: float, high: float) -> float:
        return float(self._rng.uniform(low, high))

    def gauss(self, mu: float, sigma: float) -> float:
        return float(self._rng.normal(mu, sigma))

    def betavariate(self, alpha: float, beta: float) -> float:
        return float(self._rng.beta(alpha, beta))

    def choice(self, seq):
        return seq[int(self._rng.integers(0, len(seq)))]


def _draws(distribution) -> bool:
    """Whether sampling the distribution consumes randomness.

    Fixed reliabilities return their constant without drawing, so a
    fixed homogeneous pool needs no node columns at all; anything else
    gets a per-node reliability column.
    """
    probe = _CountingRandom()
    distribution.sample(probe)
    return probe.calls > 0


class _CountingRandom:
    """Counts draw calls without yielding randomness (probe double)."""

    def __init__(self) -> None:
        self.calls = 0

    def __getattr__(self, name: str):
        def counted(*args, **kwargs):
            self.calls += 1
            if name == "choice":
                return args[0][0]
            return 0.5

        return counted
