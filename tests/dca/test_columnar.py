# reprolint: disable-file=RL003 -- determinism tests assert byte-exact equality on purpose
"""Tests for the columnar batch engine (:mod:`repro.dca.columnar`).

The engine trades the object DES for struct-of-arrays wave batching, so
it cannot be byte-identical to :func:`run_dca` -- but it must be (a)
deterministic given the seed, (b) statistically indistinguishable from
the DES on the paper's measures, (c) honest about the regime it
supports, and (d) faithful to the strategies' decide() semantics (the
vectorized deciders are cross-checked against the per-task
``VoteState`` fallback).
"""

import pytest

np = pytest.importorskip("numpy")

from repro.core import (
    ComplexIterativeRedundancy,
    CredibilityManager,
    CredibilityStrategy,
    IterativeRedundancy,
    ProgressiveRedundancy,
    TraditionalRedundancy,
)
from repro.core.distributions import BetaReliability
from repro.dca import (
    ByzantineCollusion,
    ColumnarUnsupported,
    DcaConfig,
    NonColludingFailures,
    run_columnar_dca,
    run_dca,
)
from repro.dca.columnar import (
    _DECIDERS,
    _KERNEL_FALLBACKS,
    _KERNELS,
    _decide_fallback,
    _segment_counts,
)
from repro.obs import TelemetryRecorder


def _config(strategy, **overrides):
    params = dict(tasks=2_000, nodes=300, reliability=0.7, seed=17)
    params.update(overrides)
    return DcaConfig(strategy=strategy, **params)


def _kernel_cross_check(monkeypatch, config):
    """Vectorised kernels vs scalar fallbacks: byte-identical reports.

    Both implementations consume the same pre-drawn arrays (the decider
    cross-check pattern), so equality here is exact, not statistical.
    """
    fast = run_columnar_dca(config)
    for name, fallback in _KERNEL_FALLBACKS.items():
        monkeypatch.setitem(_KERNELS, name, fallback)
    slow = run_columnar_dca(config)
    assert fast == slow
    assert fast.as_dict() == slow.as_dict()
    return fast


class TestDeterminism:
    def test_same_seed_same_report(self):
        first = run_columnar_dca(_config(IterativeRedundancy(3)))
        second = run_columnar_dca(_config(IterativeRedundancy(3)))
        assert first == second
        assert first.as_dict() == second.as_dict()

    def test_different_seeds_differ(self):
        first = run_columnar_dca(_config(IterativeRedundancy(3), seed=1))
        second = run_columnar_dca(_config(IterativeRedundancy(3), seed=2))
        assert first.as_dict() != second.as_dict()

    def test_heterogeneous_pool_is_deterministic(self):
        config = _config(
            IterativeRedundancy(3),
            reliability=BetaReliability.with_mean(0.7),
            speed_spread=0.5,
        )
        assert run_columnar_dca(config) == run_columnar_dca(config)


class TestCrossValidation:
    """The engine must agree with the DES on the paper's measures.

    Tolerances are a few standard errors at these sizes; both runs are
    seeded, so the assertion is deterministic (no flakes) -- it would
    only move if either engine's semantics changed.
    """

    @pytest.mark.parametrize(
        "strategy_factory",
        [
            lambda: IterativeRedundancy(3),
            lambda: ProgressiveRedundancy(7),
            lambda: TraditionalRedundancy(7),
            lambda: ComplexIterativeRedundancy(0.7, 0.95),
        ],
    )
    def test_matches_des_statistically(self, strategy_factory):
        columnar = run_columnar_dca(_config(strategy_factory(), tasks=4_000))
        des = run_dca(_config(strategy_factory(), tasks=4_000))
        assert columnar.system_reliability == pytest.approx(
            des.system_reliability, abs=0.02
        )
        assert columnar.cost_factor == pytest.approx(des.cost_factor, rel=0.05)
        assert columnar.as_dict()["mean_waves"] == pytest.approx(
            des.as_dict()["mean_waves"], rel=0.05
        )

    def test_report_dict_keys_match_des(self):
        columnar = run_columnar_dca(_config(IterativeRedundancy(3)))
        des = run_dca(_config(IterativeRedundancy(3)))
        assert set(columnar.as_dict()) == set(des.as_dict())


class TestDeciderEquivalence:
    """Vectorized deciders == per-task VoteState/decide() fallback."""

    @pytest.mark.parametrize(
        "strategy_factory",
        [
            lambda: IterativeRedundancy(3),
            lambda: ProgressiveRedundancy(7),
            lambda: TraditionalRedundancy(7),
            lambda: ComplexIterativeRedundancy(0.7, 0.95),
        ],
    )
    def test_vectorized_matches_fallback(self, strategy_factory):
        strategy = strategy_factory()
        decider = _DECIDERS[type(strategy)]
        rng = np.random.default_rng(5)
        a = rng.integers(0, 9, size=500)
        b = rng.integers(0, 9, size=500)
        fast_accept, fast_value, fast_more = decider(strategy, a, b)
        slow_accept, slow_value, slow_more = _decide_fallback(strategy, a, b)
        # The engine consumes value only where accepted and more only
        # where not; outside those masks the columns are don't-cares.
        assert np.array_equal(np.asarray(fast_accept), slow_accept)
        accept = slow_accept
        assert np.array_equal(np.asarray(fast_value)[accept], slow_value[accept])
        assert np.array_equal(
            np.asarray(fast_more)[~accept], slow_more[~accept]
        )


class TestSupportedRegime:
    def test_rejects_non_colluding_failures(self):
        with pytest.raises(ColumnarUnsupported, match="colluding"):
            run_columnar_dca(
                _config(
                    IterativeRedundancy(3),
                    failure_model=NonColludingFailures(value_space=8),
                )
            )

    def test_rejects_node_aware_strategies(self):
        with pytest.raises(ColumnarUnsupported, match="node-aware"):
            run_columnar_dca(_config(CredibilityStrategy(CredibilityManager())))

    def test_accepts_byzantine_collusion(self):
        report = run_columnar_dca(
            _config(
                IterativeRedundancy(3),
                failure_model=ByzantineCollusion(),
                unresponsive_prob=0.1,
                timeout=1.2,
            )
        )
        assert report.tasks_submitted == 2_000
        assert report.jobs_timed_out > 0


class TestChurnRegime:
    """Wave-boundary churn: statistically the DES's continuous churn."""

    def _config(self, **overrides):
        params = dict(
            tasks=2_000,
            nodes=400,
            arrival_rate=2.0,
            departure_rate=2.0,
            unresponsive_prob=0.1,
            seed=7,
        )
        params.update(overrides)
        return _config(IterativeRedundancy(3), **params)

    def test_deterministic_and_counts_churn(self):
        first = run_columnar_dca(self._config())
        second = run_columnar_dca(self._config())
        assert first == second
        assert first.nodes_joined > 0
        assert first.nodes_departed > 0

    def test_kernels_match_scalar_fallbacks(self, monkeypatch):
        report = _kernel_cross_check(monkeypatch, self._config(tasks=400))
        assert report.nodes_joined > 0

    def test_matches_des_statistically(self):
        # Reliability, cost, and wave counts are contention-insensitive
        # (assumption 1: contention delays *when* jobs run, not what they
        # report).  Makespans differ under contention -- the DES queues
        # on the 400-node pool -- so the churn *totals* differ too; what
        # must match is the churn flux per unit of simulated time.
        columnar = run_columnar_dca(self._config())
        des = run_dca(self._config())
        assert columnar.system_reliability == pytest.approx(
            des.system_reliability, abs=0.03
        )
        assert columnar.cost_factor == pytest.approx(des.cost_factor, rel=0.05)
        assert columnar.as_dict()["mean_waves"] == pytest.approx(
            des.as_dict()["mean_waves"], rel=0.05
        )
        for report in (columnar, des):
            assert report.nodes_joined / report.makespan == pytest.approx(2.0, rel=0.3)
            assert report.nodes_departed / report.makespan == pytest.approx(
                2.0, rel=0.3
            )

    def test_churn_streams_do_not_perturb_legacy_draws(self):
        # Spawn seeds are stateless name hashes: a no-churn run after the
        # churn feature landed draws exactly what it drew before it.
        baseline = run_columnar_dca(_config(IterativeRedundancy(3)))
        explicit = run_columnar_dca(
            _config(IterativeRedundancy(3), arrival_rate=0.0, departure_rate=0.0)
        )
        assert baseline == explicit

    def test_heterogeneous_churn_pool(self):
        config = self._config(
            tasks=400,
            reliability=BetaReliability.with_mean(0.7),
            speed_spread=0.4,
        )
        assert run_columnar_dca(config) == run_columnar_dca(config)


class TestSpotCheckRegime:
    """Spot-check diversion and per-node tallies, taskserver semantics."""

    def _config(self, **overrides):
        params = dict(tasks=2_000, nodes=300, spot_check_rate=0.2, seed=11)
        params.update(overrides)
        return _config(IterativeRedundancy(3), **params)

    def test_deterministic_and_counts_checks(self):
        first = run_columnar_dca(self._config())
        second = run_columnar_dca(self._config())
        assert first == second
        assert first.spot_checks > 0
        # reliability 0.7: plenty of failed checks -> blacklist entries
        assert 0 < first.nodes_blacklisted <= 300

    def test_kernels_match_scalar_fallbacks(self, monkeypatch):
        report = _kernel_cross_check(monkeypatch, self._config(tasks=400))
        assert report.spot_checks > 0

    def test_spot_stream_does_not_perturb_task_outcomes(self):
        # All spot draws come from the dedicated stream, so enabling
        # spot-checks changes overhead counters but no task verdict.
        baseline = run_columnar_dca(_config(IterativeRedundancy(3)))
        spotted = run_columnar_dca(self._config(seed=17, spot_check_rate=0.3))
        assert spotted.tasks_correct == baseline.tasks_correct
        assert spotted.total_jobs == baseline.total_jobs
        assert spotted.mean_response_time == baseline.mean_response_time

    def test_zero_rate_never_draws_the_spot_stream(self):
        baseline = run_columnar_dca(_config(IterativeRedundancy(3)))
        explicit = run_columnar_dca(_config(IterativeRedundancy(3), spot_check_rate=0.0))
        assert baseline == explicit

    def test_matches_des_statistically(self):
        # Contention-free sizing (nodes >> concurrent jobs): the DES's
        # queueing delays vanish and the engines are comparable on all
        # measures, including the spot-check volume.
        config = dict(tasks=400, nodes=6_000, spot_check_rate=0.2, seed=11)
        columnar = run_columnar_dca(self._config(**config))
        des = run_dca(self._config(**config))
        assert columnar.system_reliability == pytest.approx(
            des.system_reliability, abs=0.05
        )
        assert columnar.cost_factor == pytest.approx(des.cost_factor, rel=0.1)
        assert columnar.spot_checks == pytest.approx(des.spot_checks, rel=0.2)

    def test_tally_matches_credibility_manager_replay(self):
        # The column tallies are the exact analogue of one
        # CredibilityManager.spot_check call per check.
        rng = np.random.default_rng(3)
        ids = rng.integers(0, 40, size=500).astype(np.int64)
        passed = rng.random(500) < 0.8
        passes = np.zeros(40, dtype=np.int64)
        fails = np.zeros(40, dtype=np.int64)
        _KERNELS["spot_tally"](ids, passed, passes, fails)
        manager = CredibilityManager()
        for node_id, ok in zip(ids.tolist(), passed.tolist()):
            manager.spot_check(node_id, passed=ok)
        assert manager.spot_checks_issued == 500
        assert int((fails > 0).sum()) == manager.blacklist_events
        for node_id in range(40):
            assert bool(fails[node_id] > 0) == manager.is_blacklisted(node_id)


class TestMaxTimeRegime:
    """Deadline horizons with partial-wave truncation, DES clock rules."""

    def _config(self, **overrides):
        # Contention-free sizing, so completion counts are comparable
        # with the DES (queueing would otherwise dominate who finishes).
        params = dict(tasks=400, nodes=6_000, max_time=2.8, seed=2)
        params.update(overrides)
        return _config(IterativeRedundancy(3), **params)

    def test_deterministic_and_truncates(self):
        first = run_columnar_dca(self._config())
        second = run_columnar_dca(self._config())
        assert first == second
        assert 0 < first.tasks_completed < first.tasks_submitted
        assert first.makespan == 2.8

    def test_kernels_match_scalar_fallbacks(self, monkeypatch):
        report = _kernel_cross_check(monkeypatch, self._config())
        assert report.tasks_completed < report.tasks_submitted

    def test_generous_horizon_is_a_noop(self):
        baseline = run_columnar_dca(_config(IterativeRedundancy(3)))
        bounded = run_columnar_dca(_config(IterativeRedundancy(3), max_time=1e9))
        assert bounded.makespan == baseline.makespan
        assert bounded.tasks_completed == baseline.tasks_completed
        assert bounded.as_dict() == baseline.as_dict()

    def test_nothing_completes_before_a_tiny_horizon(self):
        import math

        report = run_columnar_dca(self._config(max_time=0.1))
        # duration_low is 0.5: no wave can land by 0.1.
        assert report.tasks_completed == 0
        assert report.makespan == 0.1
        assert math.isnan(report.mean_response_time)
        assert report.total_jobs == 0
        assert report.max_jobs_per_task == 0

    def test_matches_des_statistically(self):
        for seed in (1, 2, 3):
            columnar = run_columnar_dca(self._config(seed=seed))
            des = run_dca(self._config(seed=seed))
            assert columnar.tasks_completed == pytest.approx(
                des.tasks_completed, rel=0.15
            )
            assert columnar.system_reliability == pytest.approx(
                des.system_reliability, abs=0.05
            )
            assert columnar.makespan == des.makespan == 2.8

    def test_timeouts_with_horizon_match_des_statistically(self):
        config = dict(max_time=4.2, unresponsive_prob=0.2, timeout=3.0, seed=2)
        columnar = run_columnar_dca(self._config(**config))
        des = run_dca(self._config(**config))
        assert columnar.jobs_timed_out > 0
        assert columnar.jobs_timed_out == pytest.approx(des.jobs_timed_out, rel=0.15)
        assert columnar.tasks_completed == pytest.approx(des.tasks_completed, rel=0.15)


class TestEdgeRegimes:
    """Edge regimes stay inside the engine's contract: the vectorized
    decider path and the per-task ``_decide_fallback`` path must
    produce byte-identical reports (popping the strategy from
    ``_DECIDERS`` forces the fallback), and the boundary RL305 reasons
    about statically (configs the engine must reject) is enforced at
    runtime -- ``TestSupportedRegime`` exercises every ``_validate``
    branch, matching the linter's reachability claim."""

    def _fallback_identical(self, monkeypatch, config):
        fast = run_columnar_dca(config)
        monkeypatch.delitem(_DECIDERS, type(config.strategy))
        assert type(config.strategy) not in _DECIDERS
        slow = run_columnar_dca(config)
        assert fast == slow
        assert fast.as_dict() == slow.as_dict()
        return fast

    def test_zero_tasks_rejected_at_config(self):
        # The zero-task regime is rejected before either engine runs;
        # the report aggregations therefore never see empty columns.
        with pytest.raises(ValueError, match="task"):
            _config(IterativeRedundancy(3), tasks=0)

    def test_single_node_pool(self, monkeypatch):
        config = _config(
            IterativeRedundancy(3),
            tasks=200,
            nodes=1,
            reliability=BetaReliability.with_mean(0.7),
            speed_spread=0.3,
        )
        report = self._fallback_identical(monkeypatch, config)
        assert report.tasks_completed == 200

    def test_all_silent_heavy_wave(self, monkeypatch):
        config = _config(
            IterativeRedundancy(3),
            tasks=200,
            unresponsive_prob=0.95,
            timeout=1.2,
        )
        report = self._fallback_identical(monkeypatch, config)
        assert report.jobs_timed_out > 0
        assert report.tasks_completed == 200

    def test_initial_jobs_exceed_pool(self, monkeypatch):
        # initial_jobs() of 7 against a 2-node pool: the contention-free
        # pool model re-uses nodes within a wave rather than starving.
        config = _config(IterativeRedundancy(7), tasks=100, nodes=2)
        report = self._fallback_identical(monkeypatch, config)
        assert report.max_jobs_per_task >= 7

    @pytest.mark.parametrize("widest", [1, 255, 256, 301])
    def test_segment_counts_match_int64_sums(self, widest):
        # Per-task vote tallies are summed on the mask's own bytes when
        # every wave segment fits one; an all-True segment of exactly
        # ``widest`` jobs is the overflow edge of that path.
        rng = np.random.default_rng(widest)
        lengths = rng.integers(1, widest + 1, 400)
        lengths[0] = widest
        segments = np.concatenate(([0], np.cumsum(lengths)[:-1]))
        mask = rng.random(int(lengths.sum())) < 0.9
        mask[:widest] = True
        got = _segment_counts(mask, segments, widest)
        assert got.dtype == np.int64
        assert got[0] == widest
        np.testing.assert_array_equal(
            got, np.add.reduceat(mask.astype(np.int64), segments)
        )


class TestReportAndTelemetry:
    def test_summary_mentions_strategy(self):
        report = run_columnar_dca(_config(IterativeRedundancy(3)))
        assert "iterative" in report.summary()

    def test_recorder_receives_aggregates(self):
        recorder = TelemetryRecorder()
        report = run_columnar_dca(_config(IterativeRedundancy(3)), recorder=recorder)
        payload = recorder.as_payload()
        assert payload["metrics"]
        assert report.total_jobs > report.tasks_submitted

    def test_recorder_does_not_perturb_results(self):
        bare = run_columnar_dca(_config(IterativeRedundancy(3)))
        recorded = run_columnar_dca(
            _config(IterativeRedundancy(3)), recorder=TelemetryRecorder()
        )
        assert bare == recorded

    @pytest.mark.parametrize(
        "regime",
        [
            {"spot_check_rate": 0.2, "unresponsive_prob": 0.1, "timeout": 1.2},
            {"arrival_rate": 20.0, "departure_rate": 20.0, "max_time": 6.0},
        ],
        ids=["spot-silent", "churn-horizon"],
    )
    def test_recorder_does_not_perturb_regimes(self, regime):
        bare = run_columnar_dca(_config(IterativeRedundancy(3), **regime))
        recorder = TelemetryRecorder()
        recorded = run_columnar_dca(_config(IterativeRedundancy(3), **regime), recorder=recorder)
        assert bare == recorded
        assert recorder.spans and recorder.open_spans == 0

    def test_recorder_speaks_the_des_vocabulary(self):
        # With and without silent nodes: timeouts appear only in the second.
        for silent in (0.0, 0.1):
            self._check_vocabulary(silent)

    def _check_vocabulary(self, silent):
        config = _config(
            IterativeRedundancy(3), tasks=300, nodes=3_000, unresponsive_prob=silent
        )
        des, columnar = TelemetryRecorder(), TelemetryRecorder()
        run_dca(config, recorder=des)
        report = run_columnar_dca(config, recorder=columnar)
        des_snap = des.registry.snapshot()
        col_snap = columnar.registry.snapshot()
        des_names = {name for name in des_snap if name.startswith("dca.")}
        assert des_names == {name for name in col_snap if name.startswith("dca.")}
        assert ("dca.timeout" in des_names) == (silent > 0)
        for name in ("dca.wave_size", "dca.response_time", "dca.jobs_per_task"):
            assert col_snap[name]["boundaries"] == des_snap[name]["boundaries"]

        def series(name):
            return {
                tuple(sorted(entry["labels"].items())): entry
                for entry in col_snap[name]["series"]
            }

        tasks = report.tasks_completed
        assert series("dca.response_time")[()]["count"] == tasks
        jobs = series("dca.jobs_per_task")[()]
        assert (jobs["count"], jobs["sum"]) == (tasks, report.total_jobs)
        waves = series("dca.wave_size")
        assert waves[(("followup", "False"),)]["count"] == tasks
        extends = waves[(("followup", "True"),)]["count"]
        decisions = series("dca.decisions")
        label = (("outcome", "extend"), ("strategy", "iterative(d=3)"))
        assert decisions[label]["value"] == extends
        assert tasks + extends == round(report.mean_waves * tasks)
        complete = series("dca.complete")[()]["value"]
        timeout = series("dca.timeout")[()]["value"] if "dca.timeout" in col_snap else 0
        assert complete + timeout == report.total_jobs
        spans = columnar.spans
        assert [span.name for span in spans] == ["dca.wave"] * len(spans)
        assert [span.key for span in spans] == list(range(1, len(spans) + 1))
        assert spans[0].start == 0.0
        assert max(span.end for span in spans) == report.makespan
