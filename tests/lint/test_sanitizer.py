"""Runtime determinism sanitizer: clean runs pass, an injected
global-RNG draw is detected and pinpointed at the first diverging event.
Covers all three substrates -- DCA, grid, and MapReduce."""

import random

import pytest

from repro.core import IterativeRedundancy, TraditionalRedundancy
from repro.dca.config import DcaConfig
from repro.dca.node import Node
from repro.grid.run import GridConfig
from repro.lint.sanitizer import (
    DeterminismError,
    DeterminismSanitizer,
    dca_runner,
    diff_captures,
    grid_runner,
    mapreduce_runner,
    sanitize_dca,
    sanitize_grid,
    sanitize_mapreduce,
    trace_fingerprint,
)
from repro.mapreduce.job import wordcount_job


def small_config(strategy=None, seed=11):
    return DcaConfig(
        strategy=strategy or IterativeRedundancy(2),
        tasks=60,
        nodes=15,
        reliability=0.7,
        seed=seed,
    )


class TestCleanRuns:
    def test_dca_run_is_deterministic(self):
        report = sanitize_dca(small_config())
        assert report.ok
        assert report.divergence is None
        assert report.events_compared > 0
        assert "deterministic" in report.message()
        report.raise_if_diverged()  # no-op when ok

    def test_three_runs_supported(self):
        report = sanitize_dca(small_config(TraditionalRedundancy(3)), runs=3)
        assert report.ok and report.runs == 3

    def test_runner_captures_events_and_metrics(self):
        events, metrics = dca_runner(small_config())()
        assert len(events) > 0
        assert metrics["tasks"] == 60
        assert trace_fingerprint(events)  # non-empty canonical text

    def test_needs_two_runs(self):
        with pytest.raises(ValueError):
            DeterminismSanitizer(dca_runner(small_config()), runs=1)


class TestInjectedNondeterminism:
    def test_global_rng_draw_is_detected_and_pinpointed(self, monkeypatch):
        # Inject exactly the bug RL001 guards against: a job-duration
        # perturbation drawn from the process-global random module.  Two
        # same-seed runs then consume different global draws and their
        # traces must diverge.
        original = Node.job_duration

        def leaky_duration(self, base_duration):
            # the global draw IS the injected bug under test
            return original(self, base_duration) + random.random() * 0.01  # reprolint: disable=RL001

        monkeypatch.setattr(Node, "job_duration", leaky_duration)
        report = sanitize_dca(small_config())
        assert not report.ok
        divergence = report.divergence
        assert divergence is not None
        # 60 submits and 15 first-wave dispatches replay identically; the
        # first completion is the first line carrying a leaked draw.  Its
        # clean lead over the runner-up (~0.024) exceeds the 0.01 leak, so
        # the same job completes first whatever the global RNG state.
        assert divergence.kind == "event"
        assert divergence.index == 75
        expected_time, expected_rest = divergence.expected.split(" ", 1)
        observed_time, observed_rest = divergence.observed.split(" ", 1)
        assert expected_rest == observed_rest
        assert expected_rest.startswith("complete task=")
        assert "node=" in expected_rest
        assert expected_time.startswith("t=") and expected_time != observed_time
        assert f"#{divergence.index}" in divergence.describe()
        assert "NONDETERMINISM" in report.message()
        with pytest.raises(DeterminismError):
            report.raise_if_diverged()

    def test_fingerprints_differ_under_injection(self, monkeypatch):
        original = Node.job_duration
        monkeypatch.setattr(
            Node,
            "job_duration",
            lambda self, base: original(self, base)
            + random.random() * 0.01,  # reprolint: disable=RL001 -- injected bug
        )
        runner = dca_runner(small_config())
        first, _ = runner()
        second, _ = runner()
        assert trace_fingerprint(first) != trace_fingerprint(second)


class TestDiffCaptures:
    def test_metric_divergence_when_traces_match(self):
        events, metrics = dca_runner(small_config())()
        altered = dict(metrics)
        altered["reliability"] = -1.0
        divergence = diff_captures((events, metrics), (events, altered))
        assert divergence is not None and divergence.kind == "metric"
        assert "reliability" in divergence.expected

    def test_length_divergence(self):
        events, metrics = dca_runner(small_config())()
        divergence = diff_captures((events, metrics), (events[:-1], metrics))
        assert divergence is not None and divergence.kind == "length"
        assert divergence.index == len(events) - 1

    def test_identical_captures_have_no_divergence(self):
        capture = dca_runner(small_config())()
        assert diff_captures(capture, capture) is None


def grid_config(seed=5):
    return GridConfig(
        strategy=IterativeRedundancy(2),
        tasks=40,
        sites=4,
        slots_per_site=8,
        seed=seed,
    )


class TestGridSubstrate:
    def test_same_seed_replay_is_deterministic(self):
        report = sanitize_grid(grid_config())
        assert report.ok, report.message()
        assert report.events_compared == 40  # one DECIDE record per task

    def test_same_seed_fingerprints_match(self):
        runner = grid_runner(grid_config())
        first_events, first_metrics = runner()
        second_events, second_metrics = runner()
        assert trace_fingerprint(first_events) == trace_fingerprint(second_events)
        assert first_metrics == second_metrics

    def test_different_seeds_diverge(self):
        first, _ = grid_runner(grid_config(seed=5))()
        second, _ = grid_runner(grid_config(seed=6))()
        assert trace_fingerprint(first) != trace_fingerprint(second)

    def test_stateful_strategy_cannot_leak_between_runs(self):
        # The runner deep-copies the config each run, so even a strategy
        # carrying mutable state replays identically.
        config = grid_config()
        report = sanitize_grid(config, runs=3)
        assert report.ok, report.message()


def small_job():
    text = "to be or not to be that is the question " * 25
    return wordcount_job(text, chunk_size=60)


class TestMapReduceSubstrate:
    def test_same_seed_replay_is_deterministic(self):
        report = sanitize_mapreduce(
            small_job(), IterativeRedundancy(2), nodes=40, seed=13
        )
        assert report.ok, report.message()
        assert report.events_compared > 0

    def test_same_seed_fingerprints_match(self):
        runner = mapreduce_runner(
            small_job(), IterativeRedundancy(2), nodes=40, seed=13
        )
        first_events, first_metrics = runner()
        second_events, second_metrics = runner()
        assert trace_fingerprint(first_events) == trace_fingerprint(second_events)
        assert first_metrics == second_metrics

    def test_metrics_carry_output_and_corruption(self):
        _, metrics = mapreduce_runner(
            small_job(), IterativeRedundancy(2), nodes=40, seed=13
        )()
        assert "correct" in metrics
        assert "corrupted_chunks" in metrics
        assert isinstance(metrics["output"], dict) and metrics["output"]

    def test_different_seeds_diverge(self):
        first, _ = mapreduce_runner(
            small_job(), IterativeRedundancy(2), nodes=40, seed=13
        )()
        second, _ = mapreduce_runner(
            small_job(), IterativeRedundancy(2), nodes=40, seed=14
        )()
        assert trace_fingerprint(first) != trace_fingerprint(second)
