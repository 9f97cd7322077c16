# reprolint: disable-file=RL003 -- tests assert exact values of seeded, deterministic computations on purpose
"""Tests for report aggregation and JSON persistence."""

import math

import pytest

from repro.core import IterativeRedundancy
from repro.dca import ENGINES, DcaConfig, run_dca
from repro.dca.report import DcaReport, TaskRecord


def record(task_id=0, correct=True, jobs=3, waves=1, response=1.0):
    return TaskRecord(
        task_id=task_id,
        value=correct,
        correct=correct,
        jobs_used=jobs,
        waves=waves,
        response_time=response,
        turnaround=response + 0.5,
    )


def sample_report():
    return DcaReport.from_records(
        "iterative(d=3)",
        3,
        [
            record(0, correct=True, jobs=3, response=1.0),
            record(1, correct=False, jobs=7, waves=3, response=4.0),
            record(2, correct=True, jobs=5, waves=2, response=2.5),
        ],
        makespan=10.0,
        total_jobs_dispatched=15,
        jobs_timed_out=1,
        seed=42,
    )


class TestAggregation:
    def test_section_41_measures(self):
        report = sample_report()
        assert report.tasks_completed == 3
        assert report.tasks_correct == 2
        assert report.system_reliability == pytest.approx(2 / 3)
        assert report.total_jobs == 15
        assert report.cost_factor == pytest.approx(5.0)
        assert report.max_jobs_per_task == 7
        assert report.mean_response_time == pytest.approx(2.5)
        assert report.max_response_time == 4.0
        assert report.mean_waves == pytest.approx(2.0)

    def test_empty_report_nans(self):
        report = DcaReport.from_records("x", 0, [])
        assert math.isnan(report.system_reliability)
        assert math.isnan(report.cost_factor)
        assert math.isnan(report.mean_response_time)
        assert math.isnan(report.max_response_time)
        assert math.isnan(report.mean_waves)
        assert report.max_jobs_per_task == 0
        assert report.tasks_completed == report.total_jobs == 0

    def test_confidence_interval_needs_two_records(self):
        report = DcaReport.from_records("x", 1, [record()])
        lo, hi = report.reliability_confidence_interval()
        assert math.isnan(lo) and math.isnan(hi)

    def test_confidence_interval_clamped(self):
        report = DcaReport.from_records("x", 5, [record(i, correct=True) for i in range(5)])
        lo, hi = report.reliability_confidence_interval()
        assert 0.0 <= lo <= 1.0
        assert hi == 1.0


class TestPersistence:
    def test_round_trip(self):
        report = sample_report()
        clone = DcaReport.from_json(report.to_json())
        assert clone.as_dict() == report.as_dict()
        assert clone.records == report.records
        assert clone.seed == 42
        assert clone.jobs_timed_out == 1

    @pytest.mark.parametrize("engine", ENGINES)
    def test_engine_report_round_trips(self, engine):
        report = run_dca(
            DcaConfig(strategy=IterativeRedundancy(2), tasks=30, nodes=10, seed=3),
            engine=engine,
        )
        clone = DcaReport.from_json(report.to_json())
        assert clone.as_dict() == report.as_dict()
        assert clone == report

    def test_json_is_stable_text(self):
        report = sample_report()
        assert report.to_json() == report.to_json()

    def test_real_run_round_trips(self):
        report = run_dca(
            DcaConfig(strategy=IterativeRedundancy(2), tasks=30, nodes=10, seed=3)
        )
        clone = DcaReport.from_json(report.to_json())
        assert clone.system_reliability == report.system_reliability
        assert clone.cost_factor == report.cost_factor
