# reprolint: disable-file=RL003 -- tests assert exact values of seeded, deterministic computations on purpose
"""Tests for the benchmark harness: timing primitives, report schema,
suite payloads, and the CLI's divergence gate."""

import json
from pathlib import Path

import pytest

from repro.bench import SCHEMA_VERSION, SUITES, run_suite, time_callable, write_report
from repro.bench.cli import main as bench_main
from repro.bench.report import report_path
from repro.bench.suites import bench_dca_run

#: The committed baselines ``repro-bench --compare`` judges against.
BASELINES = Path(__file__).resolve().parents[2] / "benchmarks" / "baselines"


def committed_checksum(name, *, quick):
    return json.loads(report_path(name, BASELINES, quick=quick).read_text())["checksum"]


class TestTiming:
    def test_time_callable_counts_and_returns_value(self):
        calls = []

        def body():
            calls.append(1)
            return "value"

        stats, value = time_callable(body, repeats=3, warmup=2)
        assert value == "value"
        assert len(calls) == 5
        assert stats.repeats == 3
        assert 0 <= stats.best <= stats.mean <= stats.total

    def test_rejects_bad_repeats(self):
        with pytest.raises(ValueError):
            time_callable(lambda: None, repeats=0)


class TestReport:
    def test_write_report_schema(self, tmp_path):
        path = write_report(
            "unit", {"seed": 0, "checksum": "abc"}, output_dir=tmp_path
        )
        assert path == report_path("unit", tmp_path)
        assert path.name == "BENCH_unit.json"
        document = json.loads(path.read_text())
        assert document["schema_version"] == SCHEMA_VERSION
        assert document["suite"] == "unit"
        assert document["seed"] == 0
        assert document["checksum"] == "abc"
        machine = document["machine"]
        assert machine["python"] and machine["cpu_count"] >= 1


class TestSuites:
    def test_decide_loops_payload_deterministic(self):
        first = run_suite("decide_loops", seed=1, quick=True, repeats=1)
        second = run_suite("decide_loops", seed=1, quick=True, repeats=1)
        assert first["checksum"] == second["checksum"]
        assert set(first["results"]) == {
            "iterative_d3",
            "progressive_k7",
            "traditional_k7",
        }

    def test_unknown_suite(self):
        with pytest.raises(KeyError):
            run_suite("warp_drive")

    def test_scale_sharded_equals_unsharded_and_is_stable(self):
        payload = run_suite("scale", seed=1, quick=True, repeats=1)
        assert payload["diverged"] is False
        assert payload["serial_checksum"] == payload["parallel_checksum"]
        assert payload["checksum"] == payload["serial_checksum"]
        merged = payload["results"]["merged"]
        assert merged["tasks"] == payload["params"]["tasks"]
        assert merged["shards"] == payload["params"]["shards"]
        assert 0 < merged["reliability"] <= 1
        assert payload["results"]["tasks_per_second"] > 0
        # Quick runs gate on checksum identity only: sub-50ms timings are
        # noise, so they ride along ungated instead of in "timings".
        assert payload["timings"] == {}
        assert payload["results"]["timings_ungated"]
        again = run_suite("scale", seed=1, quick=True, repeats=1)
        assert payload["checksum"] == again["checksum"]

    @pytest.mark.parametrize("name", ["scale_churn", "scale_spot", "scale_deadline"])
    def test_regime_scale_suites_are_stable_and_converge(self, name):
        payload = run_suite(name, seed=1, quick=True, repeats=1)
        assert payload["diverged"] is False
        assert payload["serial_checksum"] == payload["parallel_checksum"]
        # Quick runs gate checksum identity only; timings ride ungated.
        assert payload["timings"] == {}
        assert "timings_ungated" in payload["results"]
        assert payload["below_des_floor"] is False
        assert payload["results"]["speedup_vs_des"] > 0
        again = run_suite(name, seed=1, quick=True, repeats=1)
        assert again["checksum"] == payload["checksum"]

    @pytest.mark.parametrize(
        "name", ["scale", "scale_churn", "scale_spot", "scale_deadline"]
    )
    def test_quick_scale_checksum_matches_committed_baseline(self, name):
        payload = run_suite(name, seed=0, quick=True, repeats=1)
        assert payload["checksum"] == committed_checksum(name, quick=True)

    def test_dca_run_checksum_matches_committed_baseline(self):
        payload = bench_dca_run(repeats=1)
        assert payload["checksum"] == committed_checksum("dca_run", quick=False)

    def test_regime_scale_suites_carry_their_regime(self):
        churn = run_suite("scale_churn", seed=1, quick=True, repeats=1)
        merged = churn["results"]["merged"]
        assert merged["nodes_joined"] > 0
        assert merged["nodes_departed"] > 0
        spot = run_suite("scale_spot", seed=1, quick=True, repeats=1)
        assert spot["results"]["merged"]["spot_checks"] > 0
        deadline = run_suite("scale_deadline", seed=1, quick=True, repeats=1)
        merged = deadline["results"]["merged"]
        assert merged["tasks"] <= merged["tasks_submitted"]
        assert merged["makespan"] <= 6.0

    def test_obs_overhead_gates_a_ratio_and_agrees_across_variants(self):
        payload = run_suite("obs_overhead", seed=1, quick=True, repeats=1)
        ratio = payload["timings"]["null_recorder_ratio"]["best_seconds"]
        assert ratio > 0
        results = payload["results"]
        assert set(results) >= {
            "bare",
            "null_recorder",
            "telemetry_recorder",
            "null_recorder_overhead",
            "telemetry_recorder_overhead",
        }
        # Checksum is over the bare run's metrics, which the suite asserts
        # equal across all three variants; same seed -> same checksum.
        again = run_suite("obs_overhead", seed=1, quick=True, repeats=1)
        assert payload["checksum"] == again["checksum"]


class TestCli:
    def test_quick_run_writes_reports(self, tmp_path, capsys):
        code = bench_main(
            ["decide_loops", "sim_engine", "--quick", "--output-dir", str(tmp_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        for name in ("decide_loops", "sim_engine"):
            assert (tmp_path / f"BENCH_{name}.quick.json").exists()
            assert name in out

    def test_figure_sweep_serial_parallel_agree(self, tmp_path):
        code = bench_main(
            ["figure_sweep", "--quick", "--jobs", "2", "--output-dir", str(tmp_path)]
        )
        assert code == 0
        document = json.loads(
            (tmp_path / "BENCH_figure_sweep.quick.json").read_text()
        )
        assert document["diverged"] is False
        assert document["serial_checksum"] == document["parallel_checksum"]
        assert document["results"]["speedup"] > 0

    def test_divergence_is_a_failure(self, tmp_path, capsys, monkeypatch):
        def fake_suite(**kwargs):
            return {
                "seed": 0,
                "checksum": "aa",
                "serial_checksum": "aa",
                "parallel_checksum": "bb",
                "diverged": True,
                "results": {},
            }

        monkeypatch.setitem(SUITES, "fake_sweep", fake_suite)
        code = bench_main(["fake_sweep", "--output-dir", str(tmp_path)])
        assert code == 1
        assert "diverged" in capsys.readouterr().err

    def test_below_des_floor_is_a_failure(self, tmp_path, capsys, monkeypatch):
        def fake_suite(**kwargs):
            return {
                "seed": 0,
                "checksum": "aa",
                "diverged": False,
                "below_des_floor": True,
                "results": {"speedup_vs_des": 12.0},
            }

        monkeypatch.setitem(SUITES, "fake_scale", fake_suite)
        code = bench_main(["fake_scale", "--output-dir", str(tmp_path)])
        assert code == 1
        assert "below the" in capsys.readouterr().err

    def test_unknown_suite_exits_two(self, capsys):
        assert bench_main(["warp_drive"]) == 2
        assert "unknown suite" in capsys.readouterr().err

    def test_list(self, capsys):
        assert bench_main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in SUITES:
            assert name in out

    def test_telemetry_flag_writes_a_capture(self, tmp_path, capsys):
        from repro.obs import Capture

        target = tmp_path / "cap.json"
        code = bench_main(
            [
                "decide_loops",
                "--quick",
                "--output-dir",
                str(tmp_path),
                "--telemetry",
                str(target),
            ]
        )
        assert code == 0
        assert "telemetry capture" in capsys.readouterr().out
        capture = Capture.load(target)
        assert capture.meta["label"] == "bench:dca_run"
        assert capture.metrics["dca.accept"]["series"][0]["value"] == 300
