"""Self-tests of the benchmark: contract, oracle, planted defects.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.locate_program()

import oracle  # noqa: E402
import workloads  # noqa: E402
from repro.parallel import ReplicateError  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(capsys, workload: str, trace: int = 0, seed: int = 3):
    """One reduced-size run; returns (result, info) from its output."""
    assert run.main(
        ["--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        size="smoke",
    ) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["info"]


@pytest.fixture(autouse=True)
def one_setup_probe(monkeypatch):
    monkeypatch.setattr(run, "SETUP_PROBES", 1)


def test_benchmark_json_names_match_the_harness():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])


@pytest.mark.parametrize(
    "technique,param", [("TR", 3), ("TR", 19), ("PR", 3), ("PR", 11), ("IR", 1), ("IR", 4)]
)
def test_wave_program_agrees_with_the_closed_forms(technique, param):
    exp = oracle.expectation(technique, param, 0.7)
    assert exp.jobs_variance >= 0.0
    assert (exp.jobs_variance == 0.0) == (technique == "TR" or (technique, param) == ("IR", 1))


def test_op_sequence_repeats_each_block_head():
    ops = [op for op, _ in zip(workloads.op_sequence(5), range(2 * workloads.REPEAT_EVERY))]
    repeats = [op for op in ops if op.repeat_of is not None]
    assert [(op.repeat_of, op.seed) for op in repeats] == [
        (head.index, head.seed) for head in ops[:: workloads.REPEAT_EVERY]
    ]
    fresh = [op for op in ops if op.repeat_of is None]
    assert len({op.seed for op in fresh}) == len(fresh)


def test_tail_keeps_ten_values_beyond():
    values = [float(i) for i in range(40)]
    assert run.tail(values) == (29.0, 75.0)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_clean_reduced_run_prints_every_metric(capsys, workload, trace):
    result, info = bench(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and info["ops_failed_frac"] == 0
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    if trace:
        rows = [json.loads(line) for line in (ROOT / info["trace_file"]).read_text().splitlines()]
        assert rows[0]["workload"] == workload and "cpu_count" in rows[0]["host"]
        assert all(0.0 <= row["self_s"] <= row["duration_s"] + 1e-9 for row in rows[1:])
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_planted_reliability_error_fails_ops(capsys, monkeypatch):
    compute = workloads.figure5a.compute

    def off_by_ten_sigma(*args, **kwargs):
        result = compute(*args, **kwargs)
        point = result.series[0].points[0]
        n = kwargs["tasks"] * kwargs["replications"]
        sigma = math.sqrt(point.reliability * (1 - point.reliability) / n)
        result.series[0].points[0] = dataclasses.replace(point, reliability=point.reliability - 10 * sigma)
        return result

    monkeypatch.setattr(workloads.figure5a, "compute", off_by_ten_sigma)
    result, info = bench(capsys, "fig5a_des")
    assert result["failed"] == result["attempted"] and info["ops_failed_frac"] == 1.0
    assert "reliability" in info["problems"][0]


def test_planted_repeat_mismatch_fails_ops(capsys, monkeypatch):
    merge = workloads.merge_shard_reports
    calls = []

    def drifting(envelopes):
        merged = merge(envelopes)
        calls.append(1)
        merged["makespan"] += 1e-9 * len(calls)
        return merged

    monkeypatch.setattr(workloads, "merge_shard_reports", drifting)
    result, info = bench(capsys, "paper_scale")
    assert result["failed"] > 0 and info["ops_failed_frac"] > 0
    assert any("different result" in problem for problem in info["problems"])


def test_injected_replicate_error_fails_ops(capsys, monkeypatch):
    def crash(specs, *, jobs=1, chunk_size=None):
        raise ReplicateError("replicate #0 crashed in worker: planted", position=0)

    monkeypatch.setattr(workloads.figure5a, "run_dca_replicates", crash)
    result, info = bench(capsys, "fig5a_des")
    assert result["failed"] == result["attempted"] and info["ops_failed_frac"] == 1.0
    assert "ReplicateError" in info["problems"][0]


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "fig5a_des", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
