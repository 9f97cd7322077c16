"""Benchmark for the ``repro`` package: four workloads, one command.

Run from the repository root::

    python3 perfbench/run.py --workload fig5a_des --seed 1 --seconds 25 --trace 0

Each run is a closed loop with one client: op i+1 starts when op i
returns, every op using ``workloads.JOBS`` worker processes.  The loop
starts new ops until ``--seconds`` have passed (and always runs at least
one full block, so a repeated seed is checked).  Every op's output goes
through the oracle; an op that raises or fails a check counts as failed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
each op between the plain user call and a decomposition of the same work
with a span around each layer, checks that both return the same result,
prints the per-layer metrics and writes the spans to
``perfbench/out/trace-<workload>-seed<seed>.jsonl``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it holds the host record
and run details.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Fresh processes timed per run for ``setup_s`` (the median is reported).
SETUP_PROBES = 7

#: The traced run always completes this many ops; count metrics sum over them.
COUNT_OPS = 3

END_TO_END = {
    "setup_s": "s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "tasks_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "experiments.specs_s": "s",
    "experiments.reduce_s": "s",
    "parallel.engine.pool_floor_s": "s",
    "parallel.engine.efficiency": "ratio",
    "parallel.engine.wait_s": "s",
    "parallel.engine.payload_bytes": "bytes",
    "dca.des.busy_s": "s",
    "dca.des.tasks_per_s": "1/s",
    "dca.des.jobs": "count",
    "obs.recorder_ratio": "ratio",
    "obs.merge_s": "s",
    "obs.capture_s": "s",
    "obs.capture_bytes": "bytes",
    "obs.payload_bytes": "bytes",
    "parallel.shards.split_s": "s",
    "parallel.shards.run_s": "s",
    "parallel.shards.merge_s": "s",
    "parallel.shards.wrapper_s": "s",
    "parallel.shards.efficiency": "ratio",
    "parallel.shards.wait_s": "s",
    "parallel.shards.payload_bytes": "bytes",
    "dca.columnar.busy_s": "s",
    "dca.columnar.tasks_per_s": "1/s",
    "dca.columnar.jobs": "count",
    "dca.columnar.waves": "count",
    "dca.columnar.useful_job_ratio": "ratio",
    "dca.columnar.nodes_departed": "count",
    "dca.columnar.spot_checks": "count",
    "dca.columnar.tasks_cut": "count",
    "trace.op_s_p50": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}

#: Exact counts: summed over the first ``COUNT_OPS`` traced ops, so a
#: seed always gives the same value.  Every other layer metric is a
#: median over the traced ops.
COUNTS = {name for name, unit in PER_LAYER.items() if unit == "count"}


def locate_program() -> None:
    """Put the checkout's ``src`` first on the path and import ``repro`` from it.

    Raises:
        SystemExit: (exit code 1) if the checkout holds no ``repro`` sources
            or another ``repro`` shadows them.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"error: no repro sources at {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        sys.exit(f"error: imported repro from {repro.__file__}, not from {src}")


def _git_sha() -> Optional[str]:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else None
    return ref


def cpu_ticks() -> Optional[List[int]]:
    """(steal, total) CPU ticks from ``/proc/stat``, or None off Linux."""
    try:
        with open("/proc/stat") as handle:
            fields = [int(x) for x in handle.readline().split()[1:]]
    except OSError:
        return None
    return [fields[7] if len(fields) > 7 else 0, sum(fields[:8])]


def calibrate() -> float:
    """Best of 3 timings of a fixed pure-Python loop, in seconds.

    Shared hosts change speed between runs; comparing this number before
    and after a run, and across runs, tells such a shift apart from a
    change in the program.
    """
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        sum(i * i for i in range(300_000))
        best = min(best, time.perf_counter() - start)
    return best


def host_record(jobs: int) -> Dict[str, Any]:
    import numpy

    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "cpu_count": os.cpu_count(),
        "usable_cpus": usable,
        "jobs": jobs,
        "cpus_below_jobs": usable < jobs,
        "loadavg_before": list(os.getloadavg()),
        "cpu_ticks_before": cpu_ticks(),
        "calibration_s_before": calibrate(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(),
    }


def measure_setup(workload: str, seed: int) -> float:
    """Median wall time from process start to ready-for-the-first-op."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--probe-setup",
             "--workload", workload, "--seed", str(seed)],
            stdout=subprocess.PIPE, text=True,
        ) as proc:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - start)
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe failed (exit {proc.returncode}): {line!r}")
    return statistics.median(samples)


def tail(values: List[float]):
    """Highest percentile with at least 10 values beyond it: (value, percentile)."""
    ordered = sorted(values)
    index = max(0, len(ordered) - 11)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


class Loop:
    """One run's closed loop: ops, their wall times and their failures."""

    def __init__(self, workload, seed: int) -> None:
        import workloads

        self.workload = workload
        self.ops = workloads.op_sequence(seed)
        self.digests: Dict[Any, str] = {}
        # (op index, "plain" | "traced") -> problems; each key is one failed call.
        self.failed: Dict[Any, List[str]] = {}
        self.attempted = 0
        self.first = None

    def call(self, op, fn, kind: str = "plain"):
        """Run ``fn(op)`` timed; check its output.  Returns (wall, outcome)."""
        self.attempted += 1
        key = (op.index, kind)
        start = time.perf_counter()
        try:
            outcome = fn(op)
        except Exception as exc:  # any op failure is a measured outcome
            self.failed[key] = [f"{type(exc).__name__}: {exc}"]
            return time.perf_counter() - start, None
        wall = time.perf_counter() - start
        problems = self.workload.check(op, outcome)
        if self.digests.setdefault(op.seed, outcome.digest) != outcome.digest:
            problems.append(f"op {op.index} repeats op {op.repeat_of} with a different result")
        for path in outcome.files:
            os.remove(path)
        if problems:
            self.failed.setdefault(key, []).extend(problems)
        if self.first is None:
            self.first = (key, op, outcome)
        return wall, outcome

    def finish(self) -> None:
        """Post-run checks, outside the timed ops."""
        if self.first is None:
            return
        key, op, outcome = self.first
        try:
            problems = self.workload.verify_after(op, outcome)
        except Exception as exc:  # a crashed check is a failed check
            problems = [f"verify: {type(exc).__name__}: {exc}"]
        if problems:
            self.failed.setdefault(key, []).extend(problems)


def run_plain(workload, seed: int, seconds: float):
    import workloads

    loop = Loop(workload, seed)
    walls, rates = [], []
    deadline = time.perf_counter() + seconds
    for op in loop.ops:
        if op.index >= workloads.REPEAT_EVERY and time.perf_counter() >= deadline:
            break
        wall, outcome = loop.call(op, workload.run)
        walls.append(wall)
        rates.append(outcome.tasks / wall if outcome else 0.0)
    loop.finish()
    p_tail, pct = tail(walls)
    metrics = {
        "op_s_p50": statistics.median(walls),
        "op_s_tail": p_tail,
        "tasks_per_s": statistics.median(rates),
    }
    return loop, metrics, {"ops": len(walls), "tail_percentile": pct, "op_s": [round(w, 4) for w in walls]}


def run_traced(workload, seed: int, seconds: float, trace_path: Path, host: Dict[str, Any]):
    """Alternate plain and traced ops; per-layer metrics from the traced ones."""
    import spans
    import workloads

    tracer = spans.Tracer()
    loop = Loop(workload, seed)

    def traced_call(op):
        with tracer.span("op", op.index):
            return workload.run_traced(op, tracer)

    plain_walls, traced_walls, coverage = [], [], []
    layers: List[Dict[str, float]] = []
    deadline = time.perf_counter() + seconds
    try:
        for op in loop.ops:
            if op.index >= max(COUNT_OPS, workloads.REPEAT_EVERY) and time.perf_counter() >= deadline:
                break
            order = ("plain", "traced") if op.index % 2 else ("traced", "plain")
            results = {}
            for kind in order:
                if kind == "plain":
                    wall, results[kind] = loop.call(op, workload.run)
                    plain_walls.append(wall)
                    continue
                wall, results[kind] = loop.call(op, traced_call, kind)
                traced_walls.append(wall)
                if results[kind] is None:
                    continue
                op_span = next(s for s in reversed(tracer.spans) if s["name"] == "op")
                kids = [(s["start"], s["end"]) for s in tracer.children(op_span)]
                start, end = op_span["start"], op_span["end"]
                coverage.append(spans.covered(kids, start, end) / (end - start))
                layers.append(workload.layer_numbers(op, tracer))
            plain, traced = results["plain"], results["traced"]
            if plain and traced and plain.digest != traced.digest:
                loop.failed.setdefault((op.index, "traced"), []).append(
                    "traced decomposition differs from the user call"
                )
        loop.finish()
    finally:
        tracer.close()
    metrics = {}
    for name in PER_LAYER:
        values = [layer[name] for layer in layers if name in layer]
        if name in COUNTS:
            metrics[name] = sum(values[:COUNT_OPS])
        else:
            metrics[name] = statistics.median(values) if values else 0.0
    metrics["trace.op_s_p50"] = statistics.median(traced_walls)
    metrics["trace.overhead_s"] = metrics["trace.op_s_p50"] - statistics.median(plain_walls)
    metrics["trace.coverage"] = min(coverage) if coverage else 0.0
    tracer.write(str(trace_path), {"host": host, "workload": workload.name, "seed": seed})
    return loop, metrics, {"ops": len(traced_walls), "trace_file": str(trace_path.relative_to(ROOT))}


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def parse_args(argv):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None, size: str = "full") -> int:
    locate_program()
    sys.path.insert(0, str(HERE))
    args = parse_args(argv)
    import workloads

    if args.probe_setup:
        with tempfile.TemporaryDirectory(dir=_out_dir()) as scratch:
            workload = workloads.make(args.workload, size, scratch)
            next(workloads.op_sequence(args.seed))
        print("ready", flush=True)
        return 0

    host = host_record(workloads.JOBS)
    if host["cpus_below_jobs"]:
        print(f"warning: {host['usable_cpus']} usable CPUs < jobs={workloads.JOBS}; "
              "parallel timings are not comparable", file=sys.stderr)
    setup_s = measure_setup(args.workload, args.seed)
    scratch = tempfile.mkdtemp(dir=_out_dir())
    try:
        workload = workloads.make(args.workload, size, scratch)
        if args.trace:
            trace_path = _out_dir() / f"trace-{args.workload}-seed{args.seed}.jsonl"
            loop, values, details = run_traced(workload, args.seed, args.seconds, trace_path, host)
            units = PER_LAYER
        else:
            loop, values, details = run_plain(workload, args.seed, args.seconds)
            values["setup_s"] = setup_s
            values["peak_rss_mb"] = peak_rss_mb()
            units = END_TO_END
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    host["loadavg_after"] = list(os.getloadavg())
    host["calibration_s_after"] = calibrate()
    before, after = host.pop("cpu_ticks_before"), cpu_ticks()
    if before and after and after[1] > before[1]:
        # Time the hypervisor ran someone else on our CPUs, as a share.
        host["cpu_steal_frac"] = (after[0] - before[0]) / (after[1] - before[1])
    failed = len(loop.failed)
    problems = [f"op {index} ({kind}): {p}" for (index, kind), ps in sorted(loop.failed.items()) for p in ps]
    for line in problems[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    info = dict(details, workload=args.workload, seed=args.seed, setup_s=setup_s,
                ops_failed_frac=failed / loop.attempted, problems=problems[:5], host=host)
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": loop.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def _out_dir() -> Path:
    OUT.mkdir(exist_ok=True)
    return OUT


if __name__ == "__main__":
    sys.exit(main())
