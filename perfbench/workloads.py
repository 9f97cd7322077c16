"""The benchmark's four workloads, driven through ``repro``'s public API.

Each workload turns a seed into a sequence of ops.  An op has two forms
that must return the same result:

* ``run(op)`` -- the call a user makes, timed with tracing off;
* ``run_traced(op, tracer)`` -- the same work split into one call per
  layer, each inside a span.  ``layer_numbers(op, tracer)``, called after
  the op's span closes, turns its spans into per-layer metrics and runs
  the out-of-op probes.

``check(op, outcome)`` is the output oracle (see ``oracle.py``).  Ops
come in blocks of ``REPEAT_EVERY``: the last op of a block repeats the
block's first op exactly, so every run checks determinism.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pickle
import statistics
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

import oracle
import repro.parallel.dca as parallel_dca
import repro.parallel.shards as parallel_shards
from repro.core import IterativeRedundancy, ProgressiveRedundancy, TraditionalRedundancy
from repro.core.distributions import BetaReliability
from repro.experiments import figure5a
from repro.experiments.common import measurement_from_envelopes
from repro.obs.capture import Capture
from repro.obs.context import TelemetrySink, clear_sink, install_sink
from repro.obs.host import capture_meta
from repro.parallel import (
    dca_replicate_specs,
    merge_shard_reports,
    parallel_map,
    run_dca_replicates,
    run_dca_shards,
    shard_specs,
)

#: Worker processes per op (the sandbox has two cores).
JOBS = 2

#: Ops per block; the block's last op repeats its first.
REPEAT_EVERY = 6

#: Paper's node reliability for Figure 5(a) and the scale runs (§4.1).
R = 0.7


@dataclass(frozen=True)
class Op:
    index: int
    seed: int
    repeat_of: Optional[int]


@dataclass
class Outcome:
    """What an op returned: a canonical digest plus what the oracle needs."""

    digest: str
    tasks: int
    data: Any
    files: List[str] = field(default_factory=list)


def op_sequence(seed: int) -> Iterator[Op]:
    """Endless op list with derived seeds; each block ends in a repeat."""
    index = 0
    while True:
        block, slot = divmod(index, REPEAT_EVERY)
        if slot == REPEAT_EVERY - 1:
            yield Op(index, seed * 100_000 + block * REPEAT_EVERY, index - slot)
        else:
            yield Op(index, seed * 100_000 + index, None)
        index += 1


def _digest(value: Any) -> str:
    return json.dumps(value, sort_keys=True, default=repr)


def _des_summary(args, kwargs, report) -> Dict[str, Any]:
    config = args[0]
    return {"seed": config.seed, "tasks": report.tasks_completed, "jobs": report.total_jobs}


def _columnar_summary(args, kwargs, report) -> Dict[str, Any]:
    return {"tasks": report.tasks_completed, "jobs": report.total_jobs}


def _pickled(value: Any) -> int:
    return len(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))


def _probe_pool_floor(tracer, op: Op, items: int) -> float:
    """A no-op ``parallel_map`` over ``items`` items: the pool's fixed cost."""
    with tracer.span("probe.pool_floor", op.index) as span:
        parallel_map(abs, range(items), jobs=JOBS)
    return _dur(span)


def _fan_out_numbers(wall: float, envelopes) -> Dict[str, float]:
    busy = sum(envelope.duration for envelope in envelopes)
    return {"busy": busy, "efficiency": busy / (wall * JOBS), "wait_s": wall - busy / JOBS}


class Fig5aWorkload:
    """Figure 5(a) sweep on the DES, bare or under a telemetry sink."""

    def __init__(self, name: str, telemetry: bool, size: str, out_dir: str):
        self.name = name
        self.telemetry = telemetry
        self.out_dir = out_dir
        self.ks = (3, 7, 11)
        self.ds = (1, 2, 3, 4)
        self.tasks, self.nodes = {"full": (500, 100), "smoke": (60, 20)}[size]
        self.replications = 2
        # Input generation: the oracle's expected value for every point.
        self.expected = [
            (series, label, oracle.expectation(series, param, R))
            for series, prefix, params in (("TR", "k", self.ks), ("PR", "k", self.ks), ("IR", "d", self.ds))
            for param in params
            for label in [f"{prefix}={param}"]
        ]

    # -- the user's call -------------------------------------------------
    def _compute(self, seed: int):
        return figure5a.compute(
            R, self.ks, self.ds, tasks=self.tasks, nodes=self.nodes,
            replications=self.replications, seed=seed, jobs=JOBS,
        )

    def _save_capture(self, sink: TelemetrySink, op: Op) -> str:
        meta = capture_meta("experiments:figure5a", scale="perfbench", jobs=JOBS)
        return str(sink.capture(meta).save(os.path.join(self.out_dir, f"capture-{op.index}.json")))

    def run(self, op: Op) -> Outcome:
        if not self.telemetry:
            return self._outcome(self._compute(op.seed))
        sink = install_sink(TelemetrySink())
        try:
            result = self._compute(op.seed)
        finally:
            clear_sink()
        path = self._save_capture(sink, op)
        return self._outcome(result, files=[path])

    def _outcome(self, result, files=()) -> Outcome:
        points = [
            [series.name, p.label, p.cost, p.reliability, p.cost_err, p.reliability_err, p.extra["max_jobs"]]
            for series in result.series
            for p in series.points
        ]
        tasks = self.tasks * self.replications * len(points)
        return Outcome(_digest(points), tasks, points, list(files))

    # -- the same op, one span per layer ---------------------------------
    def run_traced(self, op: Op, tracer) -> Outcome:
        sink = install_sink(TelemetrySink()) if self.telemetry else None
        try:
            with tracer.span("experiments.specs", op.index):
                specs = []
                bounds = []
                for series, label, exp in self.expected:
                    factory = {
                        "TR": lambda k=exp.param: TraditionalRedundancy(k),
                        "PR": lambda k=exp.param: ProgressiveRedundancy(k),
                        "IR": lambda d=exp.param: IterativeRedundancy(d),
                    }[series]
                    start = len(specs)
                    specs.extend(dca_replicate_specs(
                        factory, tasks=self.tasks, nodes=self.nodes, reliability=R,
                        replications=self.replications, seed=op.seed,
                    ))
                    bounds.append((series, label, start, len(specs)))
            with tracer.span("parallel.run_dca_replicates", op.index) as run_span:
                with tracer.probe(parallel_dca, "run_dca", "dca.des.run_dca", op.index, _des_summary), \
                        tracer.probe(parallel_dca, "merge_telemetry", "obs.merge_telemetry", op.index):
                    envelopes = run_dca_replicates(specs, jobs=JOBS)
        finally:
            if sink is not None:
                clear_sink()
        with tracer.span("experiments.reduce", op.index):
            points = []
            for series, label, start, stop in bounds:
                m = measurement_from_envelopes(envelopes[start:stop])
                points.append([series, label, m.mean_cost, m.mean_reliability,
                               m.cost_err, m.reliability_err, m.max_jobs])
        files = []
        if sink is not None:
            with tracer.span("obs.capture", op.index) as capture_span:
                files.append(self._save_capture(sink, op))
        capture = (_dur(capture_span), os.path.getsize(files[0])) if files else None
        self._traced = (run_span, envelopes, specs, capture)
        return Outcome(_digest(points), self.tasks * self.replications * len(points), points, files)

    def layer_numbers(self, op: Op, tracer) -> Dict[str, float]:
        """Per-layer numbers of the last traced op, plus out-of-op probes."""
        run_span, envelopes, specs, capture = self._traced
        fan = _fan_out_numbers(_dur(run_span), envelopes)
        des = tracer.children(run_span, "dca.des.run_dca")
        des_busy = sum(_dur(s) for s in des)
        layer = {
            "experiments.specs_s": _span_s(tracer, op, "experiments.specs"),
            "experiments.reduce_s": _span_s(tracer, op, "experiments.reduce"),
            "parallel.engine.efficiency": fan["efficiency"],
            "parallel.engine.wait_s": fan["wait_s"],
            "parallel.engine.payload_bytes": _pickled(envelopes),
            "dca.des.busy_s": des_busy,
            "dca.des.tasks_per_s": sum(s["attrs"]["tasks"] for s in des) / des_busy,
            "dca.des.jobs": sum(s["attrs"]["jobs"] for s in des),
            "parallel.engine.pool_floor_s": _probe_pool_floor(tracer, op, len(specs)),
        }
        if self.telemetry:
            layer.update({
                "obs.merge_s": sum(_dur(s) for s in tracer.children(run_span, "obs.merge_telemetry")),
                "obs.capture_s": capture[0],
                "obs.capture_bytes": capture[1],
                "obs.payload_bytes": sum(_pickled(e.telemetry) for e in envelopes),
                "obs.recorder_ratio": self._recorder_ratio(tracer, op, specs, des),
            })
        return layer

    def _recorder_ratio(self, tracer, op: Op, specs, traced_des) -> float:
        """Median per replicate of run_dca time with a recorder over time bare."""
        bare_specs = [dataclasses.replace(spec, telemetry=False) for spec in specs]
        with tracer.span("probe.bare_des", op.index) as bare:
            with tracer.probe(parallel_dca, "run_dca", "dca.des.run_dca", op.index, _des_summary):
                run_dca_replicates(bare_specs, jobs=JOBS)
        bare_s = {s["attrs"]["seed"]: _dur(s) for s in tracer.children(bare, "dca.des.run_dca")}
        return statistics.median(_dur(s) / bare_s[s["attrs"]["seed"]] for s in traced_des)

    # -- the oracle --------------------------------------------------------
    def check(self, op: Op, outcome: Outcome) -> List[str]:
        problems = []
        points = outcome.data
        if [p[:2] for p in points] != [[s, label] for s, label, _ in self.expected]:
            return [f"unexpected figure points {[p[:2] for p in points]}"]
        n = self.tasks * self.replications
        limit = oracle.z_limit(2 * len(points))
        for (series, label, exp), point in zip(self.expected, points):
            name = f"{series} {label}"
            problems += oracle.reliability_problems(name, point[3], exp, n, limit)
            problems += oracle.cost_problems(name, point[2], exp, n, limit)
        for path in outcome.files:
            loaded = Capture.load(path)
            if len(loaded.runs) != 1 or not loaded.metrics:
                problems.append(f"capture {path} reloads with {len(loaded.runs)} runs")
        return problems

    def verify_after(self, first: Op, outcome: Outcome) -> List[str]:
        """A telemetry figure must equal the bare figure for the same seed."""
        if not self.telemetry:
            return []
        bare = self._outcome(self._compute(first.seed))
        if bare.digest != outcome.digest:
            return [f"op {first.index}: figure under telemetry differs from the bare figure"]
        return []


class ShardWorkload:
    """Columnar computations split by ``shard_specs``, run and merged.

    One op runs each technique in ``techniques`` once, in order, as its
    own sharded computation of ``tasks`` tasks on ``nodes`` nodes.
    """

    SHARDS = 8

    def __init__(self, name: str, techniques, tasks: int, nodes: int, reliability,
                 overrides: Dict[str, Any]):
        self.name = name
        self.techniques = techniques
        self.tasks = tasks
        self.nodes = nodes
        self.reliability = reliability
        self.overrides = overrides
        self.horizon = overrides.get("max_time") is not None
        self.expected = [oracle.expectation(t, p, R) for t, p, _ in techniques]

    def _specs(self, factory, op: Op):
        return shard_specs(factory, tasks=self.tasks, nodes=self.nodes, reliability=self.reliability,
                           shards=self.SHARDS, seed=op.seed, **self.overrides)

    def run(self, op: Op) -> Outcome:
        merged = [
            merge_shard_reports(run_dca_shards(self._specs(factory, op), jobs=JOBS))
            for _, _, factory in self.techniques
        ]
        return Outcome(_digest(merged), sum(m["tasks"] for m in merged), merged)

    def run_traced(self, op: Op, tracer) -> Outcome:
        merged, runs = [], []
        for _, _, factory in self.techniques:
            with tracer.span("parallel.shards.split", op.index):
                specs = self._specs(factory, op)
            with tracer.span("parallel.shards.run", op.index) as run_span:
                with tracer.probe(parallel_shards, "run_columnar_dca", "dca.columnar.run", op.index,
                                  _columnar_summary):
                    envelopes = run_dca_shards(specs, jobs=JOBS)
            with tracer.span("parallel.shards.merge", op.index):
                merged.append(merge_shard_reports(envelopes))
            runs.append((run_span, envelopes))
        self._traced = (runs, merged)
        return Outcome(_digest(merged), sum(m["tasks"] for m in merged), merged)

    def layer_numbers(self, op: Op, tracer) -> Dict[str, float]:
        """Per-layer numbers of the last traced op, plus out-of-op probes."""
        runs, merged = self._traced
        run_s = sum(_dur(run_span) for run_span, _ in runs)
        envelopes = [e for _, envs in runs for e in envs]
        fan = _fan_out_numbers(run_s, envelopes)
        columnar = [s for run_span, _ in runs for s in tracer.children(run_span, "dca.columnar.run")]
        busy = sum(_dur(s) for s in columnar)
        jobs = sum(m["total_jobs"] for m in merged)
        spot = sum(m.get("spot_checks", 0) for m in merged)
        tasks = sum(m["tasks"] for m in merged)
        return {
            "parallel.shards.split_s": _span_s(tracer, op, "parallel.shards.split"),
            "parallel.shards.run_s": run_s,
            "parallel.shards.merge_s": _span_s(tracer, op, "parallel.shards.merge"),
            "parallel.shards.wrapper_s": fan["busy"] - busy,
            "parallel.shards.efficiency": fan["efficiency"],
            "parallel.shards.wait_s": fan["wait_s"],
            "parallel.shards.payload_bytes": _pickled(envelopes),
            "dca.columnar.busy_s": busy,
            "dca.columnar.tasks_per_s": sum(s["attrs"]["tasks"] for s in columnar) / busy,
            "dca.columnar.jobs": jobs,
            "dca.columnar.waves": sum(round(m["mean_waves"] * m["tasks"]) for m in merged),
            "dca.columnar.useful_job_ratio": (jobs - sum(m["jobs_timed_out"] for m in merged)) / (jobs + spot),
            "dca.columnar.nodes_departed": sum(m.get("nodes_departed", 0) for m in merged),
            "dca.columnar.spot_checks": spot,
            "dca.columnar.tasks_cut": sum(m.get("tasks_submitted", m["tasks"]) for m in merged) - tasks,
            "parallel.engine.pool_floor_s": _probe_pool_floor(tracer, op, self.SHARDS),
        }

    def check(self, op: Op, outcome: Outcome) -> List[str]:
        problems = []
        for (name, param, _), exp, merged in zip(self.techniques, self.expected, outcome.data):
            problems += self._check_one(f"{name} {param}", exp, merged)
        return problems

    def _check_one(self, name: str, exp, merged: Dict[str, Any]) -> List[str]:
        n = merged["tasks"]
        limit = oracle.z_limit(len(self.techniques) * (1 if self.horizon else 2))
        extra_var = 0.0
        if isinstance(self.reliability, BetaReliability):
            # The realised pool mean is itself an estimate of r: N draws,
            # plus the fresh draws churn brings in.
            a, b = self.reliability.alpha, self.reliability.beta
            turnover = 1 + merged.get("nodes_joined", 0) / self.nodes
            pool_var = a * b / ((a + b) ** 2 * (a + b + 1)) * turnover / self.nodes
            extra_var = oracle.reliability_slope(exp, R) ** 2 * pool_var
        problems = oracle.reliability_problems(name, merged["reliability"], exp, n, limit, extra_var)
        if self.horizon:
            # A horizon biases cost (slow tasks are cut), so only the
            # regimes' own effects are checked.
            for key in ("nodes_departed", "spot_checks"):
                if not merged.get(key):
                    problems.append(f"{name}: regime did not fire ({key} = {merged.get(key)})")
            if not merged.get("tasks_submitted", 0) > n:
                problems.append(f"{name}: horizon cut no task")
        else:
            scale = 1.0 / (1.0 - self.overrides.get("unresponsive_prob", 0.0))
            scaled = dataclasses.replace(exp, cost=exp.cost * scale, jobs_variance=exp.jobs_variance * scale**2)
            problems += oracle.cost_problems(name, merged["cost_factor"], scaled, n, limit)
        return problems

    def verify_after(self, first: Op, outcome: Outcome) -> List[str]:
        return []


def _dur(span: Dict[str, Any]) -> float:
    return span["end"] - span["start"]


def _span_s(tracer, op: Op, name: str) -> float:
    return sum(_dur(s) for s in tracer.spans if s["op"] == op.index and s["name"] == name)


_PAPER_TECHNIQUES = (
    ("IR", 3, lambda: IterativeRedundancy(3)),
    ("PR", 7, lambda: ProgressiveRedundancy(7)),
    ("TR", 19, lambda: TraditionalRedundancy(19)),
)


def make(name: str, size: str, out_dir: str):
    """Build workload ``name`` at ``size`` (``full`` or the test-only ``smoke``)."""
    smoke = size == "smoke"
    if name == "fig5a_des":
        return Fig5aWorkload(name, False, size, out_dir)
    if name == "fig5a_telemetry":
        return Fig5aWorkload(name, True, size, out_dir)
    if name == "paper_scale":
        tasks, nodes = (20_000, 2_000) if smoke else (1_000_000, 10_000)
        return ShardWorkload(name, _PAPER_TECHNIQUES, tasks, nodes, R, {})
    if name == "regimes_1m":
        tasks, nodes = (20_000, 2_000) if smoke else (1_000_000, 100_000)
        overrides = {
            "speed_spread": 0.3,
            "arrival_rate": 0.01 * nodes,
            "departure_rate": 0.01 * nodes,
            "spot_check_rate": 0.05,
            "unresponsive_prob": 0.05,
            "max_time": 30.0,
        }
        return ShardWorkload(name, _PAPER_TECHNIQUES[:1], tasks, nodes,
                             BetaReliability.with_mean(R, 10.0), overrides)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("fig5a_des", "fig5a_telemetry", "paper_scale", "regimes_1m")
