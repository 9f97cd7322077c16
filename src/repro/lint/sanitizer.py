"""Runtime determinism sanitizer: replay a simulation and diff the traces.

The static rules in :mod:`repro.lint.rules` catch the *sources* of
nondeterminism they know about; this module catches the symptom directly.
A :class:`DeterminismSanitizer` executes the same experiment several
times from the same seed, captures each run's job-lifecycle trace (the
task server's :mod:`repro.obs` spans and events, rendered as canonical
text lines) and final metrics, and reports the **first diverging event**
-- the exact simulated time and payload where replay broke, which is
usually within a few events of the offending draw.

Example:
    >>> from repro.core import IterativeRedundancy
    >>> from repro.dca import DcaConfig
    >>> from repro.lint.sanitizer import sanitize_dca
    >>> report = sanitize_dca(DcaConfig(
    ...     strategy=IterativeRedundancy(2), tasks=20, nodes=10, seed=3))
    >>> report.ok
    True
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Any, Callable, List, Mapping, Optional, Sequence, Tuple

from repro.dca.config import DcaConfig
from repro.dca.report import DcaReport
from repro.dca.simulation import DcaSimulation
from repro.grid.run import GridConfig, run_grid
from repro.mapreduce.engine import MapReduceJob, run_mapreduce
from repro.obs.names import DCA_DECIDE_EVENT, DCA_JOB_SPAN, DCA_TASK_SPAN
from repro.obs.recorder import Recorder

#: One run's observable outcome: the canonical trace lines and the final
#: metrics.
RunCapture = Tuple[Sequence[str], Mapping[str, Any]]
Runner = Callable[[], RunCapture]


class DeterminismError(AssertionError):
    """Raised by :meth:`SanitizerReport.raise_if_diverged` on divergence."""


def _trace_line(time: float, kind: str, task: int, detail: Mapping[str, Any]) -> str:
    """One trace event as stable, byte-comparable text:
    ``t=<time!r> <kind> task=<id> [k=v!r,...]`` with keys sorted."""
    body = ",".join(f"{key}={detail[key]!r}" for key in sorted(detail))
    return f"t={time!r} {kind} task={task} [{body}]"


def trace_fingerprint(lines: Sequence[str]) -> str:
    """Canonical text for a whole stream (byte-identical iff streams are)."""
    return "\n".join(lines)


class _TraceLines(Recorder):
    """Renders the task server's lifecycle telemetry as trace lines.

    ``dca.task`` begin/end become ``submit``/``accept``, ``dca.job``
    begin/end become ``dispatch`` and ``complete`` or ``timeout`` (by the
    ``outcome`` attr), and each ``dca.decide`` event becomes ``decide``.
    The ``task`` and ``outcome`` attrs are folded into the line's envelope;
    every other attr is detail.  Metrics are ignored.
    """

    enabled = True

    def __init__(self) -> None:
        self.lines: List[str] = []

    def _add(self, time: float, kind: str, attrs: Optional[Mapping[str, Any]]) -> None:
        attrs = attrs or {}
        detail = {key: value for key, value in attrs.items() if key not in ("task", "outcome")}
        self.lines.append(_trace_line(time, kind, attrs.get("task", -1), detail))

    def span_begin(self, name, key, time, attrs=None):
        if name == DCA_TASK_SPAN:
            self._add(time, "submit", attrs)
        elif name == DCA_JOB_SPAN:
            self._add(time, "dispatch", attrs)

    def span_end(self, name, key, time, attrs=None):
        if name == DCA_TASK_SPAN:
            self._add(time, "accept", attrs)
        elif name == DCA_JOB_SPAN:
            outcome = (attrs or {}).get("outcome")
            self._add(time, "complete" if outcome == "complete" else "timeout", attrs)

    def event(self, name, time, attrs=None):
        if name == DCA_DECIDE_EVENT:
            self._add(time, "decide", attrs)


@dataclass(frozen=True)
class Divergence:
    """Where two supposedly identical runs first disagreed.

    Attributes:
        kind: ``"event"`` (payload mismatch at ``index``), ``"length"``
            (one stream is a strict prefix of the other), or ``"metric"``
            (identical traces but different final metrics).
        index: Index of the first diverging event (-1 for metric kind).
        expected: Canonical rendering from the reference run.
        observed: Canonical rendering from the diverging run.
    """

    kind: str
    index: int
    expected: str
    observed: str

    def describe(self) -> str:
        if self.kind == "metric":
            return f"final metrics diverged: expected {self.expected}, observed {self.observed}"
        if self.kind == "length":
            return (
                f"trace streams diverged at event #{self.index}: "
                f"one run ended, the other recorded {self.observed}"
            )
        return (
            f"first divergence at trace event #{self.index}: "
            f"expected {self.expected}, observed {self.observed}"
        )


@dataclass
class SanitizerReport:
    """Outcome of a determinism check."""

    ok: bool
    runs: int
    events_compared: int
    divergence: Optional[Divergence] = None

    def message(self) -> str:
        if self.ok:
            return (
                f"deterministic: {self.runs} runs produced identical "
                f"{self.events_compared}-event traces and metrics"
            )
        assert self.divergence is not None
        return f"NONDETERMINISM after {self.runs} runs: {self.divergence.describe()}"

    def raise_if_diverged(self) -> None:
        if not self.ok:
            raise DeterminismError(self.message())


def diff_captures(reference: RunCapture, observed: RunCapture) -> Optional[Divergence]:
    """First divergence between two run captures, or ``None`` if identical."""
    ref_events, ref_metrics = reference
    obs_events, obs_metrics = observed
    for index, (expected, got) in enumerate(zip(ref_events, obs_events)):
        if expected != got:
            return Divergence(kind="event", index=index, expected=expected, observed=got)
    if len(ref_events) != len(obs_events):
        index = min(len(ref_events), len(obs_events))
        longer = ref_events if len(ref_events) > len(obs_events) else obs_events
        return Divergence(
            kind="length",
            index=index,
            expected=f"{len(ref_events)} events",
            observed=longer[index],
        )
    if dict(ref_metrics) != dict(obs_metrics):
        changed = sorted(
            key
            for key in set(ref_metrics) | set(obs_metrics)
            if ref_metrics.get(key) != obs_metrics.get(key)
        )
        return Divergence(
            kind="metric",
            index=-1,
            expected=repr({key: ref_metrics.get(key) for key in changed}),
            observed=repr({key: obs_metrics.get(key) for key in changed}),
        )
    return None


class DeterminismSanitizer:
    """Replays a runner and diffs every run against the first.

    Args:
        runner: Zero-argument callable executing one *fresh* run and
            returning ``(trace lines, final metrics)``.  The runner must
            rebuild all state per call -- the sanitizer cannot detect
            state smuggled between runs through shared objects.
        runs: Total executions (>= 2).
    """

    def __init__(self, runner: Runner, *, runs: int = 2) -> None:
        if runs < 2:
            raise ValueError(f"need at least 2 runs to compare, got {runs}")
        self.runner = runner
        self.runs = runs

    def check(self) -> SanitizerReport:
        reference = self.runner()
        for _ in range(self.runs - 1):
            observed = self.runner()
            divergence = diff_captures(reference, observed)
            if divergence is not None:
                return SanitizerReport(
                    ok=False,
                    runs=self.runs,
                    events_compared=divergence.index if divergence.index >= 0 else len(reference[0]),
                    divergence=divergence,
                )
        return SanitizerReport(ok=True, runs=self.runs, events_compared=len(reference[0]))


def dca_runner(config: DcaConfig) -> Runner:
    """A :class:`DeterminismSanitizer` runner for one DCA configuration.

    The config (including its strategy, which may carry reputation state)
    is deep-copied per run so every execution starts from scratch.
    """

    def run() -> RunCapture:
        trace = _TraceLines()
        report = DcaSimulation(copy.deepcopy(config), recorder=trace).run()
        return trace.lines, report.as_dict()

    return run


def sanitize_dca(config: DcaConfig, *, runs: int = 2) -> SanitizerReport:
    """Run a DCA simulation ``runs`` times and diff traces and metrics."""
    return DeterminismSanitizer(dca_runner(config), runs=runs).check()


def _record_lines(report: DcaReport) -> List[str]:
    """Synthetic ``decide`` lines from a report's per-task records.

    The grid and MapReduce substrates drive their simulations internally,
    so there is no server to instrument; the per-task records carry
    enough of the outcome (value, cost, timing) that byte-comparing them
    as trace lines catches any replay divergence in decision, ordering,
    scheduling, or timing.
    """
    return [
        _trace_line(
            record.turnaround,
            "decide",
            record.task_id,
            {
                "value": record.value,
                "correct": record.correct,
                "jobs_used": record.jobs_used,
                "waves": record.waves,
                "response_time": record.response_time,
            },
        )
        for record in report.records
    ]


def grid_runner(config: GridConfig) -> Runner:
    """A sanitizer runner for one grid configuration.

    The config (strategy included) is deep-copied per run so stateful
    strategies cannot smuggle reputation between replays.
    """

    def run() -> RunCapture:
        report = run_grid(copy.deepcopy(config))
        return _record_lines(report), report.as_dict()

    return run


def sanitize_grid(config: GridConfig, *, runs: int = 2) -> SanitizerReport:
    """Run a grid computation ``runs`` times and diff records and metrics."""
    return DeterminismSanitizer(grid_runner(config), runs=runs).check()


def mapreduce_runner(
    job: MapReduceJob,
    strategy,
    *,
    nodes: int = 200,
    reliability=0.7,
    seed: int = 0,
    **config_overrides,
) -> Runner:
    """A sanitizer runner for one MapReduce job (args as
    :func:`repro.mapreduce.engine.run_mapreduce`).

    Job and strategy are deep-copied per run: the engine reuses the
    strategy object across chunks, so shared state would otherwise leak
    between replays and mask (or fake) nondeterminism.
    """

    def run() -> RunCapture:
        report = run_mapreduce(
            copy.deepcopy(job),
            copy.deepcopy(strategy),
            nodes=nodes,
            reliability=reliability,
            seed=seed,
            **copy.deepcopy(config_overrides),
        )
        metrics = dict(report.map_report.as_dict())
        metrics["correct"] = report.correct
        metrics["corrupted_chunks"] = report.corrupted_chunks
        metrics["output"] = dict(report.output)
        return _record_lines(report.map_report), metrics

    return run


def sanitize_mapreduce(
    job: MapReduceJob,
    strategy,
    *,
    runs: int = 2,
    nodes: int = 200,
    reliability=0.7,
    seed: int = 0,
    **config_overrides,
) -> SanitizerReport:
    """Run a MapReduce job ``runs`` times and diff map records, output,
    and metrics."""
    runner = mapreduce_runner(
        job,
        strategy,
        nodes=nodes,
        reliability=reliability,
        seed=seed,
        **config_overrides,
    )
    return DeterminismSanitizer(runner, runs=runs).check()
