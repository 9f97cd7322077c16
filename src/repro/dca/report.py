"""Per-task records, run-level aggregation, and JSON persistence.

Mirrors the measures the paper records for every run (Section 4.1): the
simulated time to complete the computation, the total number of jobs
generated, the average and maximum jobs per task, the number of tasks that
achieved a correct result, and the average and maximum response time per
task.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Sequence

from repro.core.types import ResultValue


@dataclass(frozen=True)
class TaskRecord:
    """The final record of one task's execution."""

    task_id: int
    value: ResultValue
    correct: bool
    jobs_used: int
    waves: int
    response_time: float
    turnaround: float


@dataclass
class DcaReport:
    """Aggregated results of one run, from either engine or any substrate.

    The Section 4.1 aggregates are plain fields, filled once when the
    report is built: from per-task records by :meth:`from_records`, or
    from the columnar engine's columns directly (its ``records`` stay
    empty).  Per-task aggregates cover *completed* tasks only; under a
    ``max_time`` horizon ``tasks_completed`` can fall short of
    ``tasks_submitted``, and the means are ``nan`` when nothing finished.
    """

    strategy: str
    tasks_submitted: int
    tasks_completed: int
    #: 'The number of tasks that achieved a correct result.'
    tasks_correct: int
    #: 'The total number of jobs generated' (counted per task).
    total_jobs: int
    #: 'The maximum number of jobs generated for any single task.'
    max_jobs_per_task: int
    #: 'The average response time per task.'
    mean_response_time: float
    #: 'The maximum response time for any task.'
    max_response_time: float
    mean_waves: float
    records: List[TaskRecord] = field(default_factory=list)
    makespan: float = 0.0
    total_jobs_dispatched: int = 0
    jobs_timed_out: int = 0
    spot_checks: int = 0
    nodes_blacklisted: int = 0
    nodes_joined: int = 0
    nodes_departed: int = 0
    seed: int = 0

    @classmethod
    def from_records(
        cls,
        strategy: str,
        tasks_submitted: int,
        records: Sequence[TaskRecord],
        **fields: Any,
    ) -> "DcaReport":
        """Aggregate per-task records into a report.

        ``fields`` fills the remaining (non-aggregate) fields, including a
        subclass's own.  Each aggregate is one ``sum()`` or ``max()`` over
        the records in record order; an incremental ``+=`` would round
        differently from ``sum()`` on Python 3.12+ and change ``as_dict()``.
        """
        n = len(records)
        return cls(
            strategy=strategy,
            tasks_submitted=tasks_submitted,
            tasks_completed=n,
            tasks_correct=sum(1 for record in records if record.correct),
            total_jobs=sum(record.jobs_used for record in records),
            max_jobs_per_task=max((record.jobs_used for record in records), default=0),
            mean_response_time=(
                sum(record.response_time for record in records) / n if n else math.nan
            ),
            max_response_time=max(
                (record.response_time for record in records), default=math.nan
            ),
            mean_waves=sum(record.waves for record in records) / n if n else math.nan,
            records=records,
            **fields,
        )

    # ------------------------------------------------------------------
    # The paper's Section 4.1 measures derived from the fields
    # ------------------------------------------------------------------

    @property
    def system_reliability(self) -> float:
        """Fraction of completed tasks with the correct result."""
        if not self.tasks_completed:
            return math.nan
        return self.tasks_correct / self.tasks_completed

    @property
    def cost_factor(self) -> float:
        """'The average number of jobs per task generated.'"""
        if not self.tasks_completed:
            return math.nan
        return self.total_jobs / self.tasks_completed

    def reliability_confidence_interval(self, z: float = 1.96) -> tuple:
        """Normal-approximation CI on the system reliability."""
        n = self.tasks_completed
        if n < 2:
            return (math.nan, math.nan)
        p = self.system_reliability
        half = z * math.sqrt(max(p * (1.0 - p), 1e-12) / n)
        return (max(0.0, p - half), min(1.0, p + half))

    # ------------------------------------------------------------------
    # Presentation
    # ------------------------------------------------------------------

    def summary(self) -> str:
        """The Section 4.1 record block, ready to print."""
        lines = [
            f"strategy                {self.strategy}",
            f"tasks completed         {self.tasks_completed} / {self.tasks_submitted}",
            f"time to complete        {self.makespan:.2f}",
            f"total jobs              {self.total_jobs}",
            f"avg jobs per task       {self.cost_factor:.3f}",
            f"max jobs for any task   {self.max_jobs_per_task}",
            f"tasks correct           {self.tasks_correct}"
            f"  (system reliability {self.system_reliability:.4f})",
            f"avg response time       {self.mean_response_time:.3f}",
            f"max response time       {self.max_response_time:.3f}",
        ]
        if self.jobs_timed_out:
            lines.append(f"jobs timed out          {self.jobs_timed_out}")
        if self.spot_checks:
            lines.append(f"spot checks issued      {self.spot_checks}")
        if self.nodes_blacklisted:
            lines.append(f"nodes blacklisted       {self.nodes_blacklisted}")
        if self.nodes_joined or self.nodes_departed:
            lines.append(
                f"churn                   +{self.nodes_joined} / -{self.nodes_departed}"
            )
        return "\n".join(lines)

    def as_dict(self) -> Dict[str, float]:
        """Flat dict for tables and serialisation."""
        return {
            "strategy": self.strategy,
            "tasks": self.tasks_completed,
            "reliability": self.system_reliability,
            "cost_factor": self.cost_factor,
            "max_jobs": self.max_jobs_per_task,
            "mean_response_time": self.mean_response_time,
            "max_response_time": self.max_response_time,
            "mean_waves": self.mean_waves,
            "makespan": self.makespan,
        }

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def to_json(self) -> str:
        """Serialise every field of the report, records included.

        Result values are JSON-encoded as-is, so only JSON-representable
        values (the binary model's booleans, numbers, strings, lists)
        round-trip; exotic hashables would need a custom encoder.
        """
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "DcaReport":
        """Reconstruct a report serialised by :meth:`to_json`."""
        payload = json.loads(text)
        payload["records"] = [TaskRecord(**record) for record in payload["records"]]
        return cls(**payload)
