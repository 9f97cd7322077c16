"""Volunteer-deployment worker: one 3-SAT problem per replicate.

The Figure 5(b) study runs several independent problems per sweep point;
each problem is a pure function of (strategy, testbed, shape, seed) and
fans out exactly like a DCA replicate.  The worker deep-copies the
strategy before running so serial and parallel execution see identical
fresh state even when a caller shares one instance across specs.
"""

from __future__ import annotations

import copy
import math
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.strategy import RedundancyStrategy
from repro.parallel.engine import parallel_map
from repro.parallel.envelope import RawResult, ReplicateEnvelope, fan_out, raw_result
from repro.volunteer import PlanetLabTestbed, VolunteerConfig, run_volunteer


@dataclass(frozen=True)
class VolunteerProblemSpec:
    """One volunteer problem run, in picklable form."""

    seed: int
    strategy: RedundancyStrategy
    testbed: PlanetLabTestbed
    sat_vars: int
    tasks: int


def run_volunteer_problem(spec: VolunteerProblemSpec) -> RawResult:
    """Execute one volunteer problem (module-level, picklable worker)."""
    start = time.perf_counter()
    report = run_volunteer(
        VolunteerConfig(
            strategy=copy.deepcopy(spec.strategy),
            testbed=spec.testbed,
            sat_vars=spec.sat_vars,
            tasks=spec.tasks,
            seed=spec.seed,
        )
    )
    metrics = report.as_dict()
    metrics["derived_reliability"] = (
        report.derived_reliability
        if not math.isnan(report.derived_reliability)
        else None
    )
    metrics["problem_correct"] = report.problem_correct
    metrics["deadline_misses"] = report.deadline_misses
    return raw_result(spec.seed, metrics, start)


def run_volunteer_problems(
    specs: Sequence[VolunteerProblemSpec],
    *,
    jobs: Optional[int] = 1,
    chunk_size: Optional[int] = None,
) -> List[ReplicateEnvelope]:
    """Run volunteer problems (serial or fanned out) into envelopes."""
    return fan_out(
        lambda specs: parallel_map(
            run_volunteer_problem, specs, jobs=jobs, chunk_size=chunk_size
        ),
        specs,
        noun="volunteer problem",
    )
