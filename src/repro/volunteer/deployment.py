"""Deployment harness: wire testbed + server + clients and run to verdicts.

Reproduces the paper's BOINC experiment shape: a 3-SAT problem decomposed
into 140 work units, 200 PlanetLab-like volunteers, redundancy strategy
plugged into validation.  Also supports synthetic (non-SAT) work units for
quick parameter sweeps.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.core.strategy import RedundancyStrategy
from repro.core.types import ResultValue
from repro.dca.report import DcaReport
from repro.sat.decompose import SatTaskSpec, decompose, recombine
from repro.sat.formula import CnfFormula, random_3sat
from repro.sat.solver import check_range_numpy
from repro.sim.engine import Simulator, StopSimulation
from repro.volunteer.client import VolunteerClient, VolunteerNodeProfile
from repro.volunteer.planetlab import PlanetLabTestbed
from repro.volunteer.server import VolunteerServer, WorkUnit


@dataclass
class VolunteerConfig:
    """Parameters of one volunteer deployment.

    Attributes:
        strategy: Redundancy strategy under test.
        testbed: Node-profile generator (defaults to the paper's 200-node
            PlanetLab-like slice).
        seed: Root seed.
        sat_vars / sat_clauses: 3-SAT problem shape (the paper used
            22-variable problems; the clause count is chosen near the
            phase transition when left ``None``).
        tasks: Work units per problem (the paper used 140).
        use_sat: When True, work units are real 3-SAT slices and their
            ground truth is computed with the vectorised checker.  When
            False, units are synthetic binary tasks (fast sweeps).
        really_compute: When True, honest clients actually run the slice
            check instead of reporting stored ground truth.  Slower;
            exercised by an integration test and an example.
        deadline: Server-side report deadline.
        max_time: Safety horizon for the simulation.
    """

    strategy: RedundancyStrategy
    testbed: PlanetLabTestbed = field(default_factory=PlanetLabTestbed)
    seed: int = 0
    sat_vars: int = 22
    sat_clauses: Optional[int] = None
    tasks: int = 140
    use_sat: bool = True
    really_compute: bool = False
    deadline: float = 30.0
    max_time: Optional[float] = None
    value_matcher: Optional[Callable[[ResultValue], ResultValue]] = None

    def __post_init__(self) -> None:
        if self.tasks < 1:
            raise ValueError(f"need at least one task, got {self.tasks}")
        if self.sat_vars < 3:
            raise ValueError(f"3-SAT needs >= 3 variables, got {self.sat_vars}")
        if self.deadline <= 0:
            raise ValueError(f"deadline must be positive, got {self.deadline}")

    @property
    def effective_sat_clauses(self) -> int:
        if self.sat_clauses is not None:
            return self.sat_clauses
        return max(1, round(4.27 * self.sat_vars))


@dataclass
class VolunteerReport(DcaReport):
    """DCA-style measures plus deployment-level results."""

    problem_answer: Optional[bool] = None
    problem_truth: Optional[bool] = None
    derived_reliability: float = math.nan
    deadline_misses: int = 0
    assignments_issued: int = 0

    @property
    def problem_correct(self) -> Optional[bool]:
        if self.problem_answer is None or self.problem_truth is None:
            return None
        return self.problem_answer == self.problem_truth


def run_volunteer(config: VolunteerConfig) -> VolunteerReport:
    """Execute one volunteer deployment and aggregate the report."""
    sim = Simulator(seed=config.seed)
    testbed_rng = sim.rng.stream("testbed")
    profiles = config.testbed.generate(testbed_rng)

    units, formula, truth = _build_units(config, sim.rng.stream("workload"))

    def all_done() -> None:
        raise StopSimulation

    server = VolunteerServer(
        sim,
        config.strategy,
        deadline=config.deadline,
        value_matcher=config.value_matcher,
        pool_size=len(profiles),
        on_all_done=all_done,
    )
    for unit in units:
        server.submit(unit)

    compute = None
    if config.really_compute and formula is not None:
        compute = lambda payload: check_range_numpy(formula, payload.start, payload.stop)

    clients = [
        VolunteerClient(
            sim,
            server,
            profile,
            # Per-client streams keyed by the deterministic node id from
            # the generated testbed; the name set is fixed by the config.
            sim.rng.stream(f"client-{profile.node_id}"),  # reprolint: disable=RL005
            compute=compute,
        )
        for profile in profiles
    ]
    sim.run(until=config.max_time)

    answer = None
    if config.use_sat and server.remaining_units == 0:
        answer = recombine(server.verdicts())

    report = VolunteerReport.from_records(
        config.strategy.describe(),
        config.tasks,
        server.records,
        makespan=sim.now,
        total_jobs_dispatched=server.assignments_issued,
        jobs_timed_out=server.deadline_misses,
        seed=config.seed,
        problem_answer=answer,
        problem_truth=truth,
        deadline_misses=server.deadline_misses,
        assignments_issued=server.assignments_issued,
    )
    report.derived_reliability = derive_reliability(report, config.strategy)
    return report


def _build_units(config: VolunteerConfig, rng: random.Random):
    """Create work units (SAT slices or synthetic binary tasks)."""
    if not config.use_sat:
        units = [WorkUnit(unit_id=i) for i in range(config.tasks)]
        return units, None, None
    formula = random_3sat(config.sat_vars, config.effective_sat_clauses, rng)
    specs = decompose(formula, config.tasks)
    units = []
    for spec in specs:
        truth_value = check_range_numpy(formula, spec.start, spec.stop)
        units.append(
            WorkUnit(
                unit_id=spec.task_id,
                payload=spec,
                true_value=truth_value,
                wrong_value=not truth_value,
            )
        )
    problem_truth = any(unit.true_value for unit in units)
    return units, formula, problem_truth


def derive_reliability(report: DcaReport, strategy: RedundancyStrategy) -> float:
    """Estimate the (unknown) node reliability from observed cost, the way
    Section 4.2 derives 0.64 < r < 0.67 from the measurements.

    For iterative redundancy the cost closed form inverts cleanly:
    C = d (2R - 1) / (2r - 1) with R = R_IR(r, d); solve for r by
    bisection.  For progressive redundancy, invert Equation (3)
    numerically.  Traditional redundancy's cost carries no information
    about r (it is always k), so the estimate falls back to inverting the
    observed reliability via Equation (2).
    """
    from repro.core import IterativeRedundancy, ProgressiveRedundancy, TraditionalRedundancy
    from repro.core import analysis

    if not report.tasks_completed:
        return math.nan
    # The closed forms count *responses*; jobs burned on deadline misses
    # are pure transport overhead, so exclude them from the cost signal.
    responded = report.total_jobs - report.jobs_timed_out
    cost = responded / report.tasks_completed
    observed_reliability = report.system_reliability

    def bisect(func, lo: float = 0.501, hi: float = 0.999) -> float:
        f_lo, f_hi = func(lo), func(hi)
        if f_lo * f_hi > 0:
            return math.nan
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            f_mid = func(mid)
            if f_lo * f_mid <= 0:
                hi = mid
            else:
                lo, f_lo = mid, f_mid
        return 0.5 * (lo + hi)

    if isinstance(strategy, IterativeRedundancy):
        d = strategy.d
        return bisect(lambda r: analysis.iterative_cost(r, d) - cost)
    if isinstance(strategy, ProgressiveRedundancy):
        k = strategy.k
        return bisect(lambda r: analysis.progressive_cost(r, k) - cost)
    if isinstance(strategy, TraditionalRedundancy):
        k = strategy.k
        if math.isnan(observed_reliability):
            return math.nan
        return bisect(
            lambda r: analysis.traditional_reliability(r, k) - observed_reliability
        )
    return math.nan
