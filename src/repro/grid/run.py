"""Running a redundant computation across grid sites."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.strategy import RedundancyStrategy
from repro.core.types import Decision, JobOutcome, VoteState
from repro.dca.report import DcaReport, TaskRecord
from repro.grid.broker import ResourceBroker
from repro.grid.site import GridSite, MaintenanceWindow, _QueuedJob
from repro.sim.engine import Simulator, StopSimulation


@dataclass
class GridConfig:
    """One grid run.

    Attributes:
        strategy: Redundancy strategy for the tasks.
        tasks: Number of independent binary tasks.
        sites: Number of grid sites.
        slots_per_site: Parallel capacity per site.
        site_fault_prob: Per-(site, task) correlated poisoning probability.
        job_fault_prob: Residual independent per-job fault rate.
        policy: Broker routing policy.
        anti_affinity: Spread each task's replicas across sites.
        maintenance: Optional per-site maintenance windows, keyed by site.
        seed: Root seed.
    """

    strategy: RedundancyStrategy
    tasks: int = 1_000
    sites: int = 8
    slots_per_site: int = 16
    site_fault_prob: float = 0.1
    job_fault_prob: float = 0.1
    policy: str = "random"
    anti_affinity: bool = False
    maintenance: Dict[int, Tuple[MaintenanceWindow, ...]] = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.tasks < 1:
            raise ValueError(f"need at least one task, got {self.tasks}")
        if self.sites < 1:
            raise ValueError(f"need at least one site, got {self.sites}")

    def expected_job_reliability(self) -> float:
        """Marginal per-job reliability (site poisoning folded in)."""
        return (1.0 - self.site_fault_prob) * (1.0 - self.job_fault_prob)


@dataclass
class _GridTaskState:
    task_id: int
    vote: VoteState = field(default_factory=VoteState)
    jobs_used: int = 0
    waves: int = 1
    first_dispatch: Optional[float] = None
    done: bool = False


def run_grid(config: GridConfig) -> DcaReport:
    """Execute the computation on the grid; returns the usual measures."""
    sim = Simulator(seed=config.seed)
    sites = [
        GridSite(
            sim,
            site_id,
            slots=config.slots_per_site,
            site_fault_prob=config.site_fault_prob,
            job_fault_prob=config.job_fault_prob,
            maintenance=config.maintenance.get(site_id, ()),
        )
        for site_id in range(config.sites)
    ]
    broker = ResourceBroker(
        sites,
        sim.rng.stream("broker"),
        policy=config.policy,
        anti_affinity=config.anti_affinity,
    )
    strategy = config.strategy
    states = {task_id: _GridTaskState(task_id) for task_id in range(config.tasks)}
    records: List[TaskRecord] = []
    remaining = config.tasks
    job_counter = 0

    def dispatch(state: _GridTaskState, count: int) -> None:
        nonlocal job_counter
        state.vote.dispatched(count)
        if state.first_dispatch is None:
            state.first_dispatch = sim.now
        for _ in range(count):
            job = _QueuedJob(
                job_id=job_counter,
                task_id=state.task_id,
                true_value=True,
                wrong_value=False,
                on_result=lambda job_id, value, s=state: on_result(s, value),
            )
            job_counter += 1
            broker.route(job)

    def on_result(state: _GridTaskState, value) -> None:
        nonlocal remaining
        if state.done:
            return
        state.vote.record(JobOutcome(value=value))
        state.jobs_used += 1
        if state.vote.outstanding > 0:
            return
        decision = strategy.decide(state.vote)
        if not decision.done:
            state.waves += 1
            dispatch(state, decision.more_jobs)
            return
        state.done = True
        broker.forget_task(state.task_id)
        now = sim.now
        records.append(
            TaskRecord(
                task_id=state.task_id,
                value=decision.accepted,
                correct=decision.accepted is True,
                jobs_used=state.jobs_used,
                waves=state.waves,
                response_time=now - (state.first_dispatch or now),
                turnaround=now,
            )
        )
        remaining -= 1
        if remaining == 0:
            raise StopSimulation

    for state in states.values():
        dispatch(state, strategy.initial_jobs())
    sim.run()

    return DcaReport.from_records(
        strategy.describe(),
        config.tasks,
        records,
        makespan=sim.now,
        total_jobs_dispatched=broker.jobs_routed,
        seed=config.seed,
    )
