"""Wiring for DES runs of the DCA model (entry point: :func:`repro.dca.run_dca`)."""

from __future__ import annotations

from typing import Optional

from repro.dca.churn import ChurnProcess
from repro.dca.config import DcaConfig
from repro.dca.node import Node
from repro.dca.pool import NodePool
from repro.dca.report import DcaReport
from repro.dca.taskserver import TaskServer
from repro.dca.workload import Workload
from repro.obs.names import DCA_MAKESPAN
from repro.obs.recorder import Recorder
from repro.sim.engine import Simulator, StopSimulation


class DcaSimulation:
    """One configured simulation, ready to run.

    Separating construction from :meth:`run` lets tests inspect or
    perturb the wired components (pool, server, churn) before running.

    Args:
        config: The run configuration.
        recorder: Optional telemetry recorder; it is handed to the
            :class:`~repro.sim.engine.Simulator`, and the task server
            inherits it from there.  Telemetry observes without
            perturbing: same-seed runs are identical with it on or off.
    """

    def __init__(self, config: DcaConfig, recorder: Optional[Recorder] = None) -> None:
        self.config = config
        self.sim = Simulator(seed=config.seed, recorder=recorder, queue=config.queue)
        self.pool = NodePool()
        self.churn = ChurnProcess(
            self.sim,
            self.pool,
            config.reliability_distribution,
            arrival_rate=config.arrival_rate,
            departure_rate=config.departure_rate,
            speed_spread=config.speed_spread,
            unresponsive_prob=config.unresponsive_prob,
            on_join=self._on_join,
        )
        self.server = TaskServer(
            self.sim,
            self.pool,
            config.strategy,
            failure_model=config.failure_model,
            duration_low=config.duration_low,
            duration_high=config.duration_high,
            timeout=config.effective_timeout,
            spot_check_rate=config.spot_check_rate,
            on_all_done=self._on_all_done,
        )
        self._build_initial_pool()
        self._done = False

    def _build_initial_pool(self) -> None:
        for _ in range(self.config.nodes):
            self.pool.join(self.churn.make_node())
        # Initial membership is part of setup, not churn statistics.
        self.pool.joins = 0

    def _on_join(self, node: Node) -> None:
        self.server.pump()

    def _on_all_done(self) -> None:
        self._done = True
        self.churn.stop()
        raise StopSimulation

    def run(self) -> DcaReport:
        """Execute the computation and aggregate the report."""
        config = self.config
        for task in Workload(config.tasks).tasks():
            self.server.submit(task)
        self.churn.start()
        self.sim.run(until=config.max_time)
        if self.sim.recorder is not None:
            self.sim.recorder.gauge(DCA_MAKESPAN, self.sim.now)
        return DcaReport.from_records(
            config.strategy.describe(),
            config.tasks,
            self.server.records,
            makespan=self.sim.now,
            total_jobs_dispatched=self.server.total_jobs_dispatched,
            jobs_timed_out=self.server.jobs_timed_out,
            spot_checks=self.server.spot_checks_issued,
            nodes_joined=self.pool.joins,
            nodes_departed=self.pool.departures,
            seed=config.seed,
        )
