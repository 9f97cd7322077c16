"""Executing MapReduce jobs on the redundant DCA substrate.

The map phase is exactly a DCA computation: one task per chunk, each
task's jobs performed by unreliable nodes under the configured
redundancy strategy.  A failed job reports the chunk's *colluding
corrupted output* (the Byzantine worst case); the vote must beat the
corruption for the reduce to see the true map output.  The reduce phase
runs on the (trusted) client, per the paper's assumption 5.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.core.strategy import RedundancyStrategy
from repro.dca.config import DcaConfig
from repro.dca.report import DcaReport
from repro.dca.simulation import DcaSimulation
from repro.dca.workload import Task
from repro.mapreduce.job import MapOutput, MapReduceJob

#: Produces the colluding wrong output failures agree on for a chunk.
Corruptor = Callable[[int, MapOutput], MapOutput]


def default_corruptor(chunk_index: int, true_output: MapOutput) -> MapOutput:
    """A plausible-but-wrong map output all failures agree on.

    The corruption must remain *reduce-compatible* (the reduce function
    will be applied to it if the vote is lost), so it is type-aware:
    numbers are nudged, (key, count) tuples get one count inflated, and
    anything else is replaced by a chunk-tagged tuple -- in which case
    the reducer must tolerate foreign values, or a custom corruptor
    should be supplied.
    """
    if isinstance(true_output, bool):
        return not true_output
    if isinstance(true_output, int):
        return true_output + 1 + chunk_index % 3
    if isinstance(true_output, float):
        return true_output * 1.5 + 1.0
    if (
        isinstance(true_output, tuple)
        and true_output
        and all(isinstance(item, tuple) and len(item) == 2 for item in true_output)
    ):
        key, count = true_output[0]
        inflated = ((key, count + 1 + chunk_index % 5),) + true_output[1:]
        return inflated
    return ("corrupted", chunk_index, hash(true_output) & 0xFFFF)


@dataclass
class MapReduceReport:
    """Result of one redundant MapReduce execution."""

    output: MapOutput
    expected: MapOutput
    map_report: DcaReport
    corrupted_chunks: int

    @property
    def correct(self) -> bool:
        return self.output == self.expected

    @property
    def map_reliability(self) -> float:
        return self.map_report.system_reliability

    @property
    def cost_factor(self) -> float:
        return self.map_report.cost_factor


class MapReduceEngine:
    """Runs MapReduce jobs over an unreliable node pool.

    Args:
        strategy: Redundancy strategy for the map tasks.
        nodes: Node-pool size.
        reliability: Node reliability (or distribution), as in
            :class:`~repro.dca.config.DcaConfig`.
        corruptor: How colluding failures corrupt each chunk's output.
        seed: Root seed.
        config_overrides: Extra :class:`DcaConfig` fields (churn, failure
            model, durations, ...).
    """

    def __init__(
        self,
        strategy: RedundancyStrategy,
        *,
        nodes: int = 200,
        reliability=0.7,
        corruptor: Corruptor = default_corruptor,
        seed: int = 0,
        **config_overrides,
    ) -> None:
        self.strategy = strategy
        self.nodes = nodes
        self.reliability = reliability
        self.corruptor = corruptor
        self.seed = seed
        self.config_overrides = config_overrides

    def run(self, job: MapReduceJob) -> MapReduceReport:
        """Execute the map phase redundantly, then reduce the verdicts."""
        true_outputs: Dict[int, MapOutput] = {}
        simulation = DcaSimulation(
            DcaConfig(
                strategy=self.strategy,
                tasks=job.num_tasks,  # placeholder; tasks submitted below
                nodes=self.nodes,
                reliability=self.reliability,
                seed=self.seed,
                **self.config_overrides,
            )
        )
        # Submit the real map tasks instead of the workload's synthetic
        # binary ones: each task's true value is the honest map output and
        # its wrong value the colluding corruption.
        for index, chunk in enumerate(job.chunks):
            true_output = job.map_function(chunk)
            true_outputs[index] = true_output
            wrong_output = self.corruptor(index, true_output)
            if wrong_output == true_output:
                raise ValueError(
                    f"corruptor returned the true output for chunk {index}; "
                    "corruption must differ"
                )
            simulation.server.submit(
                Task(task_id=index, true_value=true_output, wrong_value=wrong_output)
            )
        simulation.churn.start()
        simulation.sim.run()
        map_report = DcaReport.from_records(
            self.strategy.describe(),
            job.num_tasks,
            simulation.server.records,
            makespan=simulation.sim.now,
            total_jobs_dispatched=simulation.server.total_jobs_dispatched,
            jobs_timed_out=simulation.server.jobs_timed_out,
            seed=self.seed,
        )
        # Reduce accepted map outputs in chunk order.
        verdicts = {record.task_id: record.value for record in map_report.records}
        output = job.identity
        corrupted = 0
        for index in range(job.num_tasks):
            value = verdicts[index]
            if value != true_outputs[index]:
                corrupted += 1
            output = job.reduce_function(output, value)
        return MapReduceReport(
            output=output,
            expected=job.expected_output(),
            map_report=map_report,
            corrupted_chunks=corrupted,
        )


def run_mapreduce(
    job: MapReduceJob,
    strategy: RedundancyStrategy,
    *,
    nodes: int = 200,
    reliability=0.7,
    seed: int = 0,
    **config_overrides,
) -> MapReduceReport:
    """One-call MapReduce execution under redundancy."""
    engine = MapReduceEngine(
        strategy,
        nodes=nodes,
        reliability=reliability,
        seed=seed,
        **config_overrides,
    )
    return engine.run(job)
