"""The paper's DCA system model (Figure 1) on the discrete-event engine.

A *computation* is subdivided into *tasks*; the task server creates *jobs*
(redundant instances of a task) and assigns each to a node chosen at
random from the node pool; nodes perform jobs for a stochastic duration
and return results (or fail Byzantine-style); the server compares results
per the configured redundancy strategy and creates new jobs as needed.
Nodes may join and leave the pool (churn).

Entry point::

    from repro.core import IterativeRedundancy
    from repro.dca import DcaConfig, run_dca

    report = run_dca(DcaConfig(
        tasks=50_000, nodes=2_000, reliability=0.7, seed=42,
        strategy=IterativeRedundancy(d=4),
    ))
    print(report.summary())

``run_dca(config, engine="columnar")`` runs the same config on the
columnar engine (:mod:`repro.dca.columnar`) when it fits that engine's
regime, and raises :class:`ColumnarUnsupported` when it does not.
"""

from repro.dca.columnar import ColumnarUnsupported, run_columnar_dca
from repro.dca.config import DcaConfig
from repro.dca.engines import ENGINES, check_engine, run_dca
from repro.dca.failures import (
    ByzantineCollusion,
    FailureModel,
    NonColludingFailures,
    SpotCheckEvading,
    UnresponsiveWrapper,
    CorrelatedFailures,
)
from repro.dca.checkpointing import (
    CheckpointPolicy,
    expected_completion_time,
    optimal_interval,
    simulate_job,
)
from repro.dca.node import Node
from repro.dca.pool import NodePool
from repro.dca.report import DcaReport, TaskRecord
from repro.dca.simulation import DcaSimulation
from repro.dca.taskserver import TaskServer
from repro.dca.workload import Task, Workload

__all__ = [
    "ENGINES",
    "ByzantineCollusion",
    "CheckpointPolicy",
    "ColumnarUnsupported",
    "CorrelatedFailures",
    "DcaConfig",
    "DcaReport",
    "DcaSimulation",
    "FailureModel",
    "Node",
    "NodePool",
    "NonColludingFailures",
    "SpotCheckEvading",
    "Task",
    "TaskRecord",
    "TaskServer",
    "UnresponsiveWrapper",
    "Workload",
    "check_engine",
    "expected_completion_time",
    "optimal_interval",
    "run_columnar_dca",
    "run_dca",
    "simulate_job",
]
