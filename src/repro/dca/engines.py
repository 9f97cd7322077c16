"""One front door to both DCA engines.

:func:`run_dca` runs one computation on the object DES
(:class:`~repro.dca.simulation.DcaSimulation`, the default and the
reference for every config) or on the columnar engine
(:func:`~repro.dca.columnar.run_columnar_dca`, the paper's
contention-free, binary-vote regime at a fraction of the cost).  Both
return a :class:`~repro.dca.report.DcaReport`; only the DES fills its
per-task ``records``.

:func:`check_engine` is the same choice made without running anything.
:class:`~repro.parallel.dca.DcaSpec` calls it as it is built, so a
config the chosen engine cannot run fails in the parent process, before
any worker starts.
"""

from __future__ import annotations

from typing import Optional

from repro.core.strategy import RedundancyStrategy
from repro.dca.columnar import check_columnar, run_columnar_dca
from repro.dca.config import DcaConfig
from repro.dca.report import DcaReport
from repro.dca.simulation import DcaSimulation
from repro.obs.recorder import Recorder

#: The DCA engines: columnar for the paper's regime, the DES for all.
ENGINES = ("columnar", "des")


def check_engine(
    engine: str, strategy: RedundancyStrategy, failure_model: object = None
) -> None:
    """Reject an engine name, or a config the named engine cannot run.

    Raises:
        ValueError: for an engine not in :data:`ENGINES`.
        ColumnarUnsupported: for ``"columnar"`` with a node-aware
            strategy or a non-binary failure model.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; choose from {ENGINES}")
    if engine == "columnar":
        check_columnar(strategy, failure_model)


def run_dca(
    config: DcaConfig, recorder: Optional[Recorder] = None, engine: str = "des"
) -> DcaReport:
    """Run one DCA computation on ``engine`` (the usual entry point)."""
    check_engine(engine, config.strategy, config.failure_model)
    if engine == "columnar":
        return run_columnar_dca(config, recorder=recorder)
    return DcaSimulation(config, recorder=recorder).run()
