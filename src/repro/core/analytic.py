"""Closed-form predictions of DES sweep measurements.

Figures 5 and 6 compare simulation against Equations (1)-(6); for the
paper's idealised regime (homogeneous reliability, no churn, no silent
nodes) those closed forms *are* the model the simulation samples.  This
module packages them behind the same vocabulary the experiment harness
uses -- a strategy instance in, a prediction out -- so a microsecond
closed-form evaluation can be set beside a
:func:`repro.experiments.common.replicate_dca` measurement of the same
strategy.

The mapping is strategy-class driven:

===============================  =============================================
Strategy                         Closed forms (all from :mod:`repro.core.analysis`)
===============================  =============================================
``TraditionalRedundancy(k)``     Equations (1), (2); one wave of ``k`` jobs
``ProgressiveRedundancy(k)``     Equations (3), (4); wave process over ``k``
``IterativeRedundancy(d)``       Equations (5), (6); gambler's-ruin walk
``ComplexIterativeRedundancy``   Theorem 1: identical to IR at the
                                 ``equivalent_margin``
``NoRedundancy``                 The ``k = 1`` degenerate case
===============================  =============================================

Anything else -- node-aware strategies whose behaviour depends on history
-- raises :class:`ValueError` rather than returning a silently wrong
number.  The predictions hold only for DES configurations the equations
model: no churn, no silent nodes, homogeneous node speeds, no spot
checks.  Response times use the *unloaded* model of
:func:`repro.core.analysis.expected_response_time` (every wave starts
immediately); simulations with fewer nodes than the offered load will
measure higher values, which is exactly the effect Figure 6 isolates.

Iterative redundancy has no finite worst case (Section 5.2), so the
``max_jobs`` prediction reports a *quantile* of the per-task job
distribution (default 0.999) -- the analytic counterpart of the "maximum
jobs for any single task" column the simulations record.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import analysis
from repro.core.iterative import IterativeRedundancy
from repro.core.iterative_complex import ComplexIterativeRedundancy
from repro.core.noredundancy import NoRedundancy
from repro.core.progressive import ProgressiveRedundancy
from repro.core.strategy import RedundancyStrategy
from repro.core.traditional import TraditionalRedundancy

__all__ = [
    "AnalyticPrediction",
    "analytic_prediction",
    "supports_analytic",
]

@dataclass(frozen=True)
class AnalyticPrediction:
    """Closed-form counterpart of one DES sweep point.

    Attributes:
        reliability: System reliability R(r) for the strategy.
        cost_factor: Expected jobs per task C(r).
        mean_response_time: Unloaded-system expected task response time.
        max_jobs: Jobs-per-task bound; exact for TR/PR (``k``), the
            ``max_jobs_quantile`` of the job distribution for IR.
        strategy_name: ``describe()`` of the predicted strategy.
    """

    reliability: float
    cost_factor: float
    mean_response_time: float
    max_jobs: int
    strategy_name: str


def supports_analytic(strategy: RedundancyStrategy) -> bool:
    """Whether :func:`analytic_prediction` can evaluate ``strategy``."""
    return isinstance(
        strategy,
        (
            TraditionalRedundancy,
            ProgressiveRedundancy,
            IterativeRedundancy,
            ComplexIterativeRedundancy,
            NoRedundancy,
        ),
    )


def analytic_prediction(
    strategy: RedundancyStrategy,
    r: float,
    *,
    duration_low: float = 0.5,
    duration_high: float = 1.5,
    max_jobs_quantile: float = 0.999,
) -> AnalyticPrediction:
    """Evaluate the closed forms for ``strategy`` at node reliability ``r``.

    Args:
        strategy: One of the strategies listed in the module table.
        r: Average node reliability in (0, 1).
        duration_low / duration_high: Uniform nominal job duration bounds
            (must match the DES configuration being predicted).
        max_jobs_quantile: Quantile reported as ``max_jobs`` for the
            unbounded iterative strategy.

    Raises:
        ValueError: for strategies with no closed form (node-aware,
            custom), mirroring the "reject, don't guess" contract.
    """
    if isinstance(strategy, NoRedundancy):
        return AnalyticPrediction(
            reliability=r,
            cost_factor=1.0,
            mean_response_time=analysis.expected_wave_duration(
                1, low=duration_low, high=duration_high
            ),
            max_jobs=1,
            strategy_name=strategy.describe(),
        )
    if isinstance(strategy, TraditionalRedundancy):
        k = strategy.k
        return AnalyticPrediction(
            reliability=analysis.traditional_reliability(r, k),
            cost_factor=analysis.traditional_cost(k),
            mean_response_time=analysis.expected_response_time(
                r, "traditional", k, low=duration_low, high=duration_high
            ),
            max_jobs=k,
            strategy_name=strategy.describe(),
        )
    if isinstance(strategy, ProgressiveRedundancy):
        k = strategy.k
        return AnalyticPrediction(
            reliability=analysis.progressive_reliability(r, k),
            cost_factor=analysis.progressive_cost(r, k),
            mean_response_time=analysis.expected_response_time(
                r, "progressive", k, low=duration_low, high=duration_high
            ),
            max_jobs=k,
            strategy_name=strategy.describe(),
        )
    if isinstance(strategy, (IterativeRedundancy, ComplexIterativeRedundancy)):
        # Theorem 1: the complex algorithm is IR at its equivalent margin.
        d = (
            strategy.d
            if isinstance(strategy, IterativeRedundancy)
            else strategy.equivalent_margin
        )
        return AnalyticPrediction(
            reliability=analysis.iterative_reliability(r, d),
            cost_factor=analysis.iterative_cost(r, d),
            mean_response_time=analysis.expected_response_time(
                r, "iterative", d, low=duration_low, high=duration_high
            ),
            max_jobs=analysis.iterative_job_quantile(r, d, max_jobs_quantile),
            strategy_name=strategy.describe(),
        )
    raise ValueError(
        f"no closed form for {strategy.describe()!r}: the closed forms cover "
        "traditional, progressive, and iterative redundancy only"
    )

