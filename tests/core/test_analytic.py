# reprolint: disable-file=RL003 -- asserting that two closed-form evaluations are the *same* expression is the point
"""Closed-form predictions: self-consistency and cross-validation against
full replications on both engines.

Tolerances (documented in ``docs/performance.md``): in the idealised
regime the equations model -- homogeneous reliability, no churn, ample
nodes so the system is unloaded -- simulation means over thousands of
tasks agree with the closed forms within

* reliability: +-0.02 absolute (binomial noise at 2000 tasks),
* cost factor: +-5% relative,
* response time: +-10% relative (the analytic model assumes every wave
  starts instantly; ample nodes make that nearly true).

``max_jobs`` is not cross-validated numerically: the simulation reports
the realised maximum over its tasks while the analytic value is the
0.999 quantile of the per-task distribution -- same order, different
statistic.
"""

import pytest

from repro.core import (
    AdaptiveReplication,
    ComplexIterativeRedundancy,
    IterativeRedundancy,
    NoRedundancy,
    ProgressiveRedundancy,
    TraditionalRedundancy,
    analysis,
    analytic_prediction,
    supports_analytic,
)
from repro.dca import ENGINES
from repro.experiments.common import replicate_dca

UNLOADED = dict(tasks=2000, nodes=4000, reliability=0.7, replications=2, seed=7)


class TestClosedFormConsistency:
    def test_traditional_matches_equations_1_and_2(self):
        p = analytic_prediction(TraditionalRedundancy(5), 0.7)
        assert p.cost_factor == analysis.traditional_cost(5)
        assert p.reliability == analysis.traditional_reliability(0.7, 5)
        assert p.max_jobs == 5

    def test_progressive_matches_equations_3_and_4(self):
        p = analytic_prediction(ProgressiveRedundancy(7), 0.7)
        assert p.cost_factor == analysis.progressive_cost(0.7, 7)
        assert p.reliability == analysis.traditional_reliability(0.7, 7)
        assert p.max_jobs == 7

    def test_iterative_matches_equations_5_and_6(self):
        p = analytic_prediction(IterativeRedundancy(3), 0.7)
        assert p.cost_factor == analysis.iterative_cost(0.7, 3)
        assert p.reliability == analysis.iterative_reliability(0.7, 3)
        # The 0.999 quantile of an unbounded distribution is finite and
        # at least the minimum possible total (d jobs).
        assert p.max_jobs >= 3

    def test_complex_iterative_equals_simple_at_equivalent_margin(self):
        """Theorem 1, analytically: the r-aware algorithm's prediction is
        the margin algorithm's at ``equivalent_margin``."""
        complex_strategy = ComplexIterativeRedundancy(0.7, 0.967)
        simple = IterativeRedundancy(complex_strategy.equivalent_margin)
        p_complex = analytic_prediction(complex_strategy, 0.7)
        p_simple = analytic_prediction(simple, 0.7)
        assert p_complex.reliability == p_simple.reliability
        assert p_complex.cost_factor == p_simple.cost_factor

    def test_no_redundancy_is_the_k1_degenerate_case(self):
        p = analytic_prediction(NoRedundancy(), 0.7)
        assert p.reliability == pytest.approx(0.7)
        assert p.cost_factor == 1.0
        assert p.max_jobs == 1

    def test_supports_analytic_classification(self):
        assert supports_analytic(TraditionalRedundancy(3))
        assert supports_analytic(IterativeRedundancy(2))
        assert not supports_analytic(AdaptiveReplication())

    def test_unsupported_strategy_rejected(self):
        with pytest.raises(ValueError, match="no closed form"):
            analytic_prediction(AdaptiveReplication(), 0.7)


_FACTORIES = [
    ("TR5", lambda: TraditionalRedundancy(5)),
    ("PR7", lambda: ProgressiveRedundancy(7)),
    ("IR3", lambda: IterativeRedundancy(3)),
]


class TestCrossValidationAgainstSimulation:
    """analytic_prediction must predict what replicate_dca measures, on
    either engine (the DES cases keep their bare ids)."""

    @pytest.mark.parametrize(
        "factory,engine",
        [
            pytest.param(factory, engine, id=name if engine == "des" else f"{name}-{engine}")
            for name, factory in _FACTORIES
            for engine in ENGINES
        ],
    )
    def test_analytic_matches_unloaded_simulation(self, factory, engine):
        sim = replicate_dca(factory, engine=engine, **UNLOADED)
        ana = analytic_prediction(factory(), UNLOADED["reliability"])
        assert ana.reliability == pytest.approx(sim.mean_reliability, abs=0.02)
        assert ana.cost_factor == pytest.approx(sim.mean_cost, rel=0.05)
        assert ana.mean_response_time == pytest.approx(
            sim.mean_response_time, rel=0.10
        )
