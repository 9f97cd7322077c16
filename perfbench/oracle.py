"""Output oracle: closed-form bounds on every op's reliability and cost.

The oracle never looks at how an engine got its answer.  It takes the
paper's Equations (1)-(6) from ``repro.core.analysis`` for the expected
reliability R and cost C, and derives each estimator's variance from the
wave process itself:

* reliability over ``n`` tasks is a binomial proportion, so its variance
  is ``R (1 - R) / n``;
* cost is a mean of ``n`` independent per-task job counts, so its
  variance is ``Var[jobs] / n``.  ``Var[jobs]`` comes from an exact
  dynamic program over the strategy's waves (below), whose mean is
  cross-checked against the closed-form cost before it is used.

Every op is one family of z-tests.  The family-wise false-alarm rate per
op is ``ALPHA`` (Bonferroni over the op's tests), so a clean run fails an
op with probability below 1e-6 while a result 10 standard errors off
always fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Callable, Dict, List, Tuple

from repro.core import analysis

#: Family-wise false-alarm probability per op.
ALPHA = 1e-6

#: Probability mass below which the unbounded IR wave process is cut.
_TAIL = 1e-15


@dataclass(frozen=True)
class Expectation:
    """Closed-form reliability and cost of one strategy, with job variance."""

    technique: str
    param: int
    reliability: float
    cost: float
    jobs_variance: float


def _wave_process(
    r: float,
    wave: Callable[[int, int], int],
    done: Callable[[int, int], bool],
) -> Tuple[float, float, float]:
    """Exact (P(correct), E[jobs], Var[jobs]) of a wave-dispatch strategy.

    State ``(a, b)`` counts correct and wrong responses; each wave
    dispatches ``wave(a, b)`` jobs whose correct/wrong split is
    binomial(r).  A task stops once ``done(a, b)``; it is correct when
    ``a > b`` at that point.
    """
    q = 1.0 - r
    live: Dict[Tuple[int, int], float] = {(0, 0): 1.0}
    jobs_pmf: Dict[int, float] = {}
    p_correct = 0.0
    while live and sum(live.values()) > _TAIL:
        nxt: Dict[Tuple[int, int], float] = {}
        for (a, b), mass in live.items():
            size = wave(a, b)
            for hits in range(size + 1):
                p = mass * math.comb(size, hits) * r**hits * q ** (size - hits)
                state = (a + hits, b + size - hits)
                if done(*state):
                    jobs = state[0] + state[1]
                    jobs_pmf[jobs] = jobs_pmf.get(jobs, 0.0) + p
                    if state[0] > state[1]:
                        p_correct += p
                else:
                    nxt[state] = nxt.get(state, 0.0) + p
        live = nxt
    mean = sum(p * jobs for jobs, p in jobs_pmf.items())
    return p_correct, mean, sum(p * (jobs - mean) ** 2 for jobs, p in jobs_pmf.items())


def expectation(technique: str, param: int, r: float) -> Expectation:
    """Closed-form R and C for ``TR``/``PR`` (k) or ``IR`` (d) at ``r``.

    Raises:
        ValueError: if the wave program's mean or reliability disagrees
            with the closed form, which would make the bounds meaningless.
    """
    if technique == "TR":
        k = param
        reliability = analysis.traditional_reliability(r, k)
        cost = analysis.traditional_cost(k)
        wave_r, wave_c, var = _wave_process(
            r, lambda a, b: k - a - b, lambda a, b: a + b >= k
        )
    elif technique == "PR":
        m = (param + 1) // 2
        reliability = analysis.progressive_reliability(r, param)
        cost = analysis.progressive_cost(r, param)
        wave_r, wave_c, var = _wave_process(
            r, lambda a, b: m - max(a, b), lambda a, b: max(a, b) >= m
        )
    elif technique == "IR":
        d = param
        reliability = analysis.iterative_reliability(r, d)
        cost = analysis.iterative_cost(r, d)
        wave_r, wave_c, var = _wave_process(
            r, lambda a, b: d - abs(a - b), lambda a, b: abs(a - b) >= d
        )
    else:
        raise ValueError(f"no closed form for technique {technique!r}")
    if not (math.isclose(wave_r, reliability, rel_tol=1e-9)
            and math.isclose(wave_c, cost, rel_tol=1e-9)):
        raise ValueError(
            f"{technique}({param}) wave program (R={wave_r}, C={wave_c}) "
            f"disagrees with the closed form (R={reliability}, C={cost})"
        )
    return Expectation(technique, param, reliability, cost, var)


def z_limit(tests: int) -> float:
    """Two-sided |z| bound for ``tests`` tests at family-wise ``ALPHA``."""
    return NormalDist().inv_cdf(1.0 - ALPHA / (2 * tests))


def reliability_z(measured: float, expected: float, tasks: int, extra_var: float = 0.0) -> float:
    """Standard score of a measured reliability over ``tasks`` tasks."""
    return (measured - expected) / math.sqrt(expected * (1 - expected) / tasks + extra_var)


def cost_problems(name: str, measured: float, exp: Expectation, tasks: int, limit: float) -> List[str]:
    """Problems with a measured cost factor (exact match when Var = 0)."""
    if exp.jobs_variance == 0.0:
        if abs(measured - exp.cost) > 1e-9 * exp.cost:
            return [f"{name}: cost {measured!r} != exact {exp.cost!r}"]
        return []
    z = (measured - exp.cost) / math.sqrt(exp.jobs_variance / tasks)
    if abs(z) > limit:
        return [f"{name}: cost {measured:.6f} vs {exp.cost:.6f} (z={z:+.2f}, limit {limit:.2f})"]
    return []


def reliability_problems(
    name: str, measured: float, exp: Expectation, tasks: int, limit: float, extra_var: float = 0.0
) -> List[str]:
    """Problems with a measured reliability (binomial bound plus ``extra_var``)."""
    z = reliability_z(measured, exp.reliability, tasks, extra_var)
    if abs(z) > limit:
        return [
            f"{name}: reliability {measured:.6f} vs {exp.reliability:.6f} "
            f"(z={z:+.2f}, limit {limit:.2f})"
        ]
    return []


def reliability_slope(exp: Expectation, r: float, h: float = 1e-5) -> float:
    """dR/dr of the closed form, by central difference."""
    f = {
        "TR": analysis.traditional_reliability,
        "PR": analysis.progressive_reliability,
        "IR": analysis.iterative_reliability,
    }[exp.technique]
    return (f(r + h, exp.param) - f(r - h, exp.param)) / (2 * h)
