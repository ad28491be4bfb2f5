"""Congestion indicators of solved patterns.

The extra-congested period (ECP) measures how long delays exceed the worst
delay of the all-gasoline baseline; the extra congestion delay (ECD) is the
pointwise-by-arrival-time delay difference against that baseline.  Both
treat delay as zero outside a pattern's rush window.  ECP is a closed form
in the solution's bands; the max ECD is the exact maximum of the two
delays' difference, found among a few schedule-penalty levels.  Nothing here
samples a grid.  The peak delay, the peak flow and the exact cost totals are
the solution's own.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass

import numpy as np

from .equilibrium import EquilibriumSolution, solution_delay


@dataclass(frozen=True)
class MetricsReport:
    """The congestion a solution adds over a baseline solution: ECP and max ECD (hours)."""

    ecp: float
    max_ecd: float


def extra_congested_period(solution: EquilibriumSolution, baseline_max_delay: float) -> float:
    """Total hours during which the delay strictly exceeds the baseline peak ``D0``.

    The delay falls away from t* on both flanks, so it exceeds ``D0`` while
    the schedule penalty is below the level ``s0`` at which it equals ``D0``:
    `(1/beta + 1/gamma) * s0` hours.  On the band whose delays hold ``D0``,
    ``s0 = C_k - map_k(D0)``; ``s0 = 0`` when ``D0`` is at or above the
    solution's peak, so a solution measured against its own peak yields
    exactly zero.
    """
    if baseline_max_delay < 0.0:
        raise ValueError("baseline_max_delay must be nonnegative")
    if baseline_max_delay >= solution.max_delay:
        return 0.0
    scenario = solution.scenario
    segment = solution.segments[bisect.bisect_right(solution.roots, baseline_max_delay) - 1]
    level = segment.equilibrium_cost - segment.cost_map(baseline_max_delay)
    return (1.0 / scenario.beta + 1.0 / scenario.gamma) * level


def _max_ecd(solution: EquilibriumSolution, baseline: EquilibriumSolution) -> float:
    """The exact maximum over arrival time of the delay difference solution - baseline.

    Both delays depend on the arrival time only through the schedule
    penalty ``s``, the same on both flanks.  On a band ``D = map^-1(C - s)``,
    with `dD/ds = -1/sqrt(a**2 + 4*b*(C - s))`, so where one band of each
    pattern holds ``s`` the difference is monotone but for one stationary
    level, linear in ``s``.  So the maximum is at t*, at a band's outer edge
    on the early flank (``s = C_k - map_k(roots[k])``) of either pattern, or
    at the stationary level of a pair of bands; beyond both windows it is 0.
    Each candidate is a true evaluation, so an extra one is harmless.
    """
    bands = [p.segments[: len(p.roots) - 1] for p in (solution, baseline)]  # the early flanks
    levels = [0.0]
    for one, two in itertools.product(*bands):
        m1, m2, c1, c2 = one.cost_map, two.cost_map, one.equilibrium_cost, two.equilibrium_cost
        if m1.b != m2.b:
            level = (m1.a**2 - m2.a**2 + 4.0 * (m1.b * c1 - m2.b * c2)) / (4.0 * (m1.b - m2.b))
            levels.append(max(level, 0.0))
    sc = solution.scenario
    times = [seg.t_lo for band in bands for seg in band] + [sc.t_star - s / sc.beta for s in levels]
    delta = solution_delay(solution, times) - solution_delay(baseline, times)
    return max(0.0, float(np.max(delta)))


def summarize(solution: EquilibriumSolution, baseline: EquilibriumSolution) -> MetricsReport:
    """ECP and the exact max ECD against ``baseline``; against itself, both are zero.

    The ECD compares the two patterns at equal schedule penalties, so they
    must share t*, beta and gamma, else ``ValueError``.
    """
    a, b = solution.scenario, baseline.scenario
    if (a.t_star, a.beta, a.gamma) != (b.t_star, b.beta, b.gamma):
        raise ValueError("solution and baseline must share t_star, beta and gamma")
    return MetricsReport(
        ecp=extra_congested_period(solution, baseline.max_delay),
        max_ecd=_max_ecd(solution, baseline),
    )
