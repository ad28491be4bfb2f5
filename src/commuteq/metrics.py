"""Congestion indicators of solved patterns.

The extra-congested period (ECP) measures how long delays exceed the worst
delay of the all-gasoline baseline; the extra congestion delay (ECD) is the
pointwise-by-arrival-time delay difference against that baseline.  Both
treat delay as zero outside a pattern's rush window.  ECP is a closed form
in the solution's bands; ECD is read off the sampled profiles.  The peak
delay, the peak flow and the exact cost totals are the solution's own.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from .equilibrium import EquilibriumSolution, TimeProfile


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


def extra_congestion_delay(
    profile: TimeProfile, baseline: TimeProfile
) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise delay difference profile - baseline on the union grid."""
    grid = np.union1d(profile.times, baseline.times)
    own = np.interp(grid, profile.times, profile.delay, left=0.0, right=0.0)
    base = np.interp(grid, baseline.times, baseline.delay, left=0.0, right=0.0)
    return grid, own - base


def summarize(solution: EquilibriumSolution, baseline: EquilibriumSolution) -> MetricsReport:
    """ECP and max ECD against ``baseline``; against itself, both are zero."""
    _, ecd_delta = extra_congestion_delay(solution.profile, baseline.profile)
    return MetricsReport(
        ecp=extra_congested_period(solution, baseline.max_delay),
        max_ecd=float(np.max(ecd_delta)),
    )
