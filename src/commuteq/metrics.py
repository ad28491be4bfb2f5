"""Congestion indicators of solved patterns.

The extra-congested period (ECP) measures how long delays exceed the worst
delay of the all-gasoline baseline; the extra congestion delay (ECD) is the
pointwise-by-arrival-time delay difference against that baseline.  Both
treat delay as zero outside a pattern's rush window.  ECP is a closed form
in the solution's bands; ECD compares exact delays on the grids that ``dt``
would sample.  The peak delay, the peak flow and the exact cost totals are
the solution's own.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from .equilibrium import EquilibriumSolution, _window_grid, solution_delay


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
    solution: EquilibriumSolution, baseline: EquilibriumSolution, dt: float
) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise delay difference solution - baseline, each delay exact (0 outside its
    window), on the union of the ``t* + dt*k`` grids that ``sample_profiles``
    lays over the two; a ``dt`` it rejects raises the same ScenarioError."""
    grids = [_window_grid(s.scenario.t_star, s.window, dt) for s in (solution, baseline)]
    grid = np.union1d(*grids)
    return grid, solution_delay(solution, grid) - solution_delay(baseline, grid)


def summarize(
    solution: EquilibriumSolution, baseline: EquilibriumSolution, dt: float
) -> MetricsReport:
    """ECP and max ECD (on ``dt``'s grids) against ``baseline``; against itself, both are zero."""
    _, ecd_delta = extra_congestion_delay(solution, baseline, dt)
    return MetricsReport(
        ecp=extra_congested_period(solution, baseline.max_delay),
        max_ecd=float(np.max(ecd_delta)),
    )
