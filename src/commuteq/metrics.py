"""Congestion indicators and cost accounting over solved profiles.

The extra-congested period (ECP) measures how long delays exceed the worst
delay of the all-gasoline baseline; the extra congestion delay (ECD) is the
pointwise-by-arrival-time delay difference against that baseline.  Both
treat delay as zero outside a pattern's rush window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .equilibrium import TimeProfile


@dataclass(frozen=True)
class CostBreakdown:
    """Integrated cost components of one profile ($).

    ``social`` is travel time + energy + schedule delay; toll revenue is a
    transfer and deliberately kept out of it.
    """

    travel_time: float
    energy: float
    schedule_delay: float
    toll_revenue: float

    @property
    def social(self) -> float:
        return self.travel_time + self.energy + self.schedule_delay


@dataclass(frozen=True)
class MetricsReport:
    """Headline congestion indicators of a profile against a baseline profile."""

    max_delay: float
    window: tuple[float, float]
    duration: float
    peak_flow: float
    ecp: float
    costs: CostBreakdown
    ecd_times: np.ndarray
    ecd_delta: np.ndarray

    @property
    def max_ecd(self) -> float:
        if self.ecd_delta.size == 0:
            return 0.0
        return float(np.max(self.ecd_delta))


def extra_congested_period(profile: TimeProfile, baseline_max_delay: float) -> float:
    """Total hours during which the delay strictly exceeds the baseline peak.

    Crossings between grid nodes are located by linear interpolation, so the
    measure does not inherit grid-resolution bias.  A profile measured
    against its own maximum yields exactly zero.
    """
    if baseline_max_delay < 0.0:
        raise ValueError("baseline_max_delay must be nonnegative")
    t = profile.times
    d = profile.delay - baseline_max_delay
    if t.size < 2:
        return 0.0
    d1, d2 = d[:-1], d[1:]
    widths = np.diff(t)
    frac = np.zeros_like(widths)
    both = (d1 > 0.0) & (d2 > 0.0)
    frac[both] = 1.0
    down = (d1 > 0.0) & (d2 <= 0.0)
    frac[down] = d1[down] / (d1[down] - d2[down])
    up = (d1 <= 0.0) & (d2 > 0.0)
    frac[up] = d2[up] / (d2[up] - d1[up])
    return float(np.sum(frac * widths))


def extra_congestion_delay(
    profile: TimeProfile, baseline: TimeProfile
) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise delay difference profile - baseline on the union grid."""
    grid = np.union1d(profile.times, baseline.times)
    own = np.interp(grid, profile.times, profile.delay, left=0.0, right=0.0)
    base = np.interp(grid, baseline.times, baseline.delay, left=0.0, right=0.0)
    return grid, own - base


def total_cost_breakdown(profile: TimeProfile) -> CostBreakdown:
    """Trapezoidal integrals of flow-weighted cost components over the grid.

    Toll revenue comes from the profile's own toll column.
    """
    t = profile.times
    f = profile.flow_total
    if t.size < 2 or not np.any(f > 0.0):
        return CostBreakdown(0.0, 0.0, 0.0, 0.0)
    return CostBreakdown(
        travel_time=float(np.trapezoid(f * profile.cost_travel_time, t)),
        energy=float(np.trapezoid(f * profile.cost_energy, t)),
        schedule_delay=float(np.trapezoid(f * profile.cost_schedule, t)),
        toll_revenue=float(np.trapezoid(f * profile.toll, t)),
    )


def summarize(profile: TimeProfile, baseline: TimeProfile) -> MetricsReport:
    """Assemble the indicator report, with ECP and ECD against ``baseline``.

    A profile summarized against itself has zero ECP and zero max ECD.
    """
    max_delay = float(np.max(profile.delay)) if profile.delay.size else 0.0
    peak_flow = float(np.max(profile.flow_total)) if profile.flow_total.size else 0.0
    baseline_max = float(np.max(baseline.delay)) if baseline.delay.size else 0.0
    ecd_times, ecd_delta = extra_congestion_delay(profile, baseline)
    return MetricsReport(
        max_delay=max_delay,
        window=profile.window,
        duration=profile.window[1] - profile.window[0],
        peak_flow=peak_flow,
        ecp=extra_congested_period(profile, baseline_max),
        costs=total_cost_breakdown(profile),
        ecd_times=ecd_times,
        ecd_delta=ecd_delta,
    )
