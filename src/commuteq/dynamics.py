"""Day-to-day adjustment oracle over discretized arrival bins.

Commuters are binned by arrival minute (fractional vehicle mass allowed) and
reassign themselves toward cheaper bins day after day.  Fixed points of the
update coincide with the discretized user equilibrium, equal cost across a
class's occupied bins, which makes the converged state an independent check
on the analytic solvers: the two share only the core cost formulas.

The update is a deterministic proportional swap.  Each day, every bin whose
cost exceeds its class minimum sends a fraction of its mass toward cheaper
bins: the sending fraction is ``eta`` scaled down by the bin's own cost
excess relative to the current minimum cost, and the sent mass is split over
all cheaper bins in proportion to the pairwise cost advantage.  Far from
equilibrium this moves the full ``eta`` share; near it the flux vanishes
proportionally to the remaining gap, which makes the equal-cost fixed points
attracting.  (A swap that always dumps the full ``eta`` share into the
single cheapest bin overshoots: the receiving bin's cost jumps by roughly
``eta * N * dc/dm``, orders of magnitude above any useful gap tolerance, and
the system limit-cycles instead of converging.)

The pairwise split never forms the n x n advantage matrix.  With the bins
sorted once by cost excess, a bin's total advantage over cheaper bins and
its inflow from costlier bins are both cumulative sums over the sorted
order, so a day costs O(n log n) time and O(n) memory per class.

At a few hundred bins a day's time is numpy call overhead, not arithmetic,
so the day loop keeps the call count down: the schedule penalty of the bin
centers is computed once per grid (again only after the grid grows), the
flow is checked for negative values once per day, and each class's day
step runs in sorted coordinates with one gather and one scatter.  On the
bundled corridor (237 bins) a day costs about 80 us for one class and
120 us for two, best of 7 on a quiet shared 2-vCPU host.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    Scenario,
    VehicleClass,
    congestion_cost,
    congestion_cost_map,
    delay_from_flow,
    schedule_delay,
)

CLASS_ORDER = (VehicleClass.GV, VehicleClass.EV)

#: A bin counts as used when it holds more than this fraction of its class.
USED_MASS_FRACTION = 1e-3


@dataclass(frozen=True)
class BinAssignment:
    """Per-bin per-class commuter mass on one day.

    ``masses`` has shape (2, n_bins) with rows ordered GV, EV; fractional
    vehicles are allowed.  Row sums stay exactly at the class populations.
    """

    bin_width: float
    centers: np.ndarray
    masses: np.ndarray
    day: int = 0

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.masses))

    def class_mass(self, cls: VehicleClass) -> np.ndarray:
        return self.masses[CLASS_ORDER.index(cls)]

    def delays(self, scenario: Scenario) -> np.ndarray:
        """Per-bin congestion delay implied by the total bin flow."""
        flow = self.masses.sum(axis=0) / self.bin_width
        return delay_from_flow(flow, scenario)


@dataclass(frozen=True)
class GapReport:
    """Distance from cost equalization, per class and overall.

    ``gap`` is (max cost among used bins) - (min cost among all bins) per
    class; ``relative_gap`` divides by that min.  When produced by
    :func:`run_until_converged` the report also says which stop condition
    fired and carries the per-day per-class relative-gap trace.
    """

    gap: dict[VehicleClass, float]
    relative_gap: dict[VehicleClass, float]
    converged: bool | None = None
    days: int | None = None
    stop_reason: str | None = None
    trace: np.ndarray | None = None

    @property
    def worst_relative_gap(self) -> float:
        return max(self.relative_gap.values(), default=0.0)


def bin_costs(
    assignment: BinAssignment,
    scenario: Scenario,
    schedule: np.ndarray | None = None,
) -> np.ndarray:
    """Per-class per-bin trip cost, shape (2, n_bins).

    Congestion is shared: the delay comes from the total bin flow; the
    classes differ through their energy models.  ``schedule`` is the
    :func:`schedule_delay` of the bin centers, which depends on the grid
    alone; it is computed here when omitted.
    """
    # the flow is checked for negative values once, in delay_from_flow; the
    # delay of a nonnegative flow is nonnegative, so each class's cost skips
    # the check congestion_cost would repeat
    delay = assignment.delays(scenario)
    if schedule is None:
        schedule = schedule_delay(assignment.centers, scenario)
    costs = np.empty_like(assignment.masses)
    for row, cls in enumerate(CLASS_ORDER):
        costs[row] = congestion_cost_map(scenario.energy_model(cls), scenario)(delay) + schedule
    return costs


def init_assignment(scenario: Scenario, bin_width: float) -> BinAssignment:
    """Uniform starting spread, centered on the preferred arrival time.

    The spread width doubles a generous rush-duration heuristic: the window
    a single class would need at the congestion cost of pushing the whole
    population through within one hour.  Any strictly positive spread works;
    convergence, not the start, carries the correctness burden.
    """
    if bin_width <= 0.0:
        raise ValueError("bin_width must be positive")
    heuristic_delay = delay_from_flow(scenario.n_total, scenario)
    heuristic_cost = congestion_cost(scenario.gv_energy, scenario, heuristic_delay)
    half_width = (1.0 / scenario.beta + 1.0 / scenario.gamma) * float(heuristic_cost)
    half_bins = max(int(math.ceil(half_width / bin_width)), 2)
    centers = scenario.t_star + bin_width * np.arange(-half_bins, half_bins + 1, dtype=float)
    masses = np.zeros((2, centers.size))
    for row, cls in enumerate(CLASS_ORDER):
        masses[row, :] = scenario.population(cls) / centers.size
    return BinAssignment(bin_width=bin_width, centers=centers, masses=masses, day=0)


def day_step(
    assignment: BinAssignment,
    scenario: Scenario,
    eta: float,
    costs: np.ndarray | None = None,
) -> BinAssignment:
    """Advance one day: per class, swap mass from costly bins toward cheaper ones.

    Bin ``i`` sends ``o_i = eta * m_i * min(1, (c_i - c_min) / c_min)``,
    split over cheaper bins proportionally to the pairwise cost difference.
    All moves use the costs observed at the start of the day (``costs``, the
    :func:`bin_costs` of ``assignment``, computed here when omitted), and
    each class's total mass is conserved exactly.

    The split is evaluated in the cost excess ``e = c - c_min``, sorted once
    per class.  With ``d_t`` the gap between sorted positions ``t-1`` and
    ``t``, bin ``i`` at position ``t`` has total advantage
    ``W_i = sum_j max(e_i - e_j, 0) = sum_{u<=t} u * d_u`` and receives
    ``sum_k o_k / W_k * max(e_k - e_i, 0) = sum_{u>t} R_u * d_u``, where
    ``R_u`` sums ``o_k / W_k`` over positions ``u`` and above.  Both are
    running sums of nonnegative terms, and tied bins (``d = 0``) trade
    nothing, exactly as in the pairwise form.  A day costs O(n log n) time
    and O(n) memory for n bins.  Each class's masses and excesses are
    gathered into sorted order once and the updated row is scattered back
    once, before the bin-order sum that rescales it to the class total.
    """
    if not 0.0 < eta <= 1.0:
        raise ValueError("eta must lie in (0, 1]")
    if costs is None:
        costs = bin_costs(assignment, scenario)
    masses = assignment.masses
    n = masses.shape[1]
    new_masses = masses.copy()
    steps = np.arange(1, n, dtype=float)
    for row in range(len(CLASS_ORDER)):
        m = masses[row]
        total = float(m.sum())
        if total <= 0.0:
            continue
        c = costs[row]
        c_min = float(c.min())
        excess = c - c_min
        order = excess.argsort(kind="stable")
        # from here to the scatter, every array is in sorted position order
        excess = excess[order]
        sorted_m = m[order]
        outflow = eta * sorted_m * np.minimum(1.0, excess / max(c_min, 1e-12))
        rise = excess[1:] - excess[:-1]
        weight_sum = np.empty(n)
        weight_sum[0] = 0.0
        (steps * rise).cumsum(out=weight_sum[1:])
        senders = (weight_sum > 0.0) & (outflow > 0.0)
        if not senders.any():
            continue
        # a bin that sends nothing already has zero outflow (zero total
        # advantage means zero excess), so only the rate needs the mask
        rate = np.divide(outflow, weight_sum, out=np.zeros(n), where=senders)
        rate_above = rate[::-1].cumsum(out=rate[::-1])[::-1]
        inflow = np.empty(n)
        inflow[-1] = 0.0
        np.multiply(rate_above[1:], rise, out=rise)[::-1].cumsum(out=inflow[-2::-1])
        updated = new_masses[row]
        updated[order] = sorted_m - outflow + inflow
        np.maximum(updated, 0.0, out=updated)
        # the rescale sums in bin order, as the masses are stored
        new_total = float(updated.sum())
        if new_total > 0.0:
            updated *= total / new_total
    return BinAssignment(
        bin_width=assignment.bin_width,
        centers=assignment.centers,
        masses=new_masses,
        day=assignment.day + 1,
    )


def gap_measure(
    assignment: BinAssignment,
    scenario: Scenario,
    used_mass_fraction: float = USED_MASS_FRACTION,
    costs: np.ndarray | None = None,
) -> GapReport:
    """Cost spread between a class's used bins and the cheapest bin anywhere.

    ``costs`` is the :func:`bin_costs` of ``assignment``, computed here when
    omitted.  An assignment holding no mass has an empty report.
    """
    masses = assignment.masses
    if not masses.any():
        return GapReport(gap={}, relative_gap={})
    if costs is None:
        costs = bin_costs(assignment, scenario)
    gaps: dict[VehicleClass, float] = {}
    rels: dict[VehicleClass, float] = {}
    for row, cls in enumerate(CLASS_ORDER):
        population = scenario.population(cls)
        if population <= 0.0:
            continue
        used = masses[row] > used_mass_fraction * population
        if not used.any():
            used = masses[row] > 0.0
        c = costs[row]
        c_min = float(c.min())
        gap = float(c[used].max()) - c_min
        gaps[cls] = gap
        rels[cls] = gap / max(c_min, 1e-12)
    return GapReport(gap=gaps, relative_gap=rels)


def run_until_converged(
    scenario: Scenario,
    bin_width: float = 1.0 / 60.0,
    eta: float = 0.05,
    gap_tol: float = 1e-3,
    max_days: int = 10000,
    used_mass_fraction: float = USED_MASS_FRACTION,
) -> tuple[BinAssignment, GapReport]:
    """Iterate :func:`day_step` until the relative gap drops below ``gap_tol``.

    Each day calls :func:`bin_costs`, :func:`gap_measure` and :func:`day_step`
    once; the schedule penalty of the bin centers is computed once per grid
    and passed to :func:`bin_costs`.  Non-convergence within ``max_days`` is
    reported, not raised; the caller decides what an unconverged oracle
    means.  ``eta`` outside (0, 1] and a nonpositive ``gap_tol`` raise
    ``ValueError`` before any day runs, also for an empty fleet.
    """
    if gap_tol <= 0.0:
        raise ValueError("gap_tol must be positive")
    if not 0.0 < eta <= 1.0:
        raise ValueError("eta must lie in (0, 1]")
    assignment = init_assignment(scenario, bin_width)
    if scenario.n_total == 0.0:
        report = GapReport(
            gap={},
            relative_gap={},
            converged=True,
            days=0,
            stop_reason="empty",
            trace=np.zeros((1, len(CLASS_ORDER))),
        )
        return assignment, report

    def trace_row(report: GapReport) -> list[float]:
        return [report.relative_gap.get(cls, 0.0) for cls in CLASS_ORDER]

    # each day's costs are computed once: they score the day's state and
    # then drive the next day's moves
    trace = []
    schedule = schedule_delay(assignment.centers, scenario)
    costs = bin_costs(assignment, scenario, schedule)
    report = gap_measure(assignment, scenario, used_mass_fraction, costs=costs)
    trace.append(trace_row(report))
    days = 0
    while days < max_days:
        # a too narrow initial spread can equalize costs inside a cramped
        # grid, so convergence is only accepted (and progress periodically
        # rechecked) with the support sitting clear of the grid edges
        if report.worst_relative_gap < gap_tol or (days > 0 and days % 500 == 0):
            grow_lo, grow_hi = crowded_edges(assignment, scenario, used_mass_fraction)
            if grow_lo or grow_hi:
                assignment = extend_grid(assignment, grow_lo, grow_hi)
                schedule = schedule_delay(assignment.centers, scenario)
                costs = bin_costs(assignment, scenario, schedule)
                report = gap_measure(assignment, scenario, used_mass_fraction, costs=costs)
            elif report.worst_relative_gap < gap_tol:
                break
        assignment = day_step(assignment, scenario, eta, costs=costs)
        days += 1
        costs = bin_costs(assignment, scenario, schedule)
        report = gap_measure(assignment, scenario, used_mass_fraction, costs=costs)
        trace.append(trace_row(report))
    grow_lo, grow_hi = crowded_edges(assignment, scenario, used_mass_fraction)
    converged = report.worst_relative_gap < gap_tol and not (grow_lo or grow_hi)
    final = GapReport(
        gap=report.gap,
        relative_gap=report.relative_gap,
        converged=converged,
        days=days,
        stop_reason="gap_tol" if converged else "max_days",
        trace=np.asarray(trace),
    )
    return assignment, final


def crowded_edges(
    assignment: BinAssignment,
    scenario: Scenario,
    used_mass_fraction: float = USED_MASS_FRACTION,
    margin: int = 2,
) -> tuple[bool, bool]:
    """Whether meaningful mass sits within ``margin`` bins of either grid edge.

    A genuinely converged pattern keeps its support strictly inside the grid;
    occupied edge bins mean the initial spread was too narrow for this
    scenario and the grid must grow before convergence can be trusted.
    """
    n = assignment.centers.size
    lo = hi = False
    for row, cls in enumerate(CLASS_ORDER):
        population = scenario.population(cls)
        if population <= 0.0:
            continue
        used = np.nonzero(assignment.masses[row] > used_mass_fraction * population)[0]
        if used.size == 0:
            continue
        lo = lo or used[0] < margin
        hi = hi or used[-1] >= n - margin
    return lo, hi


def extend_grid(assignment: BinAssignment, grow_lo: bool, grow_hi: bool) -> BinAssignment:
    """Pad the bin grid with empty bins (half the current span per side)."""
    n = assignment.centers.size
    extra = max(n // 2, 8)
    h = assignment.bin_width
    first, last = assignment.centers[0], assignment.centers[-1]
    parts_c = []
    parts_m = []
    if grow_lo:
        parts_c.append(first - h * np.arange(extra, 0, -1, dtype=float))
        parts_m.append(np.zeros((len(CLASS_ORDER), extra)))
    parts_c.append(assignment.centers)
    parts_m.append(assignment.masses)
    if grow_hi:
        parts_c.append(last + h * np.arange(1, extra + 1, dtype=float))
        parts_m.append(np.zeros((len(CLASS_ORDER), extra)))
    return BinAssignment(
        bin_width=h,
        centers=np.concatenate(parts_c),
        masses=np.concatenate(parts_m, axis=1),
        day=assignment.day,
    )
