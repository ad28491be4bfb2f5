"""Day-to-day adjustment oracle over discretized arrival bins.

Commuters are binned by arrival minute (fractional vehicle mass allowed) and
reassign themselves toward cheaper bins day after day.  Fixed points of the
update coincide with the discretized user equilibrium, equal cost across a
class's occupied bins, which makes the converged state an independent check
on the analytic solvers: the two share only the core cost formulas.  A run
stops once every class's mass-weighted relative gap is small
(:func:`run_until_converged`); an empty fleet runs the same loop and stops
before its first day.

The update is a deterministic proportional swap with a Newton-scaled
sending fraction.  Each day, every bin whose cost exceeds its class minimum
sends a fraction of its class mass toward cheaper bins, and the sent mass is
split over all cheaper bins in proportion to the pairwise cost advantage
(Smith, "The stability of a dynamic model of traffic assignment", Transp.
Sci. 1984).  The fraction is ``eta * min(1, e/s)``: ``e`` is the bin's cost
excess over the class minimum and ``s`` the relief, the cost drop that
removing the class's whole mass from the bin would bring, linearized in the
delay through the slope of the class's cost map (``CostMap.slope``).  So a
bin takes ``eta`` of the Newton step that would bring its cost down to the
minimum, measured against how fast its own cost responds, as in path-based
assignment (Jayakrishnan et al., "A faster path-based algorithm for traffic
assignment", TRR 1443, 1994).  The fraction is 0 exactly when the excess
is, so the equal-cost fixed points are the same as for any proportional
swap.

The classes move in turn, a Gauss-Seidel sweep: the GV row first, then the
EV row on the delay and costs of the masses the GV move left.  Moved on
the day's starting costs, each class's Newton step would ignore the other
class moving through the same bins, and mixed runs oscillate from ``eta``
about 0.55.  Swept in turn, every draw of ``tools/oracle_eta_scan.py``
converges at each scanned ``eta`` up to 1; the shipped 0.5 is half that.
On the bundled corridor a run takes 24 / 110 / 24 days (mpr 0 / 0.5 / 1),
against 45 / 489 / 46 for the simultaneous update at the 0.25 its own
scan allowed.  (A swap that always
dumps the full ``eta`` share into the single cheapest bin overshoots: the
receiving bin's cost jumps by roughly ``eta * N * dc/dm``, orders of
magnitude above any useful gap tolerance, and the system limit-cycles.)

The pairwise split never forms the n x n advantage matrix.  With the bins
sorted once by cost excess, a bin's total advantage over cheaper bins and
its inflow from costlier bins are both cumulative sums over the sorted
order, so a day costs O(n log n) time and O(n) memory per class.

At a few hundred bins a day's time is numpy call overhead, not arithmetic,
so the day loop keeps the call count down: the schedule penalty of the bin
centers is computed once per grid (again only after the grid grows), the
day's delays once per day, and each class's step runs in sorted
coordinates with one gather and one scatter.  A mixed day adds the delay
and the EV cost row of the masses the GV move left.  On the bundled
corridor (135 bins) a whole day, costs and gaps included, takes about 95 us
for one class and 175 us for two (best of 7 runs on a shared 2-vCPU host;
the simultaneous update read about 95 and 140 us in the same session).
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, replace

import numpy as np

from .equilibrium import MAX_GRID_ROWS
from .errors import ScenarioError
from .model import (
    EnergyModel,
    Scenario,
    VehicleClass,
    congestion_cost_map,
    delay_from_flow,
    flow_from_delay,
    schedule_delay,
)
from .numerics import DEFAULTS, solve_bracketed

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

    def class_mass(self, cls: VehicleClass) -> np.ndarray:
        return self.masses[CLASS_ORDER.index(cls)]

    def delays(self, scenario: Scenario) -> np.ndarray:
        """Per-bin congestion delay implied by the total bin flow."""
        flow = self.masses.sum(axis=0) / self.bin_width
        return delay_from_flow(flow, scenario)


@dataclass(frozen=True)
class GapReport:
    """Distance from cost equalization, per class and overall.

    ``weighted_gap`` is the mass-weighted relative gap
    ``sum m (c - c_min) / sum m c_min`` per class, the oracle's stop
    measure: the class's mean cost excess over the cheapest bin anywhere,
    relative to that cheapest cost (Boyce, Ralevic-Dekic & Bar-Gera 2004).
    ``gap`` is (max cost among used bins) - (min cost among all bins) per
    class and ``relative_gap`` divides it by that min; it is kept as a
    diagnostic, since one bin just above the used-mass cut decides it.
    When produced by :func:`run_until_converged` the report also says which
    stop condition fired and carries the per-day per-class traces of both
    relative gaps.
    """

    gap: dict[VehicleClass, float]
    relative_gap: dict[VehicleClass, float]
    weighted_gap: dict[VehicleClass, float]
    converged: bool | None = None
    days: int | None = None
    stop_reason: str | None = None
    trace: np.ndarray | None = None
    weighted_trace: np.ndarray | None = None

    @property
    def worst_relative_gap(self) -> float:
        return max(self.relative_gap.values(), default=0.0)

    @property
    def worst_weighted_gap(self) -> float:
        return max(self.weighted_gap.values(), default=0.0)


def bin_costs(
    assignment: BinAssignment, scenario: Scenario, schedule: np.ndarray, delay: np.ndarray
) -> np.ndarray:
    """Per-class per-bin trip cost, shape (2, n_bins).

    Congestion is shared: the delay comes from the total bin flow; the
    classes differ through their energy models.  ``schedule`` is the
    :func:`schedule_delay` of the bin centers, which depends on the grid
    alone, and ``delay`` is :meth:`BinAssignment.delays`.
    """
    # the flow is checked for negative values once, in delay_from_flow; the
    # delay of a nonnegative flow is nonnegative, so each class's cost skips
    # the check congestion_cost would repeat
    costs = np.empty_like(assignment.masses)
    for row, cls in enumerate(CLASS_ORDER):
        costs[row] = congestion_cost_map(scenario.energy_model(cls), scenario)(delay) + schedule
    return costs


def init_assignment(scenario: Scenario, bin_width: float) -> BinAssignment:
    """Uniform starting spread, centered on the preferred arrival time.

    The spread is twice the rush window ``W`` of a GV fleet arriving at the
    uniform flow ``N/W``: ``W = (1/beta + 1/gamma) * Phi_gv(T(N/W))``, so each
    side of the preferred time gets ``W``.  The root is solved for the delay
    of that uniform flow, where ``K * Phi_gv(T) * f(T) - N`` rises from
    ``-N`` at ``T = 0`` and is convex, since ``Phi_gv(T) * f(T)`` is a sum of
    powers of ``T`` above 1.  Any strictly positive spread works;
    convergence, not the start, carries the correctness burden, and the
    run grows a grid whose edges the support reaches.  A start of more than
    :data:`MAX_GRID_ROWS` bins raises :class:`ScenarioError` (a ValueError).
    """
    if bin_width <= 0.0:
        raise ValueError("bin_width must be positive")
    k = 1.0 / scenario.beta + 1.0 / scenario.gamma
    cost = congestion_cost_map(scenario.gv_energy, scenario)
    n = scenario.n_total
    p = 1.0 / scenario.nu

    def shortfall(delay: float) -> tuple[float, float]:
        flow = float(flow_from_delay(delay, scenario))
        value = k * cost(delay) * flow - n
        # d/dT [Phi f] = f * (Phi' + Phi / (nu T)), with Phi / T = a + b T
        return value, k * flow * (cost.slope(delay) + p * (cost.a + cost.b * delay))

    # Phi(T) >= a T bounds the root: K a T f(T) = N at this delay
    ceiling = (n * scenario.trip_km**p / (k * cost.a * scenario.capacity_r)) ** (1.0 / (1.0 + p))
    half_width = k * cost(solve_bracketed(shortfall, 0.0, ceiling, rtol=1e-6))
    # at most 2*ceil(x) + 1 <= 2*x + 3 bins; checked before ceil(), and inf or NaN fail too
    if not 2.0 * (half_width / bin_width) + 3.0 <= MAX_GRID_ROWS:
        raise ScenarioError(f"bin width {bin_width:g} h needs more than {MAX_GRID_ROWS} start bins")
    half_bins = max(int(math.ceil(half_width / bin_width)), 2)
    centers = scenario.t_star + bin_width * np.arange(-half_bins, half_bins + 1, dtype=float)
    masses = np.zeros((2, centers.size))
    for row, cls in enumerate(CLASS_ORDER):
        masses[row, :] = scenario.population(cls) / centers.size
    return BinAssignment(bin_width=bin_width, centers=centers, masses=masses)


def day_step(
    assignment: BinAssignment,
    scenario: Scenario,
    eta: float,
    costs: np.ndarray,
    schedule: np.ndarray,
    delay: np.ndarray,
) -> BinAssignment:
    """Advance one day: the GV row swaps mass toward cheaper bins, then the EV row.

    Bin ``i`` sends ``o_i = eta * m_i * min(1, e_i / s_i)`` of its class
    mass ``m_i``, split over cheaper bins proportionally to the pairwise cost
    difference.  ``e_i = c_i - c_min`` is the bin's cost excess and
    ``s_i = Phi'(T_i) * nu * T_i * m_i / M_i`` its relief: the delay
    ``T = m (f/R)**nu`` of the bin's total mass ``M_i`` rises at
    ``dT/dM = nu * T / M``, so ``s_i`` is the class cost the bin would shed,
    linearized, if its ``m_i`` left.  The fraction is a damped Newton step
    toward the class minimum; it is 0 exactly when ``e_i`` is, and a bin
    holding none of the class (``s_i = 0``) sends nothing.  Each class's
    total mass is conserved exactly.

    The classes move in turn, a Gauss-Seidel sweep.  The GV row moves on
    ``costs``, the :func:`bin_costs` of ``assignment``, and on ``delay``, its
    :meth:`BinAssignment.delays`.  When it has moved and EVs are present, the
    delay and the EV cost row are recomputed from the masses it left (with
    ``schedule``, the :func:`schedule_delay` of the bin centers), and the EV
    row moves on those, so its Newton step sees the GV move.  A single-class
    fleet takes one pass on the starting costs.

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
    new_masses = assignment.masses.copy()
    gv, ev = new_masses
    bin_mass = assignment.masses.sum(axis=0)
    ev_costs = costs[1]
    if _swap(gv, costs[0], scenario.gv_energy, delay, bin_mass, scenario, eta) and ev.any():
        bin_mass = new_masses.sum(axis=0)
        delay = delay_from_flow(bin_mass / assignment.bin_width, scenario)
        ev_costs = congestion_cost_map(scenario.ev_energy, scenario)(delay) + schedule
    _swap(ev, ev_costs, scenario.ev_energy, delay, bin_mass, scenario, eta)
    return BinAssignment(assignment.bin_width, assignment.centers, new_masses)


def _swap(
    m: np.ndarray,
    c: np.ndarray,
    model: EnergyModel,
    delay: np.ndarray,
    bin_mass: np.ndarray,
    scenario: Scenario,
    eta: float,
) -> bool:
    """One class's swap of :func:`day_step`, on the row ``m`` in place; whether any bin sent.

    ``c`` is the class's bin cost at the bin delays ``delay`` and total bin
    masses ``bin_mass``.
    """
    total = float(m.sum())
    if total <= 0.0:
        return False
    n = m.size
    excess = c - c.min()
    # dT/dM = nu*T/M, the delay's rise per unit of bin mass; 0 at an empty bin
    delay_rise = np.divide(scenario.nu * delay, bin_mass, out=np.zeros(n), where=bin_mass > 0.0)
    # the cost the bin would shed if its whole class mass left, linearized
    relief = congestion_cost_map(model, scenario).slope(delay) * delay_rise * m
    order = excess.argsort(kind="stable")
    # from here to the scatter, every array is in sorted position order
    excess = excess[order]
    relief = relief[order]
    sorted_m = m[order]
    fraction = np.divide(excess, relief, out=np.ones(n), where=relief > excess)
    outflow = eta * sorted_m * fraction
    rise = excess[1:] - excess[:-1]
    weight_sum = np.empty(n)
    weight_sum[0] = 0.0
    (np.arange(1, n, dtype=float) * rise).cumsum(out=weight_sum[1:])
    senders = (weight_sum > 0.0) & (outflow > 0.0)
    if not senders.any():
        return False
    # a bin that sends nothing already has zero outflow (zero total
    # advantage means zero excess), so only the rate needs the mask
    rate = np.divide(outflow, weight_sum, out=np.zeros(n), where=senders)
    rate_above = rate[::-1].cumsum(out=rate[::-1])[::-1]
    inflow = np.empty(n)
    inflow[-1] = 0.0
    np.multiply(rate_above[1:], rise, out=rise)[::-1].cumsum(out=inflow[-2::-1])
    m[order] = sorted_m - outflow + inflow
    np.maximum(m, 0.0, out=m)
    # the rescale sums in bin order, as the masses are stored
    new_total = float(m.sum())
    if new_total > 0.0:
        m *= total / new_total
    return True


def gap_measure(assignment: BinAssignment, scenario: Scenario, costs: np.ndarray) -> GapReport:
    """Both gaps per class: mass-weighted relative, and over the used bins.

    The weighted gap ``sum m (c - c_min) / sum m c_min`` takes one dot
    product per class, ``m . c``; the used-bin gap is the spread between the
    costliest bin holding more than :data:`USED_MASS_FRACTION` of the class and
    the cheapest bin anywhere.  ``costs`` is the :func:`bin_costs` of
    ``assignment``.  An assignment holding no mass has an empty report.
    """
    masses = assignment.masses
    if not masses.any():
        return GapReport(gap={}, relative_gap={}, weighted_gap={})
    gaps: dict[VehicleClass, float] = {}
    rels: dict[VehicleClass, float] = {}
    weighted: dict[VehicleClass, float] = {}
    for row, cls in enumerate(CLASS_ORDER):
        population = scenario.population(cls)
        if population <= 0.0:
            continue
        m = masses[row]
        c = costs[row]
        c_min = float(c.min())
        used = m > USED_MASS_FRACTION * population
        if not used.any():
            used = m > 0.0
        gap = float(c[used].max()) - c_min
        gaps[cls] = gap
        floor = max(c_min, 1e-12)
        rels[cls] = gap / floor
        base = float(m.sum()) * floor
        weighted[cls] = (float(m.dot(c)) - base) / base
    return GapReport(gap=gaps, relative_gap=rels, weighted_gap=weighted)


def run_until_converged(
    scenario: Scenario,
    bin_width: float = DEFAULTS.bin_width,
    eta: float = DEFAULTS.eta,
    gap_tol: float = DEFAULTS.gap_tol,
    max_days: int = DEFAULTS.max_days,
) -> tuple[BinAssignment, GapReport]:
    """Iterate :func:`day_step` until every class's weighted gap drops below ``gap_tol``.

    The stop measure is :attr:`GapReport.worst_weighted_gap`, the largest
    per-class ``sum m (c - c_min) / sum m c_min``: the mean cost excess of a
    class over its cheapest bin, relative to that cost.  A bin's weight is its
    mass, so a nearly drained edge bin no longer holds the run open; the
    used-bin ``relative_gap`` rides along as a diagnostic.  The weighted gap
    is the smaller number at the same state: on the bundled corridor the
    default 3e-5 stops at mpr 0 after 24 days with a used-bin gap of 2.1e-5,
    and at mpr 0.5 after 110 days with one of 8.0e-4.

    Each day calls :func:`bin_costs`, :func:`gap_measure` and :func:`day_step`
    once.  The schedule penalty of the bin centers is computed once per grid,
    and the bin delays once per day; both go to :func:`bin_costs` and, with
    the costs, to :func:`day_step`.  Non-convergence within ``max_days`` is
    reported, not raised; the caller decides what an unconverged oracle
    means.  ``eta`` outside (0, 1] and a nonpositive ``gap_tol`` raise
    ``ValueError`` before any day runs.  An empty fleet runs the same loop:
    its empty start scores no class, so a zero gap and no crowded edge stop
    it before day 1, with ``stop_reason`` "empty".  Underflow in the days is
    flushed to zero whatever the caller's numpy error state, which is
    restored on return.
    """
    if gap_tol <= 0.0:
        raise ValueError("gap_tol must be positive")
    if not 0.0 < eta <= 1.0:
        raise ValueError("eta must lie in (0, 1]")
    assignment = init_assignment(scenario, bin_width)
    # both gaps per class per day, flat: 8 bytes a value, not a float object
    # in a list per day
    trace = array("d")

    def record(report: GapReport) -> None:
        trace.extend([report.relative_gap.get(cls, 0.0) for cls in CLASS_ORDER])
        trace.extend([report.weighted_gap.get(cls, 0.0) for cls in CLASS_ORDER])

    # a near-empty bin's b*T*T underflows, and zero is the right value; one
    # errstate for the whole run, since entering one costs about 3% of a day
    with np.errstate(under="ignore"):
        # each day's delays and costs are computed once: they score the day's
        # state and then drive the next day's first move
        schedule = schedule_delay(assignment.centers, scenario)
        delay = assignment.delays(scenario)
        costs = bin_costs(assignment, scenario, schedule, delay)
        report = gap_measure(assignment, scenario, costs)
        record(report)
        days = 0
        while days < max_days:
            # a too narrow initial spread can equalize costs inside a cramped
            # grid, so convergence is only accepted (and progress periodically
            # rechecked) with the support sitting clear of the grid edges
            if report.worst_weighted_gap < gap_tol or (days > 0 and days % 500 == 0):
                grow_lo, grow_hi = crowded_edges(assignment, scenario)
                if grow_lo or grow_hi:
                    assignment = extend_grid(assignment, grow_lo, grow_hi)
                    schedule = schedule_delay(assignment.centers, scenario)
                    delay = assignment.delays(scenario)
                    costs = bin_costs(assignment, scenario, schedule, delay)
                    report = gap_measure(assignment, scenario, costs)
                elif report.worst_weighted_gap < gap_tol:
                    break
            assignment = day_step(assignment, scenario, eta, costs, schedule, delay)
            days += 1
            delay = assignment.delays(scenario)
            costs = bin_costs(assignment, scenario, schedule, delay)
            report = gap_measure(assignment, scenario, costs)
            record(report)
    grow_lo, grow_hi = crowded_edges(assignment, scenario)
    converged = report.worst_weighted_gap < gap_tol and not (grow_lo or grow_hi)
    rows = np.array(trace).reshape(-1, 2, len(CLASS_ORDER))
    final = replace(
        report,
        converged=converged,
        days=days,
        stop_reason="empty" if not report.weighted_gap else "gap_tol" if converged else "max_days",
        trace=rows[:, 0],
        weighted_trace=rows[:, 1],
    )
    return assignment, final


def crowded_edges(assignment: BinAssignment, scenario: Scenario) -> tuple[bool, bool]:
    """Whether meaningful mass sits within 2 bins of either grid edge.

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
        used = np.nonzero(assignment.masses[row] > USED_MASS_FRACTION * population)[0]
        if used.size == 0:
            continue
        lo = lo or used[0] < 2
        hi = hi or used[-1] >= n - 2
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
    )
