"""Departure-time user-equilibrium solvers.

A user equilibrium is pinned down by two conditions: every commuter of a
class bears the same total trip cost over that class's active interval, and
each class's arrival flow integrates to its population.  Every solve here is
one band walk (:func:`_solve_bands`): the classes are stacked in bands of
delay from the window edge inward, each band ending at the scalar
conservation root (:func:`conservation_root`) of its population, started
where the band outside it ended; the class costs then follow from the
roots, inward to outward.  A single class is one band (K = 1).  Two classes
are two bands (K = 2, :func:`solve_mixed`): the gasoline vehicles hold the
window flanks and the electric vehicles the high-delay centre, with the
delay continuous at the class boundary.  That order is checked exactly
(:func:`_validate_no_deviation`): what a class would pay inside another's
band is quadratic in the delay, so its minimum is at a band edge or at the
vertex ``T_c``.

Along the early flank the schedule penalty falls linearly at rate beta, so
arrival time and residual cost are affine in each other and the two window
flanks collapse into a single integral `(1/beta + 1/gamma) * int q dr` over
the congestion-cost residual ``r``.  Every cost map is quadratic in the
delay, so substituting the delay for the residual makes that integral a
closed form in the delay (see :func:`_band_moments`): the masses are
exact, with no quadrature and no inversion, and each conservation root is
solved for the delay, whose cost then follows from the map.  Weighted by a
polynomial in the delay, the same closed form gives every rush-hour total of
a solution (its :class:`CostBreakdown`): travel time, energy, schedule delay
and, on an optimum, the toll revenue.

Every solved pattern is an :class:`EquilibriumSolution`.  The system optimum
(:class:`toll.SystemOptimum`) is one too: the one-band walk with Psi in
place of Phi, selected by the class attribute ``optimum``.  No solve samples
a grid.  Each segment carries the map its delays invert, so one rule
(:func:`_segment_delays`) picks the segment that owns each arrival time and
inverts that map there, for :func:`sample_profiles` and :func:`solution_delay`.

The root tolerance :data:`ROOT_RTOL` and the count check :data:`COUNT_RTOL`
are fixed: each root is a closed-form mass solved by Newton from above, so
a looser tolerance could only miss the count, and a tighter one moves no
printed digit or, below about 1e-16, asks for a step below one ulp.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import ScenarioError, SolverError
from .model import (
    CostMap,
    EnergyModel,
    Scenario,
    VehicleClass,
    congestion_cost_map,
    energy_cost,
    flow_from_delay,
    marginal_social_cost_map,
    schedule_delay,
    toll_at_delay,
)
from .numerics import DEFAULTS, solve_bracketed

#: Each conservation root stops once its last Newton step is within this share of the delay.
ROOT_RTOL = 1e-10

#: Largest miss allowed between a band's exact count and its population, as a share of the fleet.
COUNT_RTOL = 1e-8

#: Most rows a sampled profile may have; a finer ``dt`` is an input error.
MAX_GRID_ROWS = 1_000_000


@dataclass(frozen=True)
class ClassSegment:
    """One class's contiguous occupancy interval, its constant trip cost and
    the cost map its delays invert: Phi, or Psi on a system optimum."""

    vehicle_class: VehicleClass
    t_lo: float
    t_hi: float
    equilibrium_cost: float
    cost_map: CostMap


@dataclass(frozen=True)
class TimeProfile:
    """Solution curves sampled on a uniform arrival-time grid.

    ``active`` holds -1 outside the rush window and the VehicleClass index
    (0 = GV, 1 = EV) of the class arriving at that instant inside it.  Cost
    columns are the components borne by the active class; they are zero at
    inactive points.
    """

    times: np.ndarray
    dt: float
    delay: np.ndarray
    flow_total: np.ndarray
    flow_gv: np.ndarray
    flow_ev: np.ndarray
    cost_travel_time: np.ndarray
    cost_energy: np.ndarray
    cost_schedule: np.ndarray
    toll: np.ndarray
    cost_total: np.ndarray
    active: np.ndarray


@dataclass(frozen=True)
class CostBreakdown:
    """Rush-hour totals of the cost components ($), each an exact band integral.

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
class EquilibriumSolution:
    """A solved departure pattern: window, segments, costs, counts, totals, curves.

    ``optimum`` picks the cost map the bands are solved on: Phi for a user
    equilibrium, Psi for a system optimum (:class:`toll.SystemOptimum`).
    ``roots`` are the delays at the band edges, from 0 at the window edge to
    the peak at t*; band k holds the delays from ``roots[k]`` to
    ``roots[k + 1]`` and is ``segments[k]`` on the early flank.  ``costs``
    are the exact rush-hour totals; no grid is stored (see ``profile``).
    """

    optimum: ClassVar[bool] = False
    scenario: Scenario
    window: tuple[float, float]
    segments: tuple[ClassSegment, ...]
    class_costs: dict[VehicleClass, float]
    class_counts: dict[VehicleClass, float]
    roots: tuple[float, ...]
    costs: CostBreakdown

    @property
    def is_empty(self) -> bool:
        return not self.segments

    @property
    def duration(self) -> float:
        return self.window[1] - self.window[0]

    @property
    def max_delay(self) -> float:
        """The peak delay, at t*: the innermost band's conservation root (0 with no commuter)."""
        return self.roots[-1]

    @property
    def peak_flow(self) -> float:
        """The arrival flow at the peak delay (veh/h)."""
        return float(flow_from_delay(self.max_delay, self.scenario))

    @property
    def profile(self) -> TimeProfile:
        """`sample_profiles(self, DEFAULTS.dt)`, sampled afresh on each read."""
        return sample_profiles(self, DEFAULTS.dt)


def _window_grid(t_star: float, window: tuple[float, float], dt: float) -> np.ndarray:
    """Uniform grid with ``t_star`` on it, spanning the window plus 2*dt.  A ``dt``
    that is not positive and finite, or that needs more than :data:`MAX_GRID_ROWS`
    rows, raises :class:`ScenarioError` (a ValueError) before a row is built."""
    if not 0.0 < dt < math.inf:  # NaN fails both comparisons
        raise ScenarioError(f"dt must be positive and finite, got {dt}")
    t0, t1 = window
    if not (t1 - t0) / dt + 7.0 <= MAX_GRID_ROWS:  # at most that many rows; inf fails too
        raise ScenarioError(f"dt = {dt:g} h samples the window on more than {MAX_GRID_ROWS} rows")
    k_lo = int(math.ceil((t_star - t0) / dt - 1e-12)) + 2
    k_hi = int(math.ceil((t1 - t_star) / dt - 1e-12)) + 2
    return t_star + dt * np.arange(-k_lo, k_hi + 1, dtype=float)


def _mass_scale(scenario: Scenario) -> float:
    """`K * R * m**-p` with K = 1/beta + 1/gamma and p = 1/nu."""
    k = 1.0 / scenario.beta + 1.0 / scenario.gamma
    return k * scenario.capacity_r * scenario.trip_km ** (-1.0 / scenario.nu)


def _antiderivative(cmap: CostMap, p: float, delay: float, j: int) -> float:
    """`F_j(T) = a * T**(j+1+p) / (j+1+p) + 2*b * T**(j+2+p) / (j+2+p)`, an antiderivative
    of `T**j * T**p * cmap.slope(T)`."""
    return delay ** (j + 1.0 + p) * (cmap.a / (j + 1.0 + p) + 2.0 * cmap.b * delay / (j + 2.0 + p))


def _band_moments(
    scenario: Scenario, cmap: CostMap, t_lo: float, t_hi: float, count: int
) -> list[float]:
    """`K * int T**j q dr` over both flanks of a band, for j < ``count``.

    The rush-hour total of a per-commuter amount ``g(T) = sum_j g_j * T**j``
    borne at delay T is ``sum_j g_j`` times moment j.  K = 1/beta + 1/gamma,
    the arrival flow is ``q = R * (T/m)**p`` (p = 1/nu) and the cost residual
    ``r = cmap(T)`` runs from ``cmap(t_lo)`` to ``cmap(t_hi)``.  Along a flank
    the schedule penalty, and so the arrival time, is affine in ``r``; with
    dr = cmap.slope(T) dT moment j is exactly `K * R * m**-p * [F_j(t_hi) - F_j(t_lo)]`.
    """
    p = 1.0 / scenario.nu
    scale = _mass_scale(scenario)
    return [
        scale * (_antiderivative(cmap, p, t_hi, j) - _antiderivative(cmap, p, t_lo, j))
        for j in range(count)
    ]


def window_mass(scenario: Scenario, cmap: CostMap, t_hi: float, t_lo: float) -> float:
    """Commuters absorbed while the delay climbs from ``t_lo`` to ``t_hi``:
    moment 0 of :func:`_band_moments`, `K * R * m**-p * [F_0(t_hi) - F_0(t_lo)]`."""
    if t_hi <= t_lo:
        return 0.0
    return _band_moments(scenario, cmap, t_lo, t_hi, 1)[0]


def conservation_root(
    scenario: Scenario,
    cmap: CostMap,
    population: float,
    t_lo: float,
) -> float:
    """Delay ``T`` whose window ``[t_lo, T]`` absorbs ``population`` >= 0 (``t_lo`` for 0).

    The mass ``M(T) = window_mass(scenario, cmap, T, t_lo)`` is increasing
    and convex with the exact slope `K * R * m**-p * T**p * cmap.slope(T)`.
    Each term of ``F_0`` alone is a lower bound on ``F_0``, so the smaller of
    `((1+p) * F* / a)**(1/(1+p))` and `((2+p) * F* / (2*b))**(1/(2+p))`, with
    `F* = F_0(t_lo) + population / (K * R * m**-p)`, lies above the root; a
    relative pad keeps it there under rounding (with b = 0 the first bound is
    the root itself).  Newton from that bound descends monotonically onto
    the root (:func:`solve_bracketed`) until its last step is within
    :data:`ROOT_RTOL` of the delay.  Every equilibrium and optimum cost here is
    ``cmap`` at such a root.
    """
    p = 1.0 / scenario.nu
    scale = _mass_scale(scenario)
    target = _antiderivative(cmap, p, t_lo, 0) + population / scale
    hi = ((1.0 + p) * target / cmap.a) ** (1.0 / (1.0 + p))
    if cmap.b > 0.0:
        hi = min(hi, ((2.0 + p) * target / (2.0 * cmap.b)) ** (1.0 / (2.0 + p)))

    def conservation(delay: float) -> tuple[float, float]:
        slope = scale * delay**p * cmap.slope(delay)
        return window_mass(scenario, cmap, delay, t_lo) - population, slope

    return solve_bracketed(conservation, t_lo, hi * (1.0 + 1e-9), rtol=ROOT_RTOL)


def _solve_bands(
    scenario: Scenario,
    bands: tuple[tuple[EnergyModel, float], ...],
    kind: type[EquilibriumSolution],
) -> EquilibriumSolution:
    """The fleet as bands of delay ``((model, population), ...)``, listed from
    the window edge inward, built as a ``kind`` on Psi if ``kind.optimum``, else Phi.

    Roots run outward to inward: band k holds the delays from ``T_{k-1}``
    (``T_{-1} = 0``) up to its conservation root ``T_k``.  Costs run inward to
    outward from ``s_K = 0`` at t*: ``C_k = map_k(T_k) + s_{k+1}``, and the
    schedule penalty at band k's outer edge is ``s_k = C_k - map_k(T_{k-1})``,
    so the window edge is at ``s_0 = C_0``.  The innermost band is one centre
    segment and every other band two flanks, 2K - 1 segments.  Each adjacent
    pair is checked exactly for profitable deviations, at the band edges and
    the vertex ``T_c`` (:func:`_validate_no_deviation`), and each band's
    exact count must match its population to ``COUNT_RTOL * n_total``.  An
    empty fleet has no segment.  Every model must be the scenario's own, as
    the sampler looks models up by class.
    """
    if scenario.n_total == 0.0:
        window = (scenario.t_star, scenario.t_star)
        return kind(scenario, window, (), {}, {}, (0.0,), CostBreakdown(0.0, 0.0, 0.0, 0.0))
    if any(model != scenario.energy_model(model.vehicle_class) for model, _ in bands):
        raise ValueError("model must be the scenario's energy model of its class")
    pick = marginal_social_cost_map if kind.optimum else congestion_cost_map
    classes = [model.vehicle_class for model, _ in bands]
    maps = [pick(model, scenario) for model, _ in bands]
    populations = tuple(population for _, population in bands)
    roots = [0.0]  # the delay at each band's outer edge, then the peak
    for cmap, population in zip(maps, populations):
        roots.append(conservation_root(scenario, cmap, population, roots[-1]))
    costs = [0.0] * len(bands)
    levels = [0.0] * (len(bands) + 1)  # the schedule penalty at each band's outer edge, then t*
    for k in reversed(range(len(bands))):
        costs[k] = maps[k](roots[k + 1]) + levels[k + 1]
        levels[k] = costs[k] - maps[k](roots[k])
    _validate_no_deviation(tuple(zip(classes, maps, costs)), roots)
    counts = tuple(
        window_mass(scenario, cmap, t_hi, t_lo) for cmap, t_lo, t_hi in zip(maps, roots, roots[1:])
    )
    miss = max(abs(count - pop) for count, pop in zip(counts, populations))
    if miss > COUNT_RTOL * scenario.n_total:
        what = ("mixed" if len(bands) > 1 else "single-class") + " equilibrium"
        raise SolverError(
            f"{'system optimum' if kind.optimum else what} misses per-class conservation",
            diagnostics={
                "mpr": scenario.mpr,
                "costs": tuple(costs),
                "counts": counts,
                "populations": populations,
                "count_rtol": COUNT_RTOL,
            },
        )

    edges = [scenario.t_star - s / scenario.beta for s in levels[:-1]]
    edges += [scenario.t_star + s / scenario.gamma for s in reversed(levels[:-1])]
    order = [*range(len(bands)), *reversed(range(len(bands) - 1))]  # each segment's band
    segments = tuple(
        ClassSegment(classes[k], t_lo, t_hi, costs[k], maps[k])
        for k, t_lo, t_hi in zip(order, edges, edges[1:])
    )
    window = (edges[0], edges[-1])
    totals = [0.0] * 4  # travel time, energy, schedule delay, toll revenue
    for k, ((model, _), cmap, cost, count) in enumerate(zip(bands, maps, costs, counts)):
        # at delay T on band k: alpha*T, c1*T + c2*T**2, C_k - map_k(T), and nu*T*Phi'(T) on Psi
        _, t1, t2 = _band_moments(scenario, cmap, roots[k], roots[k + 1], 3)
        totals[0] += scenario.alpha * t1
        totals[1] += model.c1 * t1 + model.c2 * t2
        totals[2] += cost * count - (cmap.a * t1 + cmap.b * t2)
        if kind.optimum:
            totals[3] += scenario.nu * ((scenario.alpha + model.c1) * t1 + 2.0 * model.c2 * t2)
    return kind(
        scenario,
        window,
        segments,
        dict(zip(classes, costs)),
        dict(zip(classes, counts)),
        tuple(roots),
        CostBreakdown(*totals),
    )


def solve_single_class(scenario: Scenario, model: EnergyModel) -> EquilibriumSolution:
    """Equilibrium when the whole fleet is one vehicle class.

    One band on the congestion cost map Phi (see :func:`_solve_bands`): the
    delay follows the isocost curve ``T(t) = Phi^{-1}(C - schedule_delay(t))``
    and C = Phi(T_peak), with the peak delay the fleet's conservation root.
    """
    bands = ((model, scenario.n_total),)
    return _solve_bands(scenario, bands, EquilibriumSolution)


def solve_mixed(scenario: Scenario) -> EquilibriumSolution:
    """Two-class equilibrium at the scenario's EV market penetration.

    Two bands on Phi (see :func:`_solve_bands`), or at mpr 0 or 1 the one
    band of the single-class equilibrium.  The GV flanks hold the delays up
    to ``T_x``, the GV root of the GV population; delay is continuous at the
    class boundary, so the EV centre holds the delays from ``T_x`` up to the
    EV root ``T_ev``.  Then ``C_EV = Phi_EV(T_ev)``, the boundary schedule
    penalty is ``s* = C_EV - Phi_EV(T_x)`` and ``C_GV = Phi_GV(T_x) + s*``.
    """
    bands = tuple(
        (scenario.energy_model(cls), scenario.population(cls))
        for cls, share in ((VehicleClass.GV, 1.0 - scenario.mpr), (VehicleClass.EV, scenario.mpr))
        if share > 0.0
    )
    return _solve_bands(scenario, bands, EquilibriumSolution)


def _validate_no_deviation(
    bands: tuple[tuple[VehicleClass, CostMap, float], ...], roots: Sequence[float]
) -> None:
    """Assert no class can undercut its cost inside an adjacent class's band.

    ``bands`` are ``(vehicle_class, cmap, cost)`` from the window edge
    inward, and band k holds the delays from ``roots[k]`` to ``roots[k + 1]``.
    At delay T in band k the schedule penalty is ``C_k - map_k(T)``, so a
    commuter of class j arriving there would pay ``(map_j - map_k)(T) + C_k``:
    a quadratic in T, whose minimum over the band is at an edge or at the
    vertex ``T_c = -da / (2*db)`` (with ``da, db`` the coefficient
    differences) when ``db > 0`` and ``T_c`` lies inside.  That minimum is
    checked exactly, the outer class of each adjacent pair first, so the band
    order, an assumption of the construction, becomes a verified property.
    The innermost band is the one centre segment.
    """
    for k in range(len(bands) - 1):
        for band, (intruder, intruder_map, intruder_cost) in ((k + 1, bands[k]), (k, bands[k + 1])):
            cls, cmap, cost = bands[band]
            t_lo, t_hi = roots[band], roots[band + 1]
            da, db = intruder_map.a - cmap.a, intruder_map.b - cmap.b
            delays = [t_lo, t_hi]
            if db > 0.0 and t_lo < -da / (2.0 * db) < t_hi:
                delays.append(-da / (2.0 * db))
            min_cost, delay = min((cost + da * t + db * t * t, t) for t in delays)
            if min_cost < intruder_cost - 1e-9 * intruder_cost:
                who = ("an " if intruder is VehicleClass.EV else "a ") + intruder.name
                where = ("the " if band == len(bands) - 1 else "a ") + cls.name
                raise SolverError(
                    f"mixed topology invalid: {who} commuter could profit inside {where} segment",
                    diagnostics={
                        "min_cost": min_cost,
                        f"cost_{intruder.value}": intruder_cost,
                        "delay_at_min": delay,
                    },
                )


def _segment_delays(
    scenario: Scenario, segments: tuple[ClassSegment, ...], times: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Owning segment, schedule penalty and delay at each arrival time.

    The segments are contiguous and in time order.  A time belongs to the
    first segment that holds it to within ``1e-12 * max(1, |t1|)``, with
    ``t1`` the window end, so a shared edge belongs to the earlier segment; a
    time no segment holds has owner -1 and delay 0.  On a segment's isocost
    curve the delay is the segment's cost map inverted at ``C - sd``, clipped
    at zero where the penalty alone exceeds the cost.
    """
    sd = schedule_delay(times, scenario)
    delay = np.zeros_like(times)
    if not segments:
        return np.full(times.shape, -1), sd, delay
    tiny = 1e-12 * max(1.0, abs(segments[-1].t_hi))
    owner = np.searchsorted([seg.t_hi + tiny for seg in segments], times)
    owner = np.where((owner == len(segments)) | (times < segments[0].t_lo - tiny), -1, owner)
    for k, seg in enumerate(segments):
        mask = owner == k
        delay[mask] = seg.cost_map.invert(np.maximum(seg.equilibrium_cost - sd[mask], 0.0))
    return owner, sd, delay


def _sample(
    scenario: Scenario,
    window: tuple[float, float],
    segments: tuple[ClassSegment, ...],
    dt: float,
    optimum: bool,
) -> TimeProfile:
    """Evaluate the solution curves on a uniform grid spanning the window.

    The grid is anchored so the preferred arrival time (where delay and flow
    peak) is a grid point; it starts at least two steps before the window and
    ends at least two steps after it, and delay and flows are identically
    zero outside the window (everywhere, with no segments).  The delay
    inverts each segment's own map; with ``optimum`` (segments on Psi) the
    toll column carries the charge ``tau = Psi - Phi``.
    """
    times = _window_grid(scenario.t_star, window, dt)
    owner, sd, delay = _segment_delays(scenario, segments, times)
    flow_gv = np.zeros_like(times)
    flow_ev = np.zeros_like(times)
    cost_en = np.zeros_like(times)
    toll = np.zeros_like(times)
    active = np.full(times.shape, -1, dtype=np.int8)
    for k, seg in enumerate(segments):
        mask = owner == k
        model = scenario.energy_model(seg.vehicle_class)
        seg_delay = delay[mask]
        gv = seg.vehicle_class is VehicleClass.GV
        flow = flow_gv if gv else flow_ev
        flow[mask] = flow_from_delay(seg_delay, scenario)
        cost_en[mask] = energy_cost(model, seg_delay)
        if optimum:
            toll[mask] = toll_at_delay(model, scenario, seg_delay)
        active[mask] = 0 if gv else 1
    cost_tt = scenario.alpha * delay
    cost_sd = np.where(owner >= 0, sd, 0.0)

    total = cost_tt + cost_en + cost_sd + toll
    return TimeProfile(
        times=times,
        dt=dt,
        delay=delay,
        flow_total=flow_gv + flow_ev,
        flow_gv=flow_gv,
        flow_ev=flow_ev,
        cost_travel_time=cost_tt,
        cost_energy=cost_en,
        cost_schedule=cost_sd,
        toll=toll,
        cost_total=total,
        active=active,
    )


def sample_profiles(solution: EquilibriumSolution, dt: float) -> TimeProfile:
    """Sample a solved pattern (equilibrium or optimum) on a uniform grid with
    spacing ``dt`` hours.  A ``dt`` that is not positive and finite, or too
    fine for :data:`MAX_GRID_ROWS` rows, raises :class:`ScenarioError` (a
    ValueError)."""
    return _sample(solution.scenario, solution.window, solution.segments, dt, solution.optimum)


def solution_delay(solution: EquilibriumSolution, times: np.ndarray) -> np.ndarray:
    """Exact delay of a solved pattern at arbitrary arrival times (0 outside the window)."""
    times = np.asarray(times, dtype=float)
    return _segment_delays(solution.scenario, solution.segments, times)[2]
