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
delay continuous at the class boundary.

Along the early flank the schedule penalty falls linearly at rate beta, so
arrival time and residual cost are affine in each other and the two window
flanks collapse into a single integral `(1/beta + 1/gamma) * int q dr` over
the congestion-cost residual ``r``.  Every cost map is quadratic in the
delay, so substituting the delay for the residual makes that integral a
closed form in the delay (see :func:`window_mass`): the masses are exact,
with no quadrature and no inversion, and each conservation root is solved
for the delay, whose cost then follows from the map.

Every solved pattern is an :class:`EquilibriumSolution`.  The system optimum
(:class:`toll.SystemOptimum`) is one too: the one-band walk with Psi in
place of Phi, selected by the class attribute ``optimum``.  One rule
(:func:`_segment_delays`) picks the segment that owns each arrival time and
inverts its map there, for the solver's profile, for :func:`sample_profiles`
and for :func:`solution_delay`, on either map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import SolverError
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

DEFAULT_DT = DEFAULTS.dt

#: Schedule-penalty levels per band that :func:`_validate_no_deviation` sweeps.
DEVIATION_LEVELS = 257


@dataclass(frozen=True)
class ClassSegment:
    """One class's contiguous occupancy interval and its constant trip cost."""

    vehicle_class: VehicleClass
    t_lo: float
    t_hi: float
    equilibrium_cost: float


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
    window: tuple[float, float]
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
class EquilibriumSolution:
    """A solved departure pattern: window, segments, costs, counts, curves.

    ``optimum`` picks the cost map the segments' delays invert: Phi for a
    user equilibrium, Psi for a system optimum (:class:`toll.SystemOptimum`).
    """

    optimum: ClassVar[bool] = False
    scenario: Scenario
    window: tuple[float, float]
    segments: tuple[ClassSegment, ...]
    class_costs: dict[VehicleClass, float]
    class_counts: dict[VehicleClass, float]
    profile: TimeProfile

    @property
    def is_empty(self) -> bool:
        return not self.segments

    @property
    def duration(self) -> float:
        return self.window[1] - self.window[0]

    @property
    def max_delay(self) -> float:
        return float(np.max(self.profile.delay)) if self.profile.delay.size else 0.0


def _class_index(cls: VehicleClass) -> int:
    return 0 if cls is VehicleClass.GV else 1


def _window_grid(t_star: float, window: tuple[float, float], dt: float) -> np.ndarray:
    """Uniform grid with ``t_star`` on it, spanning the window plus 2*dt."""
    t0, t1 = window
    k_lo = int(math.ceil((t_star - t0) / dt - 1e-12)) + 2
    k_hi = int(math.ceil((t1 - t_star) / dt - 1e-12)) + 2
    return t_star + dt * np.arange(-k_lo, k_hi + 1, dtype=float)


def _mass_scale(scenario: Scenario) -> float:
    """`K * R * m**-p` with K = 1/beta + 1/gamma and p = 1/nu."""
    k = 1.0 / scenario.beta + 1.0 / scenario.gamma
    return k * scenario.capacity_r * scenario.trip_km ** (-1.0 / scenario.nu)


def _antiderivative(cmap: CostMap, p: float, delay: float) -> float:
    """`F(T) = a * T**(1+p) / (1+p) + 2*b * T**(2+p) / (2+p)`."""
    return delay ** (1.0 + p) * (cmap.a / (1.0 + p) + 2.0 * cmap.b * delay / (2.0 + p))


def window_mass(scenario: Scenario, cmap: CostMap, t_hi: float, t_lo: float) -> float:
    """Commuters absorbed while the delay climbs from ``t_lo`` to ``t_hi``.

    Equals `K * int q dr` with K = 1/beta + 1/gamma over the cost residual
    ``r = cmap(T)`` from ``cmap(t_lo)`` to ``cmap(t_hi)``, where the arrival
    flow is ``q = R * (T/m)**p``, p = 1/nu.  With dr = (a + 2*b*T) dT this
    is exactly `K * R * m**-p * [F(t_hi) - F(t_lo)]`, where
    `F(T) = a * T**(1+p) / (1+p) + 2*b * T**(2+p) / (2+p)`.
    """
    if t_hi <= t_lo:
        return 0.0
    p = 1.0 / scenario.nu
    return _mass_scale(scenario) * (
        _antiderivative(cmap, p, t_hi) - _antiderivative(cmap, p, t_lo)
    )


def conservation_root(
    scenario: Scenario,
    cmap: CostMap,
    population: float,
    root_rtol: float,
    t_lo: float,
) -> float:
    """Delay ``T`` whose window ``[t_lo, T]`` absorbs ``population`` > 0.

    The mass ``M(T) = window_mass(scenario, cmap, T, t_lo)`` is increasing
    and convex with the exact slope `K * R * m**-p * T**p * (a + 2*b*T)`.
    Each term of ``F`` alone is a lower bound on ``F``, so the smaller of
    `((1+p) * F* / a)**(1/(1+p))` and `((2+p) * F* / (2*b))**(1/(2+p))`, with
    `F* = F(t_lo) + population / (K * R * m**-p)`, lies above the root; a
    relative pad keeps it there under rounding (with b = 0 the first bound is
    the root itself).  Newton from that bound descends monotonically onto
    the root (:func:`solve_bracketed`) until its last step is within
    ``root_rtol`` of the delay.  Every equilibrium and optimum cost here is
    ``cmap`` at such a root.
    """
    p = 1.0 / scenario.nu
    scale = _mass_scale(scenario)
    a, b = cmap.a, cmap.b
    target = _antiderivative(cmap, p, t_lo) + population / scale
    hi = ((1.0 + p) * target / a) ** (1.0 / (1.0 + p))
    if b > 0.0:
        hi = min(hi, ((2.0 + p) * target / (2.0 * b)) ** (1.0 / (2.0 + p)))

    def conservation(delay: float) -> tuple[float, float]:
        slope = scale * delay**p * (a + 2.0 * b * delay)
        return window_mass(scenario, cmap, delay, t_lo) - population, slope

    return solve_bracketed(conservation, t_lo, hi * (1.0 + 1e-9), rtol=root_rtol)


def _solve_bands(
    scenario: Scenario,
    bands: tuple[tuple[EnergyModel, float], ...],
    dt: float,
    root_rtol: float,
    mixed_rtol: float,
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
    pair is checked for profitable deviations, and each band's exact count
    must match its population to ``mixed_rtol * n_total``.  An empty fleet has
    no segment.  Every model must be the scenario's own, as the sampler looks
    models up by class.
    """
    if scenario.n_total == 0.0:
        window = (scenario.t_star, scenario.t_star)
        return kind(scenario, window, (), {}, {}, _sample(scenario, window, (), dt, kind.optimum))
    if any(model != scenario.energy_model(model.vehicle_class) for model, _ in bands):
        raise ValueError("model must be the scenario's energy model of its class")
    pick = marginal_social_cost_map if kind.optimum else congestion_cost_map
    classes = [model.vehicle_class for model, _ in bands]
    maps = [pick(model, scenario) for model, _ in bands]
    populations = tuple(population for _, population in bands)
    roots = [0.0]  # the delay at each band's outer edge, then the peak
    for cmap, population in zip(maps, populations):
        roots.append(conservation_root(scenario, cmap, population, root_rtol, roots[-1]))
    costs = [0.0] * len(bands)
    levels = [0.0] * (len(bands) + 1)  # the schedule penalty at each band's outer edge, then t*
    for k in reversed(range(len(bands))):
        costs[k] = maps[k](roots[k + 1]) + levels[k + 1]
        levels[k] = costs[k] - maps[k](roots[k])
    for k in range(len(bands) - 1):
        _validate_no_deviation(
            (classes[k], maps[k], costs[k], (levels[k + 1], levels[k])),
            (classes[k + 1], maps[k + 1], costs[k + 1], (levels[k + 2], levels[k + 1])),
        )
    counts = tuple(
        window_mass(scenario, cmap, t_hi, t_lo) for cmap, t_lo, t_hi in zip(maps, roots, roots[1:])
    )
    miss = max(abs(count - pop) for count, pop in zip(counts, populations))
    if miss > mixed_rtol * scenario.n_total:
        what = ("mixed" if len(bands) > 1 else "single-class") + " equilibrium"
        raise SolverError(
            f"{'system optimum' if kind.optimum else what} misses per-class conservation",
            diagnostics={
                "mpr": scenario.mpr,
                "costs": tuple(costs),
                "counts": counts,
                "populations": populations,
                "mixed_rtol": mixed_rtol,
            },
        )

    edges = [scenario.t_star - s / scenario.beta for s in levels[:-1]]
    edges += [scenario.t_star + s / scenario.gamma for s in reversed(levels[:-1])]
    order = [*range(len(bands)), *reversed(range(len(bands) - 1))]  # each segment's band
    segments = tuple(
        ClassSegment(classes[k], t_lo, t_hi, costs[k])
        for k, t_lo, t_hi in zip(order, edges, edges[1:])
    )
    window = (edges[0], edges[-1])
    profile = _sample(scenario, window, segments, dt, kind.optimum)
    return kind(
        scenario, window, segments, dict(zip(classes, costs)), dict(zip(classes, counts)), profile
    )


def solve_single_class(
    scenario: Scenario,
    model: EnergyModel,
    dt: float = DEFAULT_DT,
    root_rtol: float = DEFAULTS.root_rtol,
    mixed_rtol: float = DEFAULTS.mixed_rtol,
) -> EquilibriumSolution:
    """Equilibrium when the whole fleet is one vehicle class.

    One band on the congestion cost map Phi (see :func:`_solve_bands`): the
    delay follows the isocost curve ``T(t) = Phi^{-1}(C - schedule_delay(t))``
    and C = Phi(T_peak), with the peak delay the fleet's conservation root.
    """
    bands = ((model, scenario.n_total),)
    return _solve_bands(scenario, bands, dt, root_rtol, mixed_rtol, EquilibriumSolution)


def solve_mixed(
    scenario: Scenario,
    dt: float = DEFAULT_DT,
    root_rtol: float = DEFAULTS.root_rtol,
    mixed_rtol: float = DEFAULTS.mixed_rtol,
) -> EquilibriumSolution:
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
    return _solve_bands(scenario, bands, dt, root_rtol, mixed_rtol, EquilibriumSolution)


def _validate_no_deviation(
    outer: tuple[VehicleClass, CostMap, float, tuple[float, float]],
    inner: tuple[VehicleClass, CostMap, float, tuple[float, float]],
) -> None:
    """Assert neither of two adjacent bands' classes can undercut its cost in the other's band.

    A band is ``(vehicle_class, cmap, cost, (s_in, s_out))``, with the schedule
    penalty at its inner and outer edge.  The band order is an assumption of
    the construction; this check turns it into a verified property.  Both
    flanks of a band run over the same penalty levels, so the check sweeps
    :data:`DEVIATION_LEVELS` levels, not clock times.  The band reaching t*
    (``s_in = 0``) is the one centre segment.
    """
    for (cls, cmap, cost, levels), (intruder, intruder_map, intruder_cost, _) in (
        (inner, outer),
        (outer, inner),
    ):
        sd = np.linspace(*levels, DEVIATION_LEVELS)
        tempted = intruder_map(cmap.invert(np.maximum(cost - sd, 0.0))) + sd
        if np.any(tempted < intruder_cost - 1e-9 * intruder_cost):
            who = ("an " if intruder is VehicleClass.EV else "a ") + intruder.name
            where = ("the " if levels[0] == 0.0 else "a ") + cls.name
            raise SolverError(
                f"mixed topology invalid: {who} commuter could profit inside {where} segment",
                diagnostics={
                    "min_cost": float(np.min(tempted)),
                    f"cost_{intruder.value}": intruder_cost,
                },
            )


def _segment_delays(
    scenario: Scenario, segments: tuple[ClassSegment, ...], times: np.ndarray, optimum: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Owning segment, schedule penalty and delay at each arrival time.

    The segments are contiguous and in time order.  A time belongs to the
    first segment that holds it to within ``1e-12 * max(1, |t1|)``, with
    ``t1`` the window end, so a shared edge belongs to the earlier segment; a
    time no segment holds has owner -1 and delay 0.  On a segment's isocost curve the delay is its class's cost map
    (Psi with ``optimum``, else Phi) inverted at ``C - sd``, clipped at zero
    where the penalty alone exceeds the cost.
    """
    sd = schedule_delay(times, scenario)
    delay = np.zeros_like(times)
    if not segments:
        return np.full(times.shape, -1), sd, delay
    tiny = 1e-12 * max(1.0, abs(segments[-1].t_hi))
    owner = np.searchsorted([seg.t_hi + tiny for seg in segments], times)
    owner = np.where((owner == len(segments)) | (times < segments[0].t_lo - tiny), -1, owner)
    pick = marginal_social_cost_map if optimum else congestion_cost_map
    for k, seg in enumerate(segments):
        mask = owner == k
        cmap = pick(scenario.energy_model(seg.vehicle_class), scenario)
        delay[mask] = cmap.invert(np.maximum(seg.equilibrium_cost - sd[mask], 0.0))
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
    zero outside the window (everywhere, with no segments).  With ``optimum``
    the segments are system-optimum ones: the delay inverts the marginal social
    cost Psi, not Phi, and the toll column carries the charge ``tau = Psi - Phi``.
    """
    if not 0.0 < dt < math.inf:  # NaN fails both comparisons
        raise ValueError(f"dt must be positive and finite, got {dt}")
    times = _window_grid(scenario.t_star, window, dt)
    owner, sd, delay = _segment_delays(scenario, segments, times, optimum)
    flow_gv = np.zeros_like(times)
    flow_ev = np.zeros_like(times)
    cost_en = np.zeros_like(times)
    toll = np.zeros_like(times)
    active = np.full(times.shape, -1, dtype=np.int8)
    for k, seg in enumerate(segments):
        mask = owner == k
        model = scenario.energy_model(seg.vehicle_class)
        seg_delay = delay[mask]
        flow = flow_gv if seg.vehicle_class is VehicleClass.GV else flow_ev
        flow[mask] = flow_from_delay(seg_delay, scenario)
        cost_en[mask] = energy_cost(model, seg_delay)
        if optimum:
            toll[mask] = toll_at_delay(model, scenario, seg_delay)
        active[mask] = _class_index(seg.vehicle_class)
    cost_tt = scenario.alpha * delay
    cost_sd = np.where(owner >= 0, sd, 0.0)

    total = cost_tt + cost_en + cost_sd + toll
    return TimeProfile(
        times=times,
        dt=dt,
        window=window,
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
    """Resample a solved pattern (equilibrium or optimum) onto a uniform grid
    with spacing ``dt`` hours; at the solve's own ``dt`` it is the solution's
    profile.  A ``dt`` that is not positive and finite raises ValueError, here
    and in every solve."""
    return _sample(solution.scenario, solution.window, solution.segments, dt, solution.optimum)


def solution_delay(solution: EquilibriumSolution, times: np.ndarray) -> np.ndarray:
    """Exact delay of a solved pattern at arbitrary arrival times (0 outside the window)."""
    times = np.asarray(times, dtype=float)
    return _segment_delays(solution.scenario, solution.segments, times, solution.optimum)[2]
