"""Departure-time user-equilibrium solvers.

A user equilibrium is pinned down by two conditions: every commuter of a
class bears the same total trip cost over that class's active interval, and
each class's arrival flow integrates to its population.  For a single class
this reduces to a scalar root-find on the equilibrium cost.  With two classes
sharing the road the gasoline vehicles occupy the window flanks and the
electric vehicles the high-delay center; delay continuity at the class
boundary decouples the pair of class costs into two such scalar roots, one
per class (see :func:`solve_mixed`), all through :func:`conservation_root`.

Along the early flank the schedule penalty falls linearly at rate beta, so
arrival time and residual cost are affine in each other and the two window
flanks collapse into a single integral `(1/beta + 1/gamma) * int q dr` over
the congestion-cost residual ``r``.  Every cost map is quadratic in the
delay, so substituting the delay for the residual makes that integral a
closed form in the delay (see :func:`window_mass`): the masses are exact,
with no quadrature and no inversion, and each conservation root is solved
for the delay, whose cost then follows from the map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SolverError
from .model import (
    CostMap,
    EnergyModel,
    Scenario,
    VehicleClass,
    congestion_cost,
    congestion_cost_map,
    flow_from_delay,
    invert_congestion_cost,
    marginal_social_cost_map,
    schedule_delay,
    toll_at_delay,
)
from .numerics import solve_bracketed

DEFAULT_DT = 1.0 / 60.0


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

    def class_flow(self, cls: VehicleClass) -> np.ndarray:
        return self.flow_gv if cls is VehicleClass.GV else self.flow_ev

    def active_mask(self, cls: VehicleClass) -> np.ndarray:
        return self.active == _class_index(cls)


@dataclass(frozen=True)
class EquilibriumSolution:
    """A solved departure pattern: window, segments, costs, counts, curves."""

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


def window_mass(scenario: Scenario, cmap: CostMap, t_hi: float, t_lo: float = 0.0) -> float:
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
    t_lo: float = 0.0,
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


def _check_conservation(
    scenario: Scenario,
    what: str,
    costs: tuple[float, ...],
    counts: tuple[float, ...],
    populations: tuple[float, ...],
    mixed_rtol: float,
) -> None:
    """Raise unless every class's count is within ``mixed_rtol * n_total`` of its population."""
    miss = max(abs(count - pop) for count, pop in zip(counts, populations))
    if miss > mixed_rtol * scenario.n_total:
        raise SolverError(
            f"{what} misses per-class conservation",
            diagnostics={
                "mpr": scenario.mpr,
                "costs": costs,
                "counts": counts,
                "populations": populations,
                "mixed_rtol": mixed_rtol,
            },
        )


def _solve_segment(
    scenario: Scenario,
    model: EnergyModel,
    dt: float,
    root_rtol: float,
    mixed_rtol: float,
    optimum: bool = False,
) -> tuple[ClassSegment, float, TimeProfile]:
    """The whole fleet as one segment of ``model``'s class: segment, count, profile.

    Phi gives the single-class user equilibrium, Psi (``optimum``) the system
    optimum.  The peak delay is the conservation root for ``n_total``, the
    cost C is the map at that delay, the window [t* - C/beta, t* + C/gamma]
    has zero delay at both edges, and the exact count must match the fleet to
    ``mixed_rtol * n_total``.  ``model`` must be
    the scenario's own, as the sampler looks models up by class.
    """
    if model != scenario.energy_model(model.vehicle_class):
        raise ValueError("model must be the scenario's energy model of its class")
    cmap = (marginal_social_cost_map if optimum else congestion_cost_map)(model, scenario)
    what = "system optimum" if optimum else "single-class equilibrium"
    peak_delay = conservation_root(scenario, cmap, scenario.n_total, root_rtol)
    cost = cmap(peak_delay)
    count = window_mass(scenario, cmap, peak_delay)
    _check_conservation(scenario, what, (cost,), (count,), (scenario.n_total,), mixed_rtol)
    window = (scenario.t_star - cost / scenario.beta, scenario.t_star + cost / scenario.gamma)
    segment = ClassSegment(model.vehicle_class, *window, cost)
    return segment, count, _sample(scenario, window, (segment,), dt, optimum)


def _empty_solution(scenario: Scenario, dt: float) -> EquilibriumSolution:
    window = (scenario.t_star, scenario.t_star)
    return EquilibriumSolution(
        scenario=scenario,
        window=window,
        segments=(),
        class_costs={},
        class_counts={},
        profile=_sample(scenario, window, (), dt),
    )


def solve_single_class(
    scenario: Scenario,
    model: EnergyModel,
    dt: float = DEFAULT_DT,
    root_rtol: float = 1e-10,
    mixed_rtol: float = 1e-8,
) -> EquilibriumSolution:
    """Equilibrium when the whole fleet is one vehicle class.

    One segment on the congestion cost map Phi (see :func:`_solve_segment`):
    the delay follows the isocost curve ``T(t) = Phi^{-1}(C - schedule_delay(t))``
    and C = Phi(T_peak), with the peak delay the root of the monotone
    conservation map T -> absorbed commuters, whose count must match the
    fleet to ``mixed_rtol * n_total``.
    """
    if scenario.n_total == 0.0:
        return _empty_solution(scenario, dt)

    segment, count, profile = _solve_segment(scenario, model, dt, root_rtol, mixed_rtol)
    return EquilibriumSolution(
        scenario=scenario,
        window=profile.window,
        segments=(segment,),
        class_costs={model.vehicle_class: segment.equilibrium_cost},
        class_counts={model.vehicle_class: count},
        profile=profile,
    )


def solve_mixed(
    scenario: Scenario,
    dt: float = DEFAULT_DT,
    root_rtol: float = 1e-10,
    mixed_rtol: float = 1e-8,
) -> EquilibriumSolution:
    """Two-class equilibrium at the scenario's EV market penetration.

    Degenerates to :func:`solve_single_class` at mpr 0 or 1.  Otherwise the
    GVs hold the window flanks and the EVs the center, joined at the
    schedule penalty ``s*``, and the solve decouples into two scalar
    conservation roots in the delay.  The GV flanks hold the delays up to the
    boundary delay ``T_x``, so ``T_x`` is the single-class GV peak delay of
    the GV population.  Delay is continuous at the class boundary, so the EV
    center holds the delays from ``T_x`` up to the EV root ``T_ev``.  With
    ``y = Phi_EV(T_x)``, ``s* = Phi_EV(T_ev) - y``, ``C_EV = Phi_EV(T_ev)``
    and ``C_GV = Phi_GV(T_x) + s*``.  The segmentation is validated
    against profitable deviations, and each class's absorbed count must match
    its population to ``mixed_rtol * n_total``.
    """
    if scenario.n_total == 0.0:
        return _empty_solution(scenario, dt)
    if scenario.mpr == 0.0:
        return solve_single_class(scenario, scenario.gv_energy, dt, root_rtol, mixed_rtol)
    if scenario.mpr == 1.0:
        return solve_single_class(scenario, scenario.ev_energy, dt, root_rtol, mixed_rtol)

    gv, ev = scenario.gv_energy, scenario.ev_energy
    pop_gv = scenario.population(VehicleClass.GV)
    pop_ev = scenario.population(VehicleClass.EV)
    map_gv = congestion_cost_map(gv, scenario)
    map_ev = congestion_cost_map(ev, scenario)

    t_x = conservation_root(scenario, map_gv, pop_gv, root_rtol)
    t_ev = conservation_root(scenario, map_ev, pop_ev, root_rtol, t_lo=t_x)
    cost_ev = map_ev(t_ev)
    s_star = cost_ev - map_ev(t_x)
    cost_gv = map_gv(t_x) + s_star
    _validate_no_deviation(scenario, cost_gv, cost_ev, s_star)

    mass_gv = window_mass(scenario, map_gv, t_x)
    mass_ev = window_mass(scenario, map_ev, t_ev, t_lo=t_x)
    _check_conservation(
        scenario,
        "mixed equilibrium",
        (cost_gv, cost_ev),
        (mass_gv, mass_ev),
        (pop_gv, pop_ev),
        mixed_rtol,
    )

    t0 = scenario.t_star - cost_gv / scenario.beta
    t1 = scenario.t_star + cost_gv / scenario.gamma
    a = scenario.t_star - s_star / scenario.beta
    b = scenario.t_star + s_star / scenario.gamma
    segments = (
        ClassSegment(VehicleClass.GV, t0, a, cost_gv),
        ClassSegment(VehicleClass.EV, a, b, cost_ev),
        ClassSegment(VehicleClass.GV, b, t1, cost_gv),
    )
    profile = _sample(scenario, (t0, t1), segments, dt)
    return EquilibriumSolution(
        scenario=scenario,
        window=(t0, t1),
        segments=segments,
        class_costs={VehicleClass.GV: cost_gv, VehicleClass.EV: cost_ev},
        class_counts={VehicleClass.GV: mass_gv, VehicleClass.EV: mass_ev},
        profile=profile,
    )


def _validate_no_deviation(
    scenario: Scenario,
    cost_gv: float,
    cost_ev: float,
    s_star: float,
    n_check: int = 257,
) -> None:
    """Assert neither class can undercut its cost inside the other's segments.

    The GV-EV-GV topology is an assumption of the construction; this check
    turns it into a verified property and fails loudly if violated.  Both
    flanks run over the same schedule-penalty levels, so the check sweeps
    levels rather than clock times: ``[0, s*]`` in the EV center and
    ``[s*, C_GV]`` in the GV flanks.
    """
    gv, ev = scenario.gv_energy, scenario.ev_energy
    for inside, own_cost, intruder, intruder_cost, levels, message in (
        (ev, cost_ev, gv, cost_gv, (0.0, s_star),
         "a GV commuter could profit inside the EV segment"),
        (gv, cost_gv, ev, cost_ev, (s_star, cost_gv),
         "an EV commuter could profit inside a GV segment"),
    ):
        sd = np.linspace(*levels, n_check)
        delay = invert_congestion_cost(inside, scenario, np.maximum(own_cost - sd, 0.0))
        tempted = congestion_cost(intruder, scenario, delay) + sd
        if np.any(tempted < intruder_cost - 1e-9 * intruder_cost):
            raise SolverError(
                f"mixed topology invalid: {message}",
                diagnostics={
                    "min_cost": float(np.min(tempted)),
                    f"cost_{intruder.vehicle_class.value}": intruder_cost,
                },
            )


def _sample(
    scenario: Scenario,
    window: tuple[float, float],
    segments: tuple[ClassSegment, ...],
    dt: float,
    optimum: bool = False,
) -> TimeProfile:
    """Evaluate the solution curves on a uniform grid spanning the window.

    The grid is anchored so the preferred arrival time (where delay and flow
    peak) is a grid point; it starts at least two steps before the window and
    ends at least two steps after it, and delay and flows are identically
    zero outside the window (everywhere, with no segments).  With ``optimum``
    the segments are system-optimum ones: the delay inverts the marginal social
    cost Psi, not Phi, and the toll column carries the charge ``tau = Psi - Phi``.
    """
    t0, t1 = window
    times = _window_grid(scenario.t_star, window, dt)

    delay = np.zeros_like(times)
    flow_gv = np.zeros_like(times)
    flow_ev = np.zeros_like(times)
    cost_tt = np.zeros_like(times)
    cost_en = np.zeros_like(times)
    cost_sd = np.zeros_like(times)
    toll = np.zeros_like(times)
    active = np.full(times.shape, -1, dtype=np.int8)
    cost_map = marginal_social_cost_map if optimum else congestion_cost_map

    tiny = 1e-12 * max(1.0, abs(t1))
    claimed = np.zeros(times.shape, dtype=bool)
    for seg in segments:
        mask = (times >= seg.t_lo - tiny) & (times <= seg.t_hi + tiny) & ~claimed
        if not np.any(mask):
            continue
        claimed |= mask
        model = scenario.energy_model(seg.vehicle_class)
        sd = schedule_delay(times[mask], scenario)
        residual = np.maximum(seg.equilibrium_cost - sd, 0.0)
        seg_delay = cost_map(model, scenario).invert(residual)
        seg_flow = flow_from_delay(seg_delay, scenario)
        delay[mask] = seg_delay
        if seg.vehicle_class is VehicleClass.GV:
            flow_gv[mask] = seg_flow
        else:
            flow_ev[mask] = seg_flow
        cost_tt[mask] = scenario.alpha * seg_delay
        cost_en[mask] = model.c1 * seg_delay + model.c2 * seg_delay**2
        cost_sd[mask] = sd
        if optimum:
            toll[mask] = toll_at_delay(model, scenario, seg_delay)
        active[mask] = _class_index(seg.vehicle_class)

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
    """Resample a solved pattern onto a uniform grid with spacing ``dt`` hours."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    return _sample(solution.scenario, solution.window, solution.segments, dt)


def solution_delay(solution: EquilibriumSolution, times: np.ndarray) -> np.ndarray:
    """Exact equilibrium delay at arbitrary arrival times (0 outside the window)."""
    times = np.asarray(times, dtype=float)
    delay = np.zeros_like(times)
    scenario = solution.scenario
    for seg in solution.segments:
        mask = (times >= seg.t_lo) & (times <= seg.t_hi)
        if not np.any(mask):
            continue
        model = scenario.energy_model(seg.vehicle_class)
        residual = np.maximum(seg.equilibrium_cost - schedule_delay(times[mask], scenario), 0.0)
        delay[mask] = invert_congestion_cost(model, scenario, residual)
    return delay
