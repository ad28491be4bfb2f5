"""Departure-time user-equilibrium solvers.

A user equilibrium is pinned down by two conditions: every commuter of a
class bears the same total trip cost over that class's active interval, and
each class's arrival flow integrates to its population.  For a single class
this reduces to a scalar root-find on the equilibrium cost.  With two classes
sharing the road the gasoline vehicles occupy the window flanks and the
electric vehicles the high-delay center; delay continuity at the class
boundary decouples the pair of class costs into two such scalar roots, one
per class (see :func:`solve_mixed`), both through :func:`conservation_root`.

Conservation integrals run in the cost-residual variable: along the early
flank the schedule penalty falls linearly at rate beta, so arrival time and
residual cost are affine in each other and the two window flanks collapse
into a single integral `(1/beta + 1/gamma) * int_0^r q(x) dx`, where
``q(x)`` is the arrival flow at congestion-cost residual ``x``.  Every cost
map is quadratic in the delay, so substituting the delay for the residual
makes that integral a closed form (see :func:`window_mass`): the masses are
exact, with no quadrature.
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
    delay_from_flow,
    flow_from_delay,
    invert_congestion_cost,
    marginal_social_cost,
    marginal_social_cost_map,
    schedule_delay,
    toll_at_delay,
)
from .numerics import expand_bracket, solve_bracketed

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


def window_mass(scenario: Scenario, cmap: CostMap, r_hi: float, r_lo: float = 0.0) -> float:
    """Commuters absorbed while the cost residual climbs from ``r_lo`` to ``r_hi``.

    Equals `K * int_{r_lo}^{r_hi} q(r) dr` with K = 1/beta + 1/gamma and the
    arrival flow ``q = R * (T/m)**p`` at delay ``T = cmap.invert(r)``,
    p = 1/nu.  Substituting r = a*T + b*T**2, dr = (a + 2*b*T) dT, gives the
    exact value `K * R * m**-p * [F(T_hi) - F(T_lo)]` with
    `F(T) = a * T**(1+p) / (1+p) + 2*b * T**(2+p) / (2+p)`.
    """
    if r_hi <= r_lo:
        return 0.0
    p = 1.0 / scenario.nu

    def antiderivative(r: float) -> float:
        delay = float(cmap.invert(r))
        return delay ** (1.0 + p) * (cmap.a / (1.0 + p) + 2.0 * cmap.b * delay / (2.0 + p))

    scale = (1.0 / scenario.beta + 1.0 / scenario.gamma) * scenario.capacity_r
    return scale * scenario.trip_km**-p * (antiderivative(r_hi) - antiderivative(r_lo))


def conservation_root(
    scenario: Scenario,
    cmap: CostMap,
    population: float,
    seed: float,
    root_rtol: float,
    r_lo: float = 0.0,
) -> float:
    """Residual span ``s`` whose window ``[r_lo, r_lo + s]`` absorbs ``population``.

    The absorbed count grows monotonically from 0 at s = 0, so the root is
    bracketed by growing ``[0, seed]`` geometrically and then refined to
    ``root_rtol`` relative.  Every equilibrium and optimum cost here is such
    a root, with ``cmap`` the class's cost map.
    """

    def conservation(s: float) -> float:
        return window_mass(scenario, cmap, r_lo + s, r_lo) - population

    lo, hi = expand_bracket(conservation, max(seed, 1e-9))
    return solve_bracketed(conservation, lo, hi, rtol=root_rtol)


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
    optimum.  The cost C is the conservation root for ``n_total``, the window
    [t* - C/beta, t* + C/gamma] has zero delay at both edges, and the exact
    count must match the fleet to ``mixed_rtol * n_total``.  ``model`` must be
    the scenario's own, as the sampler looks models up by class.
    """
    if model != scenario.energy_model(model.vehicle_class):
        raise ValueError("model must be the scenario's energy model of its class")
    cmap = (marginal_social_cost_map if optimum else congestion_cost_map)(model, scenario)
    cost_at = marginal_social_cost if optimum else congestion_cost
    seed = float(cost_at(model, scenario, delay_from_flow(scenario.n_total, scenario)))
    what = "system optimum" if optimum else "single-class equilibrium"
    cost = conservation_root(scenario, cmap, scenario.n_total, seed, root_rtol)
    count = window_mass(scenario, cmap, cost)
    _check_conservation(scenario, what, (cost,), (count,), (scenario.n_total,), mixed_rtol)
    window = (scenario.t_star - cost / scenario.beta, scenario.t_star + cost / scenario.gamma)
    segment = ClassSegment(model.vehicle_class, *window, cost)
    return segment, count, _sample(scenario, window, (segment,), dt, optimum)


def _packed_cost(model: EnergyModel, scenario: Scenario, population: float) -> float:
    """Congestion cost of packing ``population`` into one hour: a root seed."""
    return float(congestion_cost(model, scenario, delay_from_flow(population, scenario)))


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
    and the cost C is the root of the monotone conservation map C -> absorbed
    commuters, whose count must match the fleet to ``mixed_rtol * n_total``.
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
    conservation roots.  The GV flanks absorb `K * int_0^x q_GV` with
    ``x = C_GV - s*``, so ``x`` is the single-class GV cost of the GV
    population.  Delay continuity at the class boundary gives the EV
    congestion cost there in closed form, ``y = Phi_EV(Phi_GV^{-1}(x))``, and
    ``s*`` is the root of `K * int_y^{y+s} q_EV = mpr * N`.  Then
    ``C_GV = x + s*`` and ``C_EV = y + s*``.  The segmentation is validated
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

    seed_gv = _packed_cost(gv, scenario, pop_gv)
    x = conservation_root(scenario, map_gv, pop_gv, seed_gv, root_rtol)
    y = float(congestion_cost(ev, scenario, map_gv.invert(x)))
    seed_ev = _packed_cost(ev, scenario, pop_ev)
    s_star = conservation_root(scenario, map_ev, pop_ev, seed_ev, root_rtol, r_lo=y)
    cost_gv, cost_ev = x + s_star, y + s_star
    _validate_no_deviation(scenario, cost_gv, cost_ev, s_star)

    mass_gv = window_mass(scenario, map_gv, x)
    mass_ev = window_mass(scenario, map_ev, cost_ev, r_lo=y)
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
    sd = np.linspace(0.0, s_star, n_check)
    delay = invert_congestion_cost(ev, scenario, np.maximum(cost_ev - sd, 0.0))
    tempted = congestion_cost(gv, scenario, delay) + sd
    if np.any(tempted < cost_gv - 1e-9 * cost_gv):
        raise SolverError(
            "mixed topology invalid: a GV commuter could profit inside the EV segment",
            diagnostics={"min_cost": float(np.min(tempted)), "cost_gv": cost_gv},
        )
    sd = np.linspace(s_star, cost_gv, n_check)
    delay = invert_congestion_cost(gv, scenario, np.maximum(cost_gv - sd, 0.0))
    tempted = congestion_cost(ev, scenario, delay) + sd
    if np.any(tempted < cost_ev - 1e-9 * cost_ev):
        raise SolverError(
            "mixed topology invalid: an EV commuter could profit inside a GV segment",
            diagnostics={"min_cost": float(np.min(tempted)), "cost_ev": cost_ev},
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
