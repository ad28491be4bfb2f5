"""System-optimum departure pattern and the decentralizing congestion toll.

For a single-class corridor the total cost `int f * (Phi(T(f)) + SD(t)) dt`
is minimized subject to conservation.  With the flow-delay relation
``T = m * (f/R)**nu`` one has ``f * dT/df = nu * T``, so the pointwise
optimality condition reads ``Psi(T) + SD(t) = lambda`` on the support, where

    Psi(T) = Phi(T) + nu * T * Phi'(T)

is the marginal social cost of the flow sustaining delay T.  Psi is strictly
increasing, so the optimal delay profile is its inverse applied to
``lambda - SD(t)`` and the multiplier ``lambda`` follows from the same
bracketed conservation root-find as the user-equilibrium cost.  Charging the
externality part ``tau = nu * T * Phi'(T)`` at the optimal flows makes the
pattern cost-constant for individuals, i.e. a user equilibrium of the tolled
system; :func:`verify_tolled_equilibrium` certifies that identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import init_assignment
from .equilibrium import (
    DEFAULT_DT,
    TimeProfile,
    _check_conservation,
    _window_grid,
    _zero_profile,
    conservation_root,
    window_mass,
)
from .model import (
    CostMap,
    EnergyModel,
    Scenario,
    VehicleClass,
    congestion_cost,
    congestion_cost_slope,
    delay_from_flow,
    flow_from_delay,
    schedule_delay,
)
from .numerics import project_to_simplex, trapezoid_refine


@dataclass(frozen=True)
class SystemOptimum:
    """Total-cost-minimizing pattern for one vehicle class.

    ``multiplier`` is the shadow cost of one additional commuter ($); the
    profile's toll column already carries the externality charge, so its
    ``cost_total`` is constant at the multiplier across the window.
    """

    scenario: Scenario
    model: EnergyModel
    multiplier: float
    window: tuple[float, float]
    profile: TimeProfile
    total_cost: float
    toll_revenue: float

    @property
    def is_empty(self) -> bool:
        return self.multiplier == 0.0

    @property
    def max_delay(self) -> float:
        return float(np.max(self.profile.delay)) if self.profile.delay.size else 0.0


@dataclass(frozen=True)
class TollSchedule:
    """Time-varying congestion charge supporting the system optimum."""

    times: np.ndarray
    toll: np.ndarray
    optimum: SystemOptimum

    def as_incentive(self) -> np.ndarray:
        """Rebased schedule tau - max(tau): a nonpositive reward instead of a
        charge, leaving the equilibrium pattern unchanged."""
        if self.toll.size == 0:
            return self.toll.copy()
        return self.toll - float(np.max(self.toll))


def marginal_social_cost(model: EnergyModel, scenario: Scenario, delay) -> np.ndarray:
    """Psi(T) = Phi(T) + nu*T*Phi'(T), the social cost slope of added flow."""
    return congestion_cost(model, scenario, delay) + scenario.nu * np.asarray(
        delay, dtype=float
    ) * congestion_cost_slope(model, scenario, delay)


def marginal_social_cost_map(model: EnergyModel, scenario: Scenario) -> CostMap:
    """Psi(T) = (1+nu)*(alpha+c1)*T + (1+2*nu)*c2*T**2 as a :class:`CostMap`."""
    return CostMap(
        (1.0 + scenario.nu) * (scenario.alpha + model.c1), (1.0 + 2.0 * scenario.nu) * model.c2
    )


def invert_marginal_social_cost(model: EnergyModel, scenario: Scenario, value) -> np.ndarray:
    """Unique T >= 0 with Psi(T) = value >= 0."""
    if np.any(np.asarray(value) < 0.0):
        raise ValueError("marginal social cost must be nonnegative")
    return marginal_social_cost_map(model, scenario).invert(value)


def toll_at_delay(model: EnergyModel, scenario: Scenario, delay) -> np.ndarray:
    """Externality charge tau = nu * T * Phi'(T) at delay T."""
    return scenario.nu * np.asarray(delay, dtype=float) * congestion_cost_slope(
        model, scenario, delay
    )


def solve_system_optimum(
    scenario: Scenario,
    model: EnergyModel,
    dt: float = DEFAULT_DT,
    quad_rtol: float = 1e-8,
    root_rtol: float = 1e-10,
    mixed_rtol: float = 1e-8,
) -> SystemOptimum:
    """Minimize total system cost over departure patterns of one class.

    ``quad_rtol`` bounds the toll-revenue quadrature; the optimal pattern
    must absorb the fleet to ``mixed_rtol * n_total``.
    """
    if scenario.n_total == 0.0:
        profile = _zero_profile(scenario.t_star, dt)
        return SystemOptimum(
            scenario=scenario,
            model=model,
            multiplier=0.0,
            window=(scenario.t_star, scenario.t_star),
            profile=profile,
            total_cost=0.0,
            toll_revenue=0.0,
        )

    cmap = marginal_social_cost_map(model, scenario)
    seed = float(
        marginal_social_cost(model, scenario, delay_from_flow(scenario.n_total, scenario))
    )
    lam = conservation_root(scenario, cmap, scenario.n_total, seed, root_rtol)
    count = window_mass(scenario, cmap, lam)
    _check_conservation(
        scenario, "system optimum", (lam,), (count,), (scenario.n_total,), mixed_rtol
    )

    t0 = scenario.t_star - lam / scenario.beta
    t1 = scenario.t_star + lam / scenario.gamma
    profile = _resample_so(scenario, model, lam, (t0, t1), dt)

    revenue = _so_toll_revenue(scenario, model, lam, quad_rtol)
    total_cost = lam * scenario.n_total - revenue
    return SystemOptimum(
        scenario=scenario,
        model=model,
        multiplier=lam,
        window=(t0, t1),
        profile=profile,
        total_cost=total_cost,
        toll_revenue=revenue,
    )


def _resample_so(
    scenario: Scenario,
    model: EnergyModel,
    lam: float,
    window: tuple[float, float],
    dt: float,
) -> TimeProfile:
    """Sample the system-optimum curves on the standard uniform grid."""
    t0, t1 = window
    times = _window_grid(scenario.t_star, window, dt)
    inside = (times >= t0) & (times <= t1)

    sd = np.where(inside, schedule_delay(times, scenario), 0.0)
    residual = np.where(inside, np.maximum(lam - schedule_delay(times, scenario), 0.0), 0.0)
    delay = invert_marginal_social_cost(model, scenario, residual)
    flow = np.where(inside, flow_from_delay(delay, scenario), 0.0)
    delay = np.where(inside, delay, 0.0)
    toll = np.where(inside, toll_at_delay(model, scenario, delay), 0.0)
    cost_tt = scenario.alpha * delay
    cost_en = model.c1 * delay + model.c2 * delay**2
    is_ev = model.vehicle_class is VehicleClass.EV
    active = np.where(inside, 1 if is_ev else 0, -1).astype(np.int8)
    return TimeProfile(
        times=times,
        dt=dt,
        window=window,
        delay=delay,
        flow_total=flow,
        flow_gv=np.zeros_like(flow) if is_ev else flow,
        flow_ev=flow if is_ev else np.zeros_like(flow),
        cost_travel_time=cost_tt,
        cost_energy=cost_en,
        cost_schedule=sd,
        toll=toll,
        cost_total=cost_tt + cost_en + sd + toll,
        active=active,
    )


def _so_toll_revenue(
    scenario: Scenario, model: EnergyModel, lam: float, quad_rtol: float
) -> float:
    """Exact toll revenue `int f_so * tau dt` via the cost-residual variable."""
    if lam <= 0.0:
        return 0.0

    def integrand(u: np.ndarray) -> np.ndarray:
        r = lam * u**3
        delay = invert_marginal_social_cost(model, scenario, r)
        flow = flow_from_delay(delay, scenario)
        return flow * toll_at_delay(model, scenario, delay) * 3.0 * lam * u * u

    integral = trapezoid_refine(integrand, 0.0, 1.0, rtol=quad_rtol)
    return (1.0 / scenario.beta + 1.0 / scenario.gamma) * integral


def compute_toll(so: SystemOptimum, model: EnergyModel, scenario: Scenario) -> TollSchedule:
    """Toll schedule tau(t) = nu * T_so(t) * Phi'(T_so(t)), zero off-window."""
    if so.is_empty:
        return TollSchedule(times=so.profile.times.copy(), toll=np.zeros_like(so.profile.times), optimum=so)
    inside = so.profile.active >= 0
    toll = np.where(inside, toll_at_delay(model, scenario, so.profile.delay), 0.0)
    return TollSchedule(times=so.profile.times.copy(), toll=toll, optimum=so)


def verify_tolled_equilibrium(
    toll: TollSchedule, scenario: Scenario, model: EnergyModel
) -> float:
    """Max deviation of the tolled trip cost from constancy over the window ($).

    A valid schedule leaves every commuter of the optimal pattern paying
    exactly the multiplier, certifying that the system optimum is a user
    equilibrium of the tolled system.
    """
    so = toll.optimum
    if so.is_empty:
        return 0.0
    inside = so.profile.active >= 0
    delay = so.profile.delay[inside]
    sd = schedule_delay(so.profile.times[inside], scenario)
    total = congestion_cost(model, scenario, delay) + toll.toll[inside] + sd
    return float(np.max(np.abs(total - so.multiplier)))


def minimize_binned_total_cost(
    scenario: Scenario,
    model: EnergyModel,
    bin_width: float = 1.0 / 60.0,
    max_iter: int = 20000,
    ftol: float = 1e-12,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Direct numerical minimization of the discretized total cost.

    Projected gradient over per-bin commuter masses on the day-to-day bin
    grid, with backtracking line search; serves as an independent check on
    the variational construction.  Returns (bin centers, masses, total cost).
    """
    centers = init_assignment(scenario, bin_width).centers
    n = scenario.n_total
    if n == 0.0:
        return centers, np.zeros_like(centers), 0.0

    def descend(centers: np.ndarray, mass: np.ndarray):
        sd = np.asarray(schedule_delay(centers, scenario), dtype=float)

        def total_cost(m: np.ndarray) -> float:
            delay = delay_from_flow(m / bin_width, scenario)
            unit = congestion_cost(model, scenario, delay) + sd
            return float(np.sum(m * unit))

        def gradient(m: np.ndarray) -> np.ndarray:
            delay = delay_from_flow(m / bin_width, scenario)
            return np.asarray(marginal_social_cost(model, scenario, delay), dtype=float) + sd

        value = total_cost(mass)
        step = 1.0
        flat_streak = 0
        for _ in range(max_iter):
            grad = gradient(mass)
            improved = False
            for _ in range(60):
                candidate = project_to_simplex(mass - step * grad, n)
                cand_value = total_cost(candidate)
                move = candidate - mass
                if cand_value <= value - 1e-4 / max(step, 1e-30) * float(move @ move):
                    improved = True
                    break
                step *= 0.5
            if not improved:
                break
            drop = value - cand_value
            mass, value = candidate, cand_value
            step *= 2.0
            flat_streak = flat_streak + 1 if drop <= ftol * max(abs(value), 1.0) else 0
            if flat_streak >= 10:
                break
        return mass, value

    mass = np.full(centers.size, n / centers.size)
    for _ in range(20):
        mass, value = descend(centers, mass)
        # grow the grid while the optimum presses against its edges
        meaningful = mass > 1e-3 * n
        used = np.nonzero(meaningful)[0]
        if used.size == 0 or (used[0] >= 2 and used[-1] < centers.size - 2):
            break
        extra = max(centers.size // 2, 8)
        pad_lo = centers[0] - bin_width * np.arange(extra, 0, -1, dtype=float)
        pad_hi = centers[-1] + bin_width * np.arange(1, extra + 1, dtype=float)
        centers = np.concatenate([pad_lo, centers, pad_hi])
        mass = np.concatenate([np.zeros(extra), mass, np.zeros(extra)])
    return centers, mass, value
