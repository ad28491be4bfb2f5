"""System-optimum departure pattern and the decentralizing congestion toll.

For a single-class corridor the total cost `int f * (Phi(T(f)) + SD(t)) dt`
is minimized subject to conservation.  With the flow-delay relation
``T = m * (f/R)**nu`` one has ``f * dT/df = nu * T``, so the pointwise
optimality condition reads ``Psi(T) + SD(t) = lambda`` on the support, where

    Psi(T) = Phi(T) + nu * T * Phi'(T)

is the marginal social cost of the flow sustaining delay T.  Psi is strictly
increasing, so the optimal delay profile is its inverse applied to
``lambda - SD(t)``: the system optimum is the single-class user equilibrium
with Psi in place of Phi, solved and sampled by the same code, and the
multiplier ``lambda`` is its conservation root.  Charging the externality
part ``tau = nu * T * Phi'(T)`` at the optimal flows makes the pattern
cost-constant for individuals, i.e. a user equilibrium of the tolled system;
:func:`verify_tolled_equilibrium` certifies that identity.  The toll revenue
is a closed form, like the conservation masses.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dynamics import CLASS_ORDER, crowded_edges, extend_grid, init_assignment
from .equilibrium import (
    DEFAULT_DT,
    TimeProfile,
    _sample,
    _solve_segment,
)
from .model import (
    EnergyModel,
    Scenario,
    VehicleClass,
    congestion_cost,
    congestion_cost_map,
    delay_from_flow,
    marginal_social_cost,
    marginal_social_cost_map,
    schedule_delay,
    toll_at_delay,  # re-exported: one of this module's public names
)
from .numerics import project_to_simplex


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


def invert_marginal_social_cost(model: EnergyModel, scenario: Scenario, value) -> np.ndarray:
    """Unique T >= 0 with Psi(T) = value >= 0."""
    if np.any(np.asarray(value) < 0.0):
        raise ValueError("marginal social cost must be nonnegative")
    return marginal_social_cost_map(model, scenario).invert(value)


def solve_system_optimum(
    scenario: Scenario,
    model: EnergyModel,
    dt: float = DEFAULT_DT,
    root_rtol: float = 1e-10,
    mixed_rtol: float = 1e-8,
) -> SystemOptimum:
    """Minimize total system cost over departure patterns of one class.

    The single-class equilibrium with Psi in place of Phi: one segment at the
    multiplier, whose profile carries the toll column.  The optimal pattern
    must absorb the fleet to ``mixed_rtol * n_total``.
    """
    if scenario.n_total == 0.0:
        window = (scenario.t_star, scenario.t_star)
        return SystemOptimum(
            scenario=scenario,
            model=model,
            multiplier=0.0,
            window=window,
            profile=_sample(scenario, window, (), dt),
            total_cost=0.0,
            toll_revenue=0.0,
        )

    segment, _, profile = _solve_segment(scenario, model, dt, root_rtol, mixed_rtol, optimum=True)
    lam = segment.equilibrium_cost
    revenue = _so_toll_revenue(scenario, model, lam)
    return SystemOptimum(
        scenario=scenario,
        model=model,
        multiplier=lam,
        window=profile.window,
        profile=profile,
        total_cost=lam * scenario.n_total - revenue,
        toll_revenue=revenue,
    )


def _so_toll_revenue(scenario: Scenario, model: EnergyModel, lam: float) -> float:
    """Exact toll revenue `K * int_0^lam q * tau dr`, K = 1/beta + 1/gamma.

    With Phi = a*T + b*T**2, Psi = A*T + B*T**2, tau = nu*T*(a + 2*b*T),
    q = R*(T/m)**p (p = 1/nu) and dr = (A + 2*B*T) dT, the revenue is
    `K*R*m**-p*nu*[a*A*T**(2+p)/(2+p) + 2*(a*B + b*A)*T**(3+p)/(3+p)
    + 4*b*B*T**(4+p)/(4+p)]` at T = Psi^{-1}(lam).
    """
    phi = congestion_cost_map(model, scenario)
    psi = marginal_social_cost_map(model, scenario)
    p = 1.0 / scenario.nu
    delay = float(psi.invert(lam))
    poly = (
        phi.a * psi.a / (2.0 + p)
        + 2.0 * (phi.a * psi.b + phi.b * psi.a) * delay / (3.0 + p)
        + 4.0 * phi.b * psi.b * delay**2 / (4.0 + p)
    )
    scale = (1.0 / scenario.beta + 1.0 / scenario.gamma) * scenario.capacity_r
    return scale * scenario.trip_km**-p * scenario.nu * delay ** (2.0 + p) * poly


def compute_toll(so: SystemOptimum, model: EnergyModel, scenario: Scenario) -> TollSchedule:
    """Toll schedule tau(t) = nu * T_so(t) * Phi'(T_so(t)): the optimum's toll column."""
    return TollSchedule(times=so.profile.times.copy(), toll=so.profile.toll.copy(), optimum=so)


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
    # the day-to-day grid of a fleet that is all of this class
    solo = replace(scenario, mpr=1.0 if model.vehicle_class is VehicleClass.EV else 0.0)
    grid = init_assignment(solo, bin_width)
    row = CLASS_ORDER.index(model.vehicle_class)
    n = scenario.n_total
    if n == 0.0:
        return grid.centers, grid.masses[row], 0.0

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

    for _ in range(20):
        mass, value = descend(grid.centers, grid.masses[row])
        grid.masses[row] = mass
        # grow the grid while the optimum presses against its edges
        grow_lo, grow_hi = crowded_edges(grid, solo)
        if not (grow_lo or grow_hi):
            break
        grid = extend_grid(grid, grow_lo, grow_hi)
    return grid.centers, grid.masses[row], value
