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
multiplier ``lambda`` is the map at its conservation root.
:class:`SystemOptimum` is that :class:`EquilibriumSolution`; its class
attribute ``optimum`` selects Psi wherever the solution is sampled or its
delay evaluated, and it adds only read-only views (the multiplier, the toll
revenue and the total cost), no stored field.  Charging the externality
part ``tau = nu * T * Phi'(T)`` at the optimal flows makes the pattern
cost-constant for individuals, i.e. a user equilibrium of the tolled system;
on a sampled optimum, :func:`compute_toll` reads that charge and
:func:`verify_tolled_equilibrium` certifies the identity.  The toll revenue
and the total cost read the solution's exact :class:`CostBreakdown`: the
revenue is the band integral of tau, the same closed form as the
conservation masses.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .dynamics import CLASS_ORDER, crowded_edges, extend_grid, init_assignment
from .equilibrium import EquilibriumSolution, TimeProfile, _solve_bands
from .model import (
    EnergyModel,
    Scenario,
    VehicleClass,
    congestion_cost,
    delay_from_flow,
    marginal_social_cost,
    schedule_delay,
    toll_at_delay,  # re-exported: one of this module's public names
)
from .numerics import DEFAULTS, project_to_simplex


class SystemOptimum(EquilibriumSolution):
    """Total-cost-minimizing pattern for one vehicle class.

    An :class:`EquilibriumSolution` on Psi: its one segment's cost is the
    multiplier, the shadow cost of one additional commuter ($).  A sampled
    profile's toll column already carries the externality charge, so its
    ``cost_total`` is constant at the multiplier across the window.
    """

    optimum = True

    @property
    def multiplier(self) -> float:
        return next(iter(self.class_costs.values()), 0.0)

    @property
    def toll_revenue(self) -> float:
        return self.costs.toll_revenue

    @property
    def total_cost(self) -> float:
        """Social cost `lambda * N - revenue`, exact: the toll is a transfer."""
        return self.costs.social


def solve_system_optimum(scenario: Scenario, model: EnergyModel) -> SystemOptimum:
    """Minimize total system cost over departure patterns of one class.

    The single-class equilibrium with Psi in place of Phi: one segment at the
    multiplier, whose sampled profile carries the toll column.  The optimal
    pattern must absorb the fleet to ``equilibrium.COUNT_RTOL * n_total``.
    """
    bands = ((model, scenario.n_total),)
    return _solve_bands(scenario, bands, SystemOptimum)


def compute_toll(profile: TimeProfile) -> np.ndarray:
    """Toll tau(t) = nu * T_so(t) * Phi'(T_so(t)): a sampled optimum's toll column, not a copy."""
    return profile.toll


def verify_tolled_equilibrium(so: SystemOptimum, profile: TimeProfile) -> float:
    """Max deviation of the tolled trip cost from constancy over the window ($).

    ``profile`` is ``so`` sampled on a grid, and its toll column the charge.
    A valid one leaves every commuter of the optimal pattern paying exactly
    the multiplier, certifying that the system optimum is a user
    equilibrium of the tolled system.
    """
    if so.is_empty:
        return 0.0
    scenario = so.scenario
    model = scenario.energy_model(so.segments[0].vehicle_class)
    inside = profile.active >= 0
    delay = profile.delay[inside]
    sd = schedule_delay(profile.times[inside], scenario)
    total = congestion_cost(model, scenario, delay) + profile.toll[inside] + sd
    return float(np.max(np.abs(total - so.multiplier)))


def minimize_binned_total_cost(
    scenario: Scenario, model: EnergyModel, bin_width: float = DEFAULTS.bin_width
) -> tuple[np.ndarray, np.ndarray, float]:
    """Direct numerical minimization of the discretized total cost.

    Projected gradient over per-bin commuter masses on the day-to-day bin
    grid, with backtracking line search; serves as an independent check on
    the variational construction.  A descent stops after 20,000 steps, or
    after 10 steps in a row that each lower the cost by at most 1e-12
    relative.  Returns (bin centers, masses, total cost).
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
        for _ in range(20000):
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
            flat_streak = flat_streak + 1 if drop <= 1e-12 * max(abs(value), 1.0) else 0
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
