"""Core formulas of the morning-commute model with mixed gasoline/electric fleets.

Units throughout: time in hours (clock times as decimal hours, 7.75 = 07:45),
money in $, flow in veh/h, distance in km.  Congestion delay ``T`` is the
travel time in excess of the free-flow travel time.  The flow-delay relation
``T = m * (f / R)**nu`` adopts the convention that ``(f/R)**nu`` evaluates in
h/km, so delays come out in hours.

All functions accept floats or numpy arrays and are pure; every type here is
immutable after construction and safe for concurrent use.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ScenarioError

ArrayLike = float | np.ndarray


class VehicleClass(enum.Enum):
    GV = "gv"
    EV = "ev"


def _check_finite(record, names: tuple[str, ...]) -> None:
    # NaN passes every ``<=`` range check, so finiteness is checked first
    for name in names:
        value = getattr(record, name)
        if not math.isfinite(value):
            raise ScenarioError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class EnergyModel:
    """Congestion-dependent energy cost of one vehicle class.

    ``E(T) = c1 * T + c2 * T**2`` with ``c1`` in $/h and ``c2`` in $/h^2.
    The distance-proportional part of energy spending does not depend on
    congestion and is deliberately not modeled.
    """

    vehicle_class: VehicleClass
    c1: float
    c2: float

    def __post_init__(self):
        _check_finite(self, ("c1", "c2"))
        if self.c1 < 0.0 or self.c2 < 0.0:
            raise ScenarioError(
                f"energy coefficients must be nonnegative, got "
                f"c1={self.c1}, c2={self.c2}"
            )


@dataclass(frozen=True)
class Scenario:
    """Full parameterization of one corridor/fleet case.

    Attributes
    ----------
    alpha, beta, gamma : float
        Unit costs of travel time, early arrival, late arrival ($/h).
    t_star : float
        Preferred arrival time, clock hours.
    nu : float
        Elasticity exponent of the flow-delay relation.
    n_total : float
        Total commuters in the rush hour (veh).
    capacity_r : float
        Road capacity parameter R (veh/h).
    trip_km : float
        Trip distance m (km).
    s_max : float
        Free-flow speed (km/h).  Cancels out of the delay dynamics and is
        used only for speed reporting; not part of the calibrated set.
    mpr : float
        EV market penetration rate, fraction of the fleet in [0, 1].
    gv_energy, ev_energy : EnergyModel
        Per-class energy cost models.
    """

    alpha: float
    beta: float
    gamma: float
    t_star: float
    nu: float
    n_total: float
    capacity_r: float
    trip_km: float
    gv_energy: EnergyModel
    ev_energy: EnergyModel
    mpr: float = 0.0
    s_max: float = 60.0

    def __post_init__(self):
        _check_finite(
            self,
            ("alpha", "beta", "gamma", "t_star", "nu", "n_total")
            + ("capacity_r", "trip_km", "mpr", "s_max"),
        )
        for name in ("alpha", "beta", "gamma", "nu", "capacity_r", "trip_km", "s_max"):
            if getattr(self, name) <= 0.0:
                raise ScenarioError(f"{name} must be positive, got {getattr(self, name)}")
        if self.n_total < 0.0:
            raise ScenarioError(f"n_total must be nonnegative, got {self.n_total}")
        if not 0.0 <= self.mpr <= 1.0:
            raise ScenarioError(f"mpr must lie in [0,1], got {self.mpr}")
        if self.beta >= self.alpha:
            warnings.warn(
                f"beta={self.beta} >= alpha={self.alpha}: the usual scheduling "
                "assumption beta < alpha is violated",
                stacklevel=2,
            )
        if self.gv_energy.vehicle_class is not VehicleClass.GV:
            raise ScenarioError("gv_energy must be tagged VehicleClass.GV")
        if self.ev_energy.vehicle_class is not VehicleClass.EV:
            raise ScenarioError("ev_energy must be tagged VehicleClass.EV")
        if 0.0 < self.mpr and (
            self.ev_energy.c1 > self.gv_energy.c1 or self.ev_energy.c2 > self.gv_energy.c2
        ):
            warnings.warn(
                "EV energy coefficients exceed the GV ones; EV energy cost is "
                "expected to grow with congestion no faster than the GV cost",
                stacklevel=2,
            )

    def energy_model(self, cls: VehicleClass) -> EnergyModel:
        return self.gv_energy if cls is VehicleClass.GV else self.ev_energy

    def population(self, cls: VehicleClass) -> float:
        """Commuter count of one class (veh)."""
        share = 1.0 - self.mpr if cls is VehicleClass.GV else self.mpr
        return share * self.n_total

    @property
    def free_flow_hours(self) -> float:
        return self.trip_km / self.s_max


@dataclass(frozen=True)
class CostComponents:
    """One commuter's trip-cost breakdown ($); total is the exact float sum."""

    travel_time: float
    energy: float
    schedule_delay: float
    toll: float = 0.0
    total: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(
            self, "total", self.travel_time + self.energy + self.schedule_delay + self.toll
        )


def _check_nonnegative(x: ArrayLike, what: str) -> None:
    if (np.asarray(x) < 0.0).any():
        raise ValueError(f"{what} must be nonnegative")


def schedule_delay(t: ArrayLike, scenario: Scenario) -> ArrayLike:
    """Arrival-timing penalty max(beta*(t*-t), gamma*(t-t*)) in $.

    Piecewise linear with slope -beta before and +gamma after the preferred
    arrival time, zero exactly there.
    """
    early = scenario.beta * (scenario.t_star - t)
    late = scenario.gamma * (t - scenario.t_star)
    return np.maximum(early, late)


def energy_cost(model: EnergyModel, delay: ArrayLike) -> ArrayLike:
    """Energy cost E(T) = c1*T + c2*T**2 at congestion delay T >= 0 hours."""
    _check_nonnegative(delay, "congestion delay")
    return model.c1 * delay + model.c2 * delay * delay


def congestion_cost(model: EnergyModel, scenario: Scenario, delay: ArrayLike) -> ArrayLike:
    """Combined time-plus-energy cost of congestion: alpha*T + E(T)."""
    _check_nonnegative(delay, "congestion delay")
    return congestion_cost_map(model, scenario)(delay)


def congestion_cost_slope(model: EnergyModel, scenario: Scenario, delay: ArrayLike) -> ArrayLike:
    """Derivative of the congestion cost with respect to the delay."""
    return scenario.alpha + model.c1 + 2.0 * model.c2 * delay


@dataclass(frozen=True)
class CostMap:
    """A cost quadratic in the congestion delay, ``a*T + b*T**2`` with a > 0, b >= 0.

    The private congestion cost Phi and the marginal social cost Psi both
    have this form; the map is strictly increasing on T >= 0.
    """

    a: float
    b: float

    def __call__(self, delay: ArrayLike) -> ArrayLike:
        """The cost a*T + b*T**2 at delay T >= 0 (unchecked)."""
        return self.a * delay + self.b * delay * delay

    def invert(self, cost: ArrayLike) -> ArrayLike:
        """Unique delay T >= 0 with a*T + b*T**2 = ``cost`` >= 0 (unchecked).

        T = (-a + sqrt(a**2 + 4*b*cost)) / (2*b), evaluated in the
        rationalized form 2*cost / (a + sqrt(a**2 + 4*b*cost)), which has no
        cancellation for small costs and covers b = 0 as well.
        """
        cost = np.asarray(cost, dtype=float)
        return 2.0 * cost / (self.a + np.sqrt(self.a * self.a + 4.0 * self.b * cost))


def congestion_cost_map(model: EnergyModel, scenario: Scenario) -> CostMap:
    """Phi(T) = (alpha + c1)*T + c2*T**2, the congestion cost as a :class:`CostMap`."""
    return CostMap(scenario.alpha + model.c1, model.c2)


def marginal_social_cost_map(model: EnergyModel, scenario: Scenario) -> CostMap:
    """Psi(T) = (1+nu)*(alpha+c1)*T + (1+2*nu)*c2*T**2, the marginal social cost map."""
    return CostMap(
        (1.0 + scenario.nu) * (scenario.alpha + model.c1), (1.0 + 2.0 * scenario.nu) * model.c2
    )


def toll_at_delay(model: EnergyModel, scenario: Scenario, delay: ArrayLike) -> ArrayLike:
    """Externality charge tau = nu * T * Phi'(T) = Psi(T) - Phi(T) at delay T."""
    return scenario.nu * np.asarray(delay, dtype=float) * congestion_cost_slope(
        model, scenario, delay
    )


def marginal_social_cost(model: EnergyModel, scenario: Scenario, delay: ArrayLike) -> ArrayLike:
    """Psi(T) = Phi(T) + nu*T*Phi'(T), the social cost slope of added flow."""
    return congestion_cost(model, scenario, delay) + toll_at_delay(model, scenario, delay)


def invert_congestion_cost(model: EnergyModel, scenario: Scenario, cost: ArrayLike) -> ArrayLike:
    """Unique delay T >= 0 whose congestion cost equals ``cost`` >= 0."""
    _check_nonnegative(cost, "congestion cost")
    return congestion_cost_map(model, scenario).invert(cost)


def delay_from_flow(flow: ArrayLike, scenario: Scenario) -> ArrayLike:
    """Congestion delay T = m * (f/R)**nu in hours for arrival flow f >= 0."""
    _check_nonnegative(flow, "flow")
    return scenario.trip_km * (np.asarray(flow, dtype=float) / scenario.capacity_r) ** scenario.nu


def flow_from_delay(delay: ArrayLike, scenario: Scenario) -> ArrayLike:
    """Arrival flow f = R * (T/m)**(1/nu), the exact inverse of delay_from_flow."""
    _check_nonnegative(delay, "congestion delay")
    return scenario.capacity_r * (np.asarray(delay, dtype=float) / scenario.trip_km) ** (
        1.0 / scenario.nu
    )


def average_speed(delay: ArrayLike, scenario: Scenario) -> ArrayLike:
    """Average trip speed m / (m/s_max + T) in km/h."""
    return scenario.trip_km / (scenario.free_flow_hours + delay)


def cost_components(
    model: EnergyModel,
    scenario: Scenario,
    t: float,
    delay: float,
    toll: float = 0.0,
) -> CostComponents:
    """Trip-cost breakdown for an arrival at clock time ``t`` with delay ``delay``."""
    return CostComponents(
        travel_time=scenario.alpha * delay,
        energy=float(energy_cost(model, delay)),
        schedule_delay=float(schedule_delay(t, scenario)),
        toll=toll,
    )
