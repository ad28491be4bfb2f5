"""Departure-time equilibrium solver suite for mixed gasoline/electric fleets.

Computes morning-commute user equilibria as a function of EV market
penetration, the extra congestion they induce (ECP and ECD indicators), and
the time-varying congestion toll that decentralizes the system optimum.
"""

from .dynamics import (
    BinAssignment,
    GapReport,
    bin_costs,
    day_step,
    gap_measure,
    init_assignment,
    run_until_converged,
)
from .equilibrium import (
    ClassSegment,
    CostBreakdown,
    EquilibriumSolution,
    TimeProfile,
    sample_profiles,
    solution_delay,
    solve_mixed,
    solve_single_class,
)
from .errors import CommuteqError, ScenarioError, SolverError
from .metrics import MetricsReport, extra_congested_period, extra_congestion_delay, summarize
from .model import (
    EnergyModel,
    Scenario,
    VehicleClass,
    average_speed,
    congestion_cost,
    delay_from_flow,
    energy_cost,
    flow_from_delay,
    schedule_delay,
)
from .numerics import Numerics
from .scenario_io import ScenarioConfig, bundled_scenario_path, emit_config, load_config
from .toll import (
    SystemOptimum,
    compute_toll,
    marginal_social_cost,
    minimize_binned_total_cost,
    solve_system_optimum,
    toll_at_delay,
    verify_tolled_equilibrium,
)

__version__ = "0.1.0"

__all__ = [
    "BinAssignment",
    "ClassSegment",
    "CommuteqError",
    "CostBreakdown",
    "EnergyModel",
    "EquilibriumSolution",
    "GapReport",
    "MetricsReport",
    "Numerics",
    "Scenario",
    "ScenarioConfig",
    "ScenarioError",
    "SolverError",
    "SystemOptimum",
    "TimeProfile",
    "VehicleClass",
    "average_speed",
    "bin_costs",
    "bundled_scenario_path",
    "compute_toll",
    "congestion_cost",
    "day_step",
    "delay_from_flow",
    "emit_config",
    "energy_cost",
    "extra_congested_period",
    "extra_congestion_delay",
    "flow_from_delay",
    "gap_measure",
    "init_assignment",
    "load_config",
    "marginal_social_cost",
    "minimize_binned_total_cost",
    "run_until_converged",
    "sample_profiles",
    "schedule_delay",
    "solution_delay",
    "solve_mixed",
    "solve_single_class",
    "solve_system_optimum",
    "summarize",
    "toll_at_delay",
    "verify_tolled_equilibrium",
]
