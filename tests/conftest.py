"""Shared fixtures: the basic corridor scenario and cached solver runs.

The day-to-day oracle runs take seconds each, so they are session-scoped and
carry their wall-clock time for the runtime gates in the acceptance tests.
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np
import pytest

from commuteq import (
    EnergyModel,
    Scenario,
    SolverError,
    VehicleClass,
    bundled_scenario_path,
    load_config,
    run_until_converged,
    solve_mixed,
    solve_single_class,
)

N_TOTAL = 3000.0

#: The oracle settings the bundled scenario file ships, as the CLI runs them.
BUNDLED_NUMERICS = load_config(bundled_scenario_path(), env={}).numerics


def basic_scenario(mpr: float = 0.0) -> Scenario:
    return Scenario(
        alpha=8.4,
        beta=4.2,
        gamma=16.8,
        t_star=8.0,
        nu=4.1,
        n_total=N_TOTAL,
        capacity_r=8000.0,
        trip_km=20.0,
        s_max=60.0,
        mpr=mpr,
        gv_energy=EnergyModel(VehicleClass.GV, 4.0, 16.8),
        ev_energy=EnergyModel(VehicleClass.EV, 0.5, 3.0),
    )


@pytest.fixture(scope="session")
def scenario() -> Scenario:
    return basic_scenario()


@pytest.fixture(scope="session")
def gv_solution(scenario):
    return solve_single_class(scenario, scenario.gv_energy)


@pytest.fixture(scope="session")
def ev_solution(scenario):
    return solve_single_class(scenario, scenario.ev_energy)


@pytest.fixture(scope="session")
def mixed_solution(scenario):
    return solve_mixed(replace(scenario, mpr=0.5))


def gv_ev_gv_pattern(assignment, t_star: float, used_mass: float) -> tuple[bool, bool, bool]:
    """Criterion 3's shape check of a converged mixed oracle run.

    Over the bins holding more than ``used_mass`` of a class: whether the EV
    bins are contiguous, whether they straddle ``t_star``, and whether GV bins
    flank them on both sides with none inside the EV block.
    """
    used_ev = np.nonzero(assignment.class_mass(VehicleClass.EV) > used_mass)[0]
    used_gv = np.nonzero(assignment.class_mass(VehicleClass.GV) > used_mass)[0]
    contiguous = bool(np.all(np.diff(used_ev) == 1))
    centers = assignment.centers
    contains_center = bool(centers[used_ev[0]] < t_star < centers[used_ev[-1]])
    interior_gv = used_gv[(used_gv > used_ev[0]) & (used_gv < used_ev[-1])]
    flanked = bool(
        interior_gv.size == 0 and used_gv.min() < used_ev[0] and used_gv.max() > used_ev[-1]
    )
    return contiguous, contains_center, flanked


def timed_oracle(scenario_run: Scenario):
    start = time.perf_counter()
    assignment, report = run_until_converged(
        scenario_run,
        bin_width=BUNDLED_NUMERICS.bin_width,
        eta=BUNDLED_NUMERICS.eta,
        gap_tol=BUNDLED_NUMERICS.gap_tol,
        max_days=BUNDLED_NUMERICS.max_days,
    )
    elapsed = time.perf_counter() - start
    return assignment, report, elapsed


@pytest.fixture(scope="session")
def oracle_mpr0(scenario):
    return timed_oracle(scenario)


@pytest.fixture(scope="session")
def oracle_mpr1(scenario):
    return timed_oracle(replace(scenario, mpr=1.0))


@pytest.fixture(scope="session")
def oracle_mixed(scenario):
    return timed_oracle(replace(scenario, mpr=0.5))


def grid_ecp(profile, baseline_max_delay: float) -> float:
    """Reference ECP of a sampled profile: the grid measure the exact
    ``extra_congested_period`` replaced, kept to check it against.

    Total hours during which the delay strictly exceeds the baseline peak.
    Crossings between grid nodes are located by linear interpolation, so the
    measure does not inherit grid-resolution bias.  A profile measured
    against its own maximum yields exactly zero.
    """
    if baseline_max_delay < 0.0:
        raise ValueError("baseline_max_delay must be nonnegative")
    t = profile.times
    d = profile.delay - baseline_max_delay
    if t.size < 2:
        return 0.0
    d1, d2 = d[:-1], d[1:]
    widths = np.diff(t)
    frac = np.zeros_like(widths)
    both = (d1 > 0.0) & (d2 > 0.0)
    frac[both] = 1.0
    down = (d1 > 0.0) & (d2 <= 0.0)
    frac[down] = d1[down] / (d1[down] - d2[down])
    up = (d1 <= 0.0) & (d2 > 0.0)
    frac[up] = d2[up] / (d2[up] - d1[up])
    return float(np.sum(frac * widths))


def interpolated_ecd(profile, baseline_profile) -> tuple[np.ndarray, np.ndarray]:
    """Reference ECD of two sampled profiles: the interpolated difference that
    the exact ``extra_congestion_delay`` replaced, kept to check it against.

    The pointwise delay difference profile - baseline on the union of their
    grids, each delay interpolated linearly there and zero beyond its grid.
    """
    grid = np.union1d(profile.times, baseline_profile.times)
    own = np.interp(grid, profile.times, profile.delay, left=0.0, right=0.0)
    base = np.interp(grid, baseline_profile.times, baseline_profile.delay, left=0.0, right=0.0)
    return grid, own - base


#: Schedule-penalty levels per band that :func:`sampled_no_deviation` sweeps.
DEVIATION_LEVELS = 257


def sampled_no_deviation(outer, inner) -> None:
    """Reference no-deviation check: the sampled sweep that the exact
    ``equilibrium._validate_no_deviation`` replaced, kept to check it against.

    A band is ``(vehicle_class, cmap, cost, (s_in, s_out))``, with the schedule
    penalty at its inner and outer edge.  Both flanks of a band run over the
    same penalty levels, so the check sweeps :data:`DEVIATION_LEVELS` levels,
    not clock times.  The band reaching t* (``s_in = 0``) is the one centre
    segment.
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
