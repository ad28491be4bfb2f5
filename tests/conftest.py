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
