"""Day-to-day oracle tests: conservation, fixed points, convergence."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from commuteq import (
    EnergyModel,
    Scenario,
    VehicleClass,
    congestion_cost,
    day_step,
    delay_from_flow,
    flow_from_delay,
    gap_measure,
    init_assignment,
    invert_congestion_cost,
    run_until_converged,
    schedule_delay,
    solution_delay,
    solve_single_class,
)
from commuteq.dynamics import CLASS_ORDER, BinAssignment, bin_costs
from conftest import N_TOTAL, basic_scenario

BIN_WIDTH = 1.0 / 60.0


class TestInitAssignment:
    def test_mass_split_is_exact(self):
        sc = basic_scenario(mpr=0.3)
        assignment = init_assignment(sc, BIN_WIDTH)
        assert_allclose(assignment.class_mass(VehicleClass.GV).sum(), 2100.0, rtol=1e-14)
        assert_allclose(assignment.class_mass(VehicleClass.EV).sum(), 900.0, rtol=1e-14)

    def test_nonnegative_and_centered(self):
        sc = basic_scenario()
        assignment = init_assignment(sc, BIN_WIDTH)
        assert np.all(assignment.masses >= 0.0)
        assert np.any(np.abs(assignment.centers - 8.0) < 1e-12)

    def test_empty_population(self):
        sc = replace(basic_scenario(), n_total=0.0)
        assignment = init_assignment(sc, BIN_WIDTH)
        assert assignment.total_mass == 0.0

    def test_invalid_bin_width(self):
        with pytest.raises(ValueError):
            init_assignment(basic_scenario(), 0.0)


def _equal_cost_assignment(sc, level: float) -> BinAssignment:
    """Exact discretized fixed point: every used bin costs exactly ``level``."""
    assignment = init_assignment(sc, BIN_WIDTH)
    residual = np.maximum(level - schedule_delay(assignment.centers, sc), 0.0)
    delay = invert_congestion_cost(sc.gv_energy, sc, residual)
    masses = np.zeros_like(assignment.masses)
    masses[0] = BIN_WIDTH * flow_from_delay(delay, sc)
    return BinAssignment(
        bin_width=BIN_WIDTH, centers=assignment.centers, masses=masses, day=0
    )


def _pairwise_day_step(masses: np.ndarray, costs: np.ndarray, eta: float) -> np.ndarray:
    """Reference swap that forms the full n x n pairwise-advantage matrix."""
    new_masses = masses.copy()
    for row in range(masses.shape[0]):
        m = masses[row]
        total = float(m.sum())
        if total <= 0.0:
            continue
        c = costs[row]
        c_min = float(np.min(c))
        excess = c - c_min
        outflow = eta * m * np.minimum(1.0, excess / max(c_min, 1e-12))
        advantage = np.maximum(c[:, None] - c[None, :], 0.0)
        weight_sum = advantage.sum(axis=1)
        senders = (weight_sum > 0.0) & (outflow > 0.0)
        if not np.any(senders):
            continue
        outflow[~senders] = 0.0
        share = np.zeros_like(advantage)
        share[senders] = advantage[senders] / weight_sum[senders, None]
        inflow = outflow @ share
        updated = m - outflow + inflow
        np.maximum(updated, 0.0, out=updated)
        new_total = float(updated.sum())
        if new_total > 0.0:
            updated *= total / new_total
        new_masses[row] = updated
    return new_masses


def _unsorted_day_step(masses: np.ndarray, costs: np.ndarray, eta: float) -> np.ndarray:
    """The sort-and-running-sums swap written in bin order, with boolean gathers
    and scatters; the day step must reproduce it bit for bit."""
    new_masses = masses.copy()
    for row in range(masses.shape[0]):
        m = masses[row]
        total = float(m.sum())
        if total <= 0.0:
            continue
        c = costs[row]
        c_min = float(np.min(c))
        excess = c - c_min
        outflow = eta * m * np.minimum(1.0, excess / max(c_min, 1e-12))
        order = np.argsort(excess, kind="stable")
        rise = np.diff(excess[order])
        weight_sum = np.empty_like(excess)
        weight_sum[order] = np.concatenate(([0.0], np.cumsum(np.arange(1, m.size) * rise)))
        senders = (weight_sum > 0.0) & (outflow > 0.0)
        if not np.any(senders):
            continue
        outflow[~senders] = 0.0
        rate = np.zeros_like(outflow)
        rate[senders] = outflow[senders] / weight_sum[senders]
        rate_above = np.cumsum(rate[order][::-1])[::-1]
        inflow = np.empty_like(excess)
        inflow[order] = np.concatenate((np.cumsum((rate_above[1:] * rise)[::-1])[::-1], [0.0]))
        updated = m - outflow + inflow
        np.maximum(updated, 0.0, out=updated)
        new_total = float(updated.sum())
        if new_total > 0.0:
            updated *= total / new_total
        new_masses[row] = updated
    return new_masses


def _reference_costs(assignment: BinAssignment, sc: Scenario) -> np.ndarray:
    """Bin costs rebuilt from the model formulas alone, nothing cached."""
    delay = delay_from_flow(assignment.masses.sum(axis=0) / assignment.bin_width, sc)
    sd = schedule_delay(assignment.centers, sc)
    return np.array([congestion_cost(sc.energy_model(cls), sc, delay) + sd for cls in CLASS_ORDER])


def _assert_no_stale_grid_state(assignment: BinAssignment, report, sc: Scenario) -> None:
    """The run's last trace row and costs equal a from-scratch evaluation, bit for bit."""
    costs = bin_costs(assignment, sc)
    assert np.array_equal(costs, _reference_costs(assignment, sc))
    fresh = gap_measure(assignment, sc, costs=None)
    expected = [fresh.relative_gap.get(cls, 0.0) for cls in CLASS_ORDER]
    assert report.trace[-1].tolist() == expected
    assert report.relative_gap == fresh.relative_gap


def _random_state(rng, case: int) -> tuple[BinAssignment, np.ndarray, float]:
    """Seeded bin masses and costs; ``case`` cycles through the edge cases."""
    n = int(rng.integers(2, 300))
    masses = rng.random((2, n)) * rng.random((2, 1)) * (N_TOTAL / n)
    masses[:, rng.random(n) < 0.2] = 0.0
    costs = 2.0 + 3.0 * rng.random((2, n))
    if case % 4 == 1:
        masses[int(rng.integers(2))] = 0.0  # a class with zero population
    if case % 5 == 2:
        costs[int(rng.integers(2)), int(rng.integers(n))] = 0.0  # c_min hits the floor
    if case % 3 == 0:
        costs = np.round(costs, 1)  # many exactly tied bins
    eta = 1.0 if case % 7 == 3 else float(rng.uniform(0.01, 0.2))
    centers = 8.0 + BIN_WIDTH * np.arange(n, dtype=float)
    assignment = BinAssignment(bin_width=BIN_WIDTH, centers=centers, masses=masses)
    return assignment, costs, eta


class TestDayStepMatchesPairwiseForm:
    def test_random_states(self):
        sc = basic_scenario(mpr=0.5)
        rng = np.random.default_rng(20200922)
        for case in range(300):
            assignment, costs, eta = _random_state(rng, case)
            expected = _pairwise_day_step(assignment.masses, costs, eta)
            stepped = day_step(assignment, sc, eta, costs=costs)
            scale = max(assignment.total_mass, 1.0)
            assert np.max(np.abs(stepped.masses - expected)) <= 1e-12 * scale, case

    def test_random_states_bit_for_bit_and_silent(self):
        # sorted coordinates and masked division change no float operation,
        # and the masked bins raise no floating-point warning
        sc = basic_scenario(mpr=0.5)
        rng = np.random.default_rng(20201018)
        for case in range(300):
            assignment, costs, eta = _random_state(rng, case)
            expected = _unsorted_day_step(assignment.masses, costs, eta)
            with np.errstate(all="raise"):
                stepped = day_step(assignment, sc, eta, costs=costs)
            assert np.array_equal(stepped.masses, expected), case
            assert stepped.day == assignment.day + 1
            assert stepped.centers is assignment.centers

    def test_scenario_costs_by_default(self):
        sc = basic_scenario(mpr=0.4)
        assignment = init_assignment(sc, BIN_WIDTH)
        for _ in range(20):
            expected = _pairwise_day_step(assignment.masses, bin_costs(assignment, sc), 0.05)
            assignment = day_step(assignment, sc, eta=0.05)
            assert np.max(np.abs(assignment.masses - expected)) <= 1e-12 * N_TOTAL

    def test_given_costs_match_computed_ones(self):
        sc = basic_scenario(mpr=0.4)
        assignment = day_step(init_assignment(sc, BIN_WIDTH), sc, eta=0.05)
        costs = bin_costs(assignment, sc)
        assert np.array_equal(
            day_step(assignment, sc, 0.05, costs=costs).masses,
            day_step(assignment, sc, 0.05).masses,
        )
        assert gap_measure(assignment, sc, costs=costs) == gap_measure(assignment, sc)

    def test_memory_stays_linear_in_bins(self):
        # the pairwise form needs 3.2 GB per n x n temporary at 20,000 bins
        sc = basic_scenario(mpr=0.5)
        n = 20_000
        rng = np.random.default_rng(5)
        masses = rng.random((2, n))
        masses *= (N_TOTAL / 2.0) / masses.sum(axis=1, keepdims=True)
        centers = 8.0 + BIN_WIDTH * (np.arange(n, dtype=float) - n // 2)
        assignment = BinAssignment(bin_width=BIN_WIDTH, centers=centers, masses=masses)
        tracemalloc.start()
        try:
            stepped = day_step(assignment, sc, eta=0.05)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert_allclose(stepped.masses.sum(axis=1), N_TOTAL / 2.0, rtol=1e-13)


class TestDayStep:
    def test_mass_conservation(self):
        sc = basic_scenario(mpr=0.4)
        assignment = init_assignment(sc, BIN_WIDTH)
        for _ in range(5):
            assignment = day_step(assignment, sc, eta=0.05)
        assert abs(assignment.class_mass(VehicleClass.GV).sum() - 1800.0) <= 1e-12 * N_TOTAL
        assert abs(assignment.class_mass(VehicleClass.EV).sum() - 1200.0) <= 1e-12 * N_TOTAL
        assert np.all(assignment.masses >= 0.0)

    def test_equal_cost_state_is_fixed_point(self):
        # costs equalize up to one float round trip, so motion is at rounding scale
        sc = basic_scenario()
        assignment = _equal_cost_assignment(sc, level=4.0)
        stepped = day_step(assignment, sc, eta=0.05)
        assert float(np.max(np.abs(stepped.masses - assignment.masses))) <= 1e-9
        assert stepped.day == 1

    def test_unequal_costs_move_mass(self):
        sc = basic_scenario()
        assignment = init_assignment(sc, BIN_WIDTH)
        stepped = day_step(assignment, sc, eta=0.05)
        assert not np.array_equal(stepped.masses, assignment.masses)

    def test_all_mass_in_one_bin_strictly_leaves(self):
        sc = basic_scenario()
        template = init_assignment(sc, BIN_WIDTH)
        masses = np.zeros_like(template.masses)
        loaded = int(np.argmin(np.abs(template.centers - 8.0)))
        masses[0, loaded] = N_TOTAL
        assignment = BinAssignment(
            bin_width=BIN_WIDTH, centers=template.centers, masses=masses, day=0
        )
        stepped = day_step(assignment, sc, eta=0.05)
        assert stepped.masses[0, loaded] < N_TOTAL
        assert_allclose(stepped.masses[0].sum(), N_TOTAL, rtol=1e-13)

    def test_eta_out_of_range(self):
        sc = basic_scenario()
        assignment = init_assignment(sc, BIN_WIDTH)
        with pytest.raises(ValueError):
            day_step(assignment, sc, eta=0.0)
        with pytest.raises(ValueError):
            day_step(assignment, sc, eta=1.5)


class TestBinCosts:
    def test_given_schedule_matches_computed_one(self):
        sc = basic_scenario(mpr=0.3)
        assignment = init_assignment(sc, BIN_WIDTH)
        schedule = schedule_delay(assignment.centers, sc)
        assert np.array_equal(bin_costs(assignment, sc, schedule), bin_costs(assignment, sc))

    def test_negative_mass_rejected(self):
        sc = basic_scenario()
        assignment = init_assignment(sc, BIN_WIDTH)
        masses = assignment.masses.copy()
        masses[0, 3] = -1.0
        with pytest.raises(ValueError, match="flow must be nonnegative"):
            bin_costs(replace(assignment, masses=masses), sc)


class TestGapMeasure:
    def test_empty_assignment(self):
        sc = replace(basic_scenario(), n_total=0.0)
        report = gap_measure(init_assignment(sc, BIN_WIDTH), sc)
        assert report.gap == {}
        assert report.worst_relative_gap == 0.0

    def test_equal_cost_state_has_zero_gap(self):
        sc = basic_scenario()
        assignment = _equal_cost_assignment(sc, level=4.0)
        report = gap_measure(assignment, sc)
        assert report.gap[VehicleClass.GV] <= 1e-9

    def test_initial_spread_gap_dominated_by_schedule_penalty(self):
        # per-bin flows start tiny, so the cost spread is almost pure scheduling
        sc = basic_scenario()
        assignment = init_assignment(sc, BIN_WIDTH)
        report = gap_measure(assignment, sc)
        sd_span = float(np.max(schedule_delay(assignment.centers, sc)))
        assert report.gap[VehicleClass.GV] >= 0.9 * sd_span

    def test_single_used_bin_gap_vs_cheapest_empty(self):
        sc = basic_scenario()
        template = init_assignment(sc, BIN_WIDTH)
        masses = np.zeros_like(template.masses)
        # park everyone far on the early side: an empty bin near t* is cheaper
        masses[0, 0] = N_TOTAL
        assignment = BinAssignment(
            bin_width=BIN_WIDTH, centers=template.centers, masses=masses, day=0
        )
        report = gap_measure(assignment, sc)
        costs = bin_costs(assignment, sc)[0]
        assert report.gap[VehicleClass.GV] == pytest.approx(costs[0] - costs.min())
        assert report.gap[VehicleClass.GV] > 0.0


class TestConvergedRuns:
    def test_empty_population_converges_immediately(self):
        sc = replace(basic_scenario(), n_total=0.0)
        _, report = run_until_converged(sc)
        assert report.converged
        assert report.days == 0

    def test_single_class_reaches_gap_tolerance(self, scenario, oracle_mpr0):
        _, report, _ = oracle_mpr0
        assert report.converged
        assert report.stop_reason == "gap_tol"
        assert report.worst_relative_gap < 1e-3

    def test_single_class_matches_analytic_profile(self, scenario, oracle_mpr0, gv_solution):
        assignment, _, _ = oracle_mpr0
        delays = assignment.delays(scenario)
        reference = solution_delay(gv_solution, assignment.centers)
        used = assignment.class_mass(VehicleClass.GV) > 1e-3 * N_TOTAL
        deviation = np.abs(delays - reference)[used] / float(np.max(reference))
        assert float(np.max(deviation)) <= 0.02

    def test_single_class_day_counts(self, oracle_mpr0, oracle_mpr1):
        # the bundled corridor; any change to the update rule moves these
        assert oracle_mpr0[1].days == 2831
        assert oracle_mpr1[1].days == 1555

    def test_gap_trend_over_fifty_day_windows(self, oracle_mpr0):
        _, report, _ = oracle_mpr0
        trace = report.trace.max(axis=1)
        lag = 50
        starts = np.arange(trace.size - lag)
        violations = np.sum(trace[starts + lag] > trace[starts])
        assert violations <= 0.05 * starts.size

    def test_mixed_classes_segregate(self, oracle_mixed):
        assignment, report, _ = oracle_mixed
        assert report.converged
        used_ev = np.nonzero(assignment.class_mass(VehicleClass.EV) > 1e-3 * N_TOTAL)[0]
        used_gv = np.nonzero(assignment.class_mass(VehicleClass.GV) > 1e-3 * N_TOTAL)[0]
        assert np.all(np.diff(used_ev) == 1)  # contiguous center block
        centers = assignment.centers
        assert centers[used_ev[0]] < 8.0 < centers[used_ev[-1]]
        # GV bins flank the EV block; only boundary bins may host both classes
        interior = used_gv[(used_gv > used_ev[0]) & (used_gv < used_ev[-1])]
        assert interior.size == 0

    def test_mass_conserved_through_entire_run(self, oracle_mixed):
        assignment, _, _ = oracle_mixed
        assert abs(assignment.class_mass(VehicleClass.GV).sum() - 1500.0) <= 1e-9 * N_TOTAL
        assert abs(assignment.class_mass(VehicleClass.EV).sum() - 1500.0) <= 1e-9 * N_TOTAL

    def test_mixed_run_leaves_no_stale_state(self, oracle_mixed):
        assignment, report, _ = oracle_mixed
        _assert_no_stale_grid_state(assignment, report, basic_scenario(mpr=0.5))

    @pytest.mark.parametrize("eta", [5.0, 0.0, -1.0, float("nan")])
    def test_eta_out_of_range_rejected_up_front(self, eta):
        # an empty fleet never reaches day_step, so the run itself must check
        sc = replace(basic_scenario(), n_total=0.0)
        with pytest.raises(ValueError, match="eta must lie in"):
            run_until_converged(sc, eta=eta)

    def test_unconverged_run_is_reported_not_raised(self, scenario):
        _, report = run_until_converged(scenario, max_days=3)
        assert report.converged is False
        assert report.stop_reason == "max_days"
        assert report.days == 3

    def test_grid_grows_past_a_too_narrow_initial_spread(self):
        # mild congestion makes the width heuristic collapse to a few bins;
        # the run must widen the grid instead of equalizing inside it
        sc = Scenario(
            alpha=8.4,
            beta=4.2,
            gamma=16.8,
            t_star=9.0,
            nu=4.1,
            n_total=1500.0,
            capacity_r=6000.0,
            trip_km=10.0,
            gv_energy=EnergyModel(VehicleClass.GV, 4.0, 16.8),
            ev_energy=EnergyModel(VehicleClass.EV, 0.5, 3.0),
        )
        seed_grid = init_assignment(sc, BIN_WIDTH)
        assignment, report = run_until_converged(sc)
        assert assignment.centers.size > seed_grid.centers.size
        assert report.converged
        # per-grid state (the schedule penalty) must follow the grown grid
        _assert_no_stale_grid_state(assignment, report, sc)
        analytic = solve_single_class(sc, sc.gv_energy)
        delays = assignment.delays(sc)
        reference = solution_delay(analytic, assignment.centers)
        used = assignment.class_mass(VehicleClass.GV) > 1e-3 * sc.n_total
        deviation = np.abs(delays - reference)[used] / float(np.max(reference))
        assert float(np.max(deviation)) <= 0.02
