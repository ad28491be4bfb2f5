"""System-optimum and toll tests: optimality conditions and decentralization."""

from dataclasses import fields, replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from commuteq import (
    EnergyModel,
    EquilibriumSolution,
    SolverError,
    VehicleClass,
    cli,
    compute_toll,
    flow_from_delay,
    minimize_binned_total_cost,
    sample_profiles,
    solution_delay,
    solve_system_optimum,
    toll_at_delay,
    verify_tolled_equilibrium,
)
from commuteq import equilibrium
from commuteq.model import congestion_cost_map, marginal_social_cost_map
from commuteq.numerics import trapezoid_refine
from conftest import N_TOTAL, basic_scenario, reference_psi

GOLDEN_MULTIPLIER = 5.496988810052838
GOLDEN_SO_TOTAL_COST = 9121.457409009927


@pytest.fixture(scope="module")
def sc():
    return basic_scenario(mpr=1.0)


@pytest.fixture(scope="module")
def so(sc):
    return solve_system_optimum(sc, sc.ev_energy)


@pytest.fixture(scope="module")
def profile(so):
    return sample_profiles(so, 1.0 / 60.0)


@pytest.fixture(scope="module")
def toll(profile):
    return compute_toll(profile)


class TestMarginalSocialCost:
    """``marginal_social_cost_map`` against Phi + tau, its definition."""

    def test_equals_phi_plus_toll(self, sc):
        ts = np.linspace(0.0, 3.0, 301)
        for model in (sc.gv_energy, sc.ev_energy):
            psi = marginal_social_cost_map(model, sc)
            assert_allclose(psi(ts), reference_psi(model, sc, ts), rtol=1e-14, atol=0.0)

    def test_strictly_increasing(self, sc):
        ts = np.linspace(0.0, 2.0, 2001)
        values = marginal_social_cost_map(sc.ev_energy, sc)(ts)
        assert np.all(np.diff(values) > 0.0)

    def test_exceeds_private_cost(self, sc):
        ts = np.linspace(0.01, 2.0, 200)
        psi = marginal_social_cost_map(sc.ev_energy, sc)
        assert np.all(psi(ts) > congestion_cost_map(sc.ev_energy, sc)(ts))

    def test_inverse_round_trip(self, sc):
        ts = np.linspace(0.0, 3.0, 301)
        for model in (sc.gv_energy, sc.ev_energy):
            values = reference_psi(model, sc, ts)
            assert_allclose(
                marginal_social_cost_map(model, sc).invert(values), ts, rtol=1e-12, atol=1e-15
            )


class TestSystemOptimum:
    def test_empty_population(self):
        sc = replace(basic_scenario(mpr=1.0), n_total=0.0)
        empty = solve_system_optimum(sc, sc.ev_energy)
        assert empty.is_empty
        assert empty.multiplier == 0.0
        assert empty.costs.social == 0.0

    def test_golden_multiplier(self, so):
        assert_allclose(so.multiplier, GOLDEN_MULTIPLIER, rtol=1e-6)

    def test_flow_conservation_on_grid(self, so):
        integral = float(np.trapezoid(so.profile.flow_total, so.profile.times))
        assert_allclose(integral, N_TOTAL, rtol=1e-2)

    def test_window_edges_have_zero_delay(self, sc, so):
        from commuteq import schedule_delay

        edges = np.array(so.window)
        residual = np.maximum(so.multiplier - schedule_delay(edges, sc), 0.0)
        edge_delays = marginal_social_cost_map(sc.ev_energy, sc).invert(residual)
        assert np.all(edge_delays <= 1e-9)
        outside = so.profile.active < 0
        assert np.all(so.profile.delay[outside] == 0.0)

    def test_wider_window_and_lower_peak_than_equilibrium(self, sc, so, ev_solution):
        assert so.window[1] - so.window[0] > ev_solution.duration
        assert so.max_delay < ev_solution.max_delay

    def test_cheaper_than_equilibrium(self, so, ev_solution):
        ue_total = ev_solution.class_costs[VehicleClass.EV] * N_TOTAL
        assert so.costs.social < ue_total * (1.0 - 0.001)

    def test_missed_conservation_is_a_solver_error(self, sc, monkeypatch):
        # a root stopped at 1% of the multiplier misses the fleet by ~1e-4 of N
        monkeypatch.setattr(equilibrium, "ROOT_RTOL", 1e-2)
        with pytest.raises(SolverError, match="per-class conservation") as err:
            solve_system_optimum(sc, sc.ev_energy)
        assert err.value.diagnostics["populations"] == (N_TOTAL,)

    def test_tolled_cost_constant_at_multiplier(self, so):
        inside = so.profile.active >= 0
        totals = so.profile.cost_total[inside]
        assert_allclose(totals, so.multiplier, rtol=1e-12)

    def test_model_must_be_the_scenarios_own(self, sc):
        # the profile is sampled with the scenario's model of the class
        with pytest.raises(ValueError, match="energy model"):
            solve_system_optimum(sc, EnergyModel(VehicleClass.EV, 1.0, 2.0))


def _single_class_optimum(mpr):
    sc = basic_scenario(mpr=mpr)
    return solve_system_optimum(sc, sc.energy_model(VehicleClass.EV if mpr else VehicleClass.GV))


class TestOneSolutionType:
    def test_optimum_is_an_equilibrium_solution(self, so):
        assert isinstance(so, EquilibriumSolution)
        assert so.optimum and not EquilibriumSolution.optimum

    @pytest.mark.parametrize("mpr", [0.0, 1.0])
    def test_resampling_at_the_solve_dt_reproduces_the_profile(self, mpr):
        optimum = _single_class_optimum(mpr)
        resampled = sample_profiles(optimum, optimum.profile.dt)
        for field in fields(resampled):
            name = field.name
            assert np.array_equal(getattr(resampled, name), getattr(optimum.profile, name)), name

    @pytest.mark.parametrize("mpr", [0.0, 1.0])
    def test_solution_delay_inverts_psi(self, mpr):
        optimum = _single_class_optimum(mpr)
        delay = solution_delay(optimum, optimum.profile.times)
        assert np.array_equal(delay, optimum.profile.delay)


def _trapezoid_revenue(sc, model, lam, rtol=1e-12):
    """`(1/beta + 1/gamma) * int_0^lam q * tau dr` by trapezoid refinement.

    The reference for the closed-form revenue; the quintic stretch
    r = lam * u**3 * (10 - 15u + 6u**2) flattens both ends of [0, 1].
    """

    def integrand(u):
        r = lam * u**3 * (10.0 - 15.0 * u + 6.0 * u * u)
        delay = marginal_social_cost_map(model, sc).invert(r)
        q_tau = flow_from_delay(delay, sc) * toll_at_delay(model, sc, delay)
        return q_tau * 30.0 * lam * (u * (1.0 - u)) ** 2

    return (1.0 / sc.beta + 1.0 / sc.gamma) * trapezoid_refine(integrand, 0.0, 1.0, rtol=rtol)


class TestTollRevenueClosedForm:
    def test_matches_trapezoid_reference(self):
        rng = np.random.default_rng(20261019)
        base = basic_scenario(mpr=1.0)
        worst = 0.0
        for i in range(40):
            sc = replace(
                base,
                nu=float(rng.uniform(2.0, 6.0)),
                n_total=N_TOTAL * float(rng.uniform(0.3, 3.0)),
                capacity_r=base.capacity_r * float(rng.uniform(0.5, 2.0)),
            )
            model = (sc.gv_energy, sc.ev_energy)[i % 2]
            optimum = solve_system_optimum(sc, model)
            reference = _trapezoid_revenue(sc, model, optimum.multiplier)
            worst = max(worst, abs(optimum.costs.toll_revenue - reference) / reference)
        assert worst <= 1e-10


class TestTollSchedule:
    def test_hand_computed_value(self, sc):
        # nu * T * Phi'(T) = 4.1 * 0.3 * (8.4 + 0.5 + 6*0.3)
        assert_allclose(toll_at_delay(sc.ev_energy, sc, 0.3), 13.161, rtol=1e-12)

    def test_nonnegative_everywhere(self, toll):
        assert np.all(toll >= 0.0)

    def test_zero_at_and_beyond_window_edges(self, profile, toll):
        outside = profile.active < 0
        assert np.all(toll[outside] == 0.0)

    @pytest.mark.parametrize("mpr", [0.0, 1.0])
    def test_equals_toll_at_delay_on_the_window(self, mpr):
        sc = basic_scenario(mpr=mpr)
        model = sc.energy_model(VehicleClass.EV if mpr else VehicleClass.GV)
        profile = sample_profiles(solve_system_optimum(sc, model), 0.01 / 60.0)
        tolls = compute_toll(profile)
        inside = profile.active >= 0
        expected = toll_at_delay(model, sc, profile.delay[inside])
        assert np.array_equal(tolls[inside], expected)
        assert np.all(tolls[~inside] == 0.0)

    def test_maximal_at_preferred_arrival(self, profile, toll):
        peak_index = int(np.argmax(toll))
        assert_allclose(profile.times[peak_index], 8.0, atol=1e-9)

    def test_revenue_accounting(self, so):
        # grid trapezoid of f*tau must agree with the converged integral
        grid_revenue = float(
            np.trapezoid(so.profile.flow_total * so.profile.toll, so.profile.times)
        )
        assert_allclose(grid_revenue, so.costs.toll_revenue, rtol=1e-2)

    def test_incentive_rebase(self, tmp_path, monkeypatch):
        # the columns `toll --incentive` hands to the CSV writer
        written = {}
        monkeypatch.setattr(cli, "_write_csvs", written.update)
        monkeypatch.setenv("CEQ_DEMAND_MPR", "1")
        assert cli.main(["toll", "--out", str(tmp_path), "--incentive", "--quiet"]) == cli.EXIT_OK
        columns = written[tmp_path / "toll.csv"]
        toll, incentive = columns["toll"], columns["incentive"]
        assert np.all(incentive <= 1e-15)
        assert_allclose(incentive - toll, incentive[0] - toll[0], rtol=0, atol=1e-12)


class TestVerification:
    def test_valid_toll_passes(self, so, profile):
        residual = verify_tolled_equilibrium(so, profile)
        assert residual <= 1e-6 * so.multiplier

    def test_perturbed_toll_detected(self, so, profile):
        tampered = profile.toll.copy()
        inside = np.nonzero(profile.active >= 0)[0]
        tampered[inside[len(inside) // 2]] += 1.0
        assert_allclose(
            verify_tolled_equilibrium(so, replace(profile, toll=tampered)), 1.0, rtol=1e-9
        )

    def test_empty_schedule(self):
        sc = replace(basic_scenario(mpr=1.0), n_total=0.0)
        empty_so = solve_system_optimum(sc, sc.ev_energy)
        assert verify_tolled_equilibrium(empty_so, sample_profiles(empty_so, 1.0 / 60.0)) == 0.0


class TestBinnedMinimization:
    def test_matches_analytic_total_cost(self, sc, so):
        _, mass, value = minimize_binned_total_cost(sc, sc.ev_energy, bin_width=1.0 / 60.0)
        assert_allclose(mass.sum(), N_TOTAL, rtol=1e-9)
        assert np.all(mass >= 0.0)
        assert abs(value - so.costs.social) / so.costs.social <= 0.005

    def test_golden_total_cost(self, so):
        assert_allclose(so.costs.social, GOLDEN_SO_TOTAL_COST, rtol=1e-6)

    def test_empty_population(self):
        sc = replace(basic_scenario(mpr=1.0), n_total=0.0)
        _, mass, value = minimize_binned_total_cost(sc, sc.ev_energy)
        assert value == 0.0
        assert np.all(mass == 0.0)
