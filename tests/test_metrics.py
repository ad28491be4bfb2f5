"""Indicator tests: ECP measure, ECD differences, cost accounting identities.

The exact ECP is checked against the grid measure it replaced
(``conftest.grid_ecp``), and the exact cost totals against a refined
trapezoid of flow times cost over arrival time.
"""

from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from commuteq import (
    VehicleClass,
    energy_cost,
    extra_congested_period,
    extra_congestion_delay,
    flow_from_delay,
    sample_profiles,
    schedule_delay,
    solution_delay,
    solve_mixed,
    solve_system_optimum,
    summarize,
    toll_at_delay,
)
from commuteq.equilibrium import TimeProfile
from commuteq.numerics import DEFAULTS, trapezoid_refine
from conftest import basic_scenario, grid_ecp, interpolated_ecd

# frozen from the solved patterns after oracle verification
GOLDEN_PEAK_DELAY_RATIO = 1.5239669599992096
GOLDEN_MAX_ECD_UNTOLLED = 0.13697170394691172
GOLDEN_MAX_ECD_TOLLED = 0.023608838891727924


def _synthetic_profile(times, delay):
    times = np.asarray(times, dtype=float)
    delay = np.asarray(delay, dtype=float)
    zeros = np.zeros_like(times)
    return TimeProfile(
        times=times,
        dt=float(times[1] - times[0]) if times.size > 1 else 1.0,
        delay=delay,
        flow_total=zeros.copy(),
        flow_gv=zeros.copy(),
        flow_ev=zeros.copy(),
        cost_travel_time=zeros.copy(),
        cost_energy=zeros.copy(),
        cost_schedule=zeros.copy(),
        toll=zeros.copy(),
        cost_total=zeros.copy(),
        active=np.zeros(times.shape, dtype=np.int8),
    )


class TestExtraCongestedPeriod:
    def test_profile_against_its_own_max_is_zero(self, gv_solution, mixed_solution):
        assert extra_congested_period(gv_solution, gv_solution.max_delay) == 0.0
        assert extra_congested_period(mixed_solution, mixed_solution.max_delay) == 0.0

    def test_everywhere_below_threshold(self, gv_solution):
        assert extra_congested_period(gv_solution, 10.0) == 0.0

    def test_tent_crossing_interpolation(self):
        # delay rises 0 -> 1 -> 0 over [0, 2]; above 0.5 from t=0.5 to t=1.5
        profile = _synthetic_profile([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
        assert_allclose(grid_ecp(profile, 0.5), 1.0, rtol=1e-15)

    def test_flat_top(self):
        profile = _synthetic_profile([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 1.0, 0.0])
        assert_allclose(grid_ecp(profile, 0.5), 2.0, rtol=1e-15)

    def test_threshold_zero_counts_whole_window(self, mixed_solution):
        profile = _synthetic_profile([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
        # strictly above zero only inside the open interval
        assert_allclose(grid_ecp(profile, 0.0), 2.0, rtol=1e-15)
        whole = extra_congested_period(mixed_solution, 0.0)
        assert_allclose(whole, mixed_solution.duration, rtol=1e-12)

    def test_negative_threshold_rejected(self, gv_solution):
        with pytest.raises(ValueError):
            extra_congested_period(gv_solution, -1.0)
        with pytest.raises(ValueError):
            grid_ecp(gv_solution.profile, -1.0)

    def test_mixed_beats_baseline(self, scenario, gv_solution, mixed_solution):
        baseline_max = gv_solution.max_delay
        ecp_half = extra_congested_period(mixed_solution, baseline_max)
        ev_solution = solve_mixed(replace(scenario, mpr=1.0))
        ecp_full = extra_congested_period(ev_solution, baseline_max)
        assert 0.0 < ecp_half < ecp_full

    @pytest.mark.parametrize("mpr", [0.5, 1.0])
    @pytest.mark.parametrize("share", [0.2, 0.6, 0.9])
    def test_grid_measure_converges_to_the_exact_one(self, scenario, mpr, share):
        # thresholds in the outer GV band and in the EV band at mpr 0.5; the
        # interpolated crossings converge at O(dt**2)
        solution = solve_mixed(replace(scenario, mpr=mpr))
        threshold = share * solution.max_delay
        exact = extra_congested_period(solution, threshold)
        errors = [
            abs(grid_ecp(sample_profiles(solution, minutes / 60.0), threshold) - exact) / exact
            for minutes in (1.0, 0.1, 0.01)
        ]
        assert errors[2] < 1e-6
        assert errors[2] < errors[1] < errors[0]

    def test_system_optimum_against_the_grid_measure(self, scenario, gv_solution):
        sc = replace(scenario, mpr=1.0)
        so = solve_system_optimum(sc, sc.ev_energy)
        threshold = 0.5 * so.max_delay
        exact = extra_congested_period(so, threshold)
        grid = grid_ecp(sample_profiles(so, 0.01 / 60.0), threshold)
        assert_allclose(grid, exact, rtol=1e-6)
        assert extra_congested_period(so, gv_solution.max_delay) == 0.0


class TestExtraCongestionDelay:
    def test_profile_against_itself(self, gv_solution):
        _, delta = extra_congestion_delay(gv_solution, gv_solution, DEFAULTS.dt)
        assert np.all(delta == 0.0)

    def test_antisymmetry(self, gv_solution, ev_solution):
        _, forward = extra_congestion_delay(ev_solution, gv_solution, DEFAULTS.dt)
        _, backward = extra_congestion_delay(gv_solution, ev_solution, DEFAULTS.dt)
        assert_allclose(forward, -backward, rtol=0, atol=0)

    def test_untolled_ecd_positive_on_central_region(self, gv_solution, ev_solution):
        # positive on one contiguous block around t* covering most of the window
        grid, delta = extra_congestion_delay(ev_solution, gv_solution, DEFAULTS.dt)
        t0, t1 = ev_solution.window
        inside = (grid >= t0) & (grid <= t1)
        assert np.mean(delta[inside] > 0.0) > 0.75
        positive = np.nonzero(inside & (delta > 0.0))[0]
        assert np.all(np.diff(positive) == 1)
        assert grid[positive[0]] < 8.0 < grid[positive[-1]]

    def test_golden_untolled_maximum(self, gv_solution, ev_solution):
        _, delta = extra_congestion_delay(ev_solution, gv_solution, DEFAULTS.dt)
        assert_allclose(float(np.max(delta)), GOLDEN_MAX_ECD_UNTOLLED, rtol=1e-6)

    def test_golden_tolled_maximum(self, scenario, gv_solution):
        sc = replace(scenario, mpr=1.0)
        so = solve_system_optimum(sc, sc.ev_energy)
        _, delta = extra_congestion_delay(so, gv_solution, DEFAULTS.dt)
        assert_allclose(float(np.max(delta)), GOLDEN_MAX_ECD_TOLLED, rtol=1e-6)

    @pytest.mark.parametrize("dt_minutes", [3.0, 1.0, 0.5, 0.1, 0.01])
    def test_equals_the_interpolated_profiles(self, dt_minutes):
        # the exact delays on the union grid against the sampled profiles
        # interpolated there: 7 patterns against the all-GV baseline, both ways
        dt = dt_minutes / 60.0
        baseline = solve_mixed(basic_scenario(0.0))
        patterns = [solve_mixed(basic_scenario(mpr)) for mpr in (0.0, 0.1, 0.5, 0.9, 1.0)]
        patterns += [_solved("so", mpr) for mpr in (0.0, 1.0)]
        for pattern in patterns:
            for a, b in ((pattern, baseline), (baseline, pattern)):
                grid, delta = extra_congestion_delay(a, b, dt)
                reference = interpolated_ecd(sample_profiles(a, dt), sample_profiles(b, dt))
                assert np.array_equal(grid, reference[0])
                assert np.array_equal(delta, reference[1])


def _quadrature_breakdown(solution) -> tuple[float, float, float, float]:
    """(travel time, energy, schedule, toll) totals by refined trapezoids of
    flow x cost over arrival time, along :func:`solution_delay`.

    The window is split at every segment edge and at t*; on each piece the
    quintic stretch t = t0 + (t1 - t0) * u**3 * (10 - 15u + 6u**2) flattens
    the integrand at both ends, including the delay**(1/nu) flow at the
    window edges.
    """
    sc = solution.scenario
    totals = np.zeros(4)
    for seg in solution.segments:
        model = sc.energy_model(seg.vehicle_class)
        cuts = [seg.t_lo, *([sc.t_star] if seg.t_lo < sc.t_star < seg.t_hi else []), seg.t_hi]
        for t0, t1 in zip(cuts, cuts[1:]):
            for i in range(4):

                def integrand(u, i=i, t0=t0, t1=t1, model=model):
                    t = t0 + (t1 - t0) * u**3 * (10.0 - 15.0 * u + 6.0 * u * u)
                    delay = solution_delay(solution, t)
                    cost = (
                        sc.alpha * delay,
                        energy_cost(model, delay),
                        schedule_delay(t, sc),
                        toll_at_delay(model, sc, delay) if solution.optimum else 0.0 * delay,
                    )[i]
                    stretch = 30.0 * (t1 - t0) * (u * (1.0 - u)) ** 2
                    return flow_from_delay(delay, sc) * cost * stretch

                totals[i] += trapezoid_refine(integrand, 0.0, 1.0, rtol=1e-11)
    return tuple(totals)


def _solved(kind: str, mpr: float):
    sc = basic_scenario(mpr=mpr)
    if kind == "ue":
        return solve_mixed(sc)
    return solve_system_optimum(sc, sc.energy_model(VehicleClass.EV if mpr else VehicleClass.GV))


class TestCostAccounting:
    def test_equilibrium_cost_identity(self, gv_solution, ev_solution):
        # constancy x conservation: the components sum to C * N
        for solution in (gv_solution, ev_solution):
            ((cls, cost),) = solution.class_costs.items()
            assert_allclose(solution.costs.social, cost * solution.class_counts[cls], rtol=1e-12)

    def test_mixed_cost_identity(self, mixed_solution):
        expected = sum(
            mixed_solution.class_costs[cls] * mixed_solution.class_counts[cls]
            for cls in (VehicleClass.GV, VehicleClass.EV)
        )
        assert_allclose(mixed_solution.costs.social, expected, rtol=1e-12)

    def test_empty_profile(self):
        sc = replace(basic_scenario(), n_total=0.0)
        breakdown = solve_mixed(sc).costs
        assert breakdown.social == 0.0
        assert breakdown.toll_revenue == 0.0
        empty_so = solve_system_optimum(sc, sc.gv_energy)
        assert empty_so.costs.social == 0.0
        assert empty_so.toll_revenue == 0.0

    def test_so_cheaper_than_ue_on_same_grid(self, scenario, ev_solution):
        sc = replace(scenario, mpr=1.0)
        so = solve_system_optimum(sc, sc.ev_energy)
        assert so.costs.social < ev_solution.costs.social

    def test_toll_revenue_separated_from_social_cost(self, scenario):
        sc = replace(scenario, mpr=1.0)
        so = solve_system_optimum(sc, sc.ev_energy)
        breakdown = so.costs
        assert breakdown.toll_revenue > 0.0
        assert_allclose(
            breakdown.social,
            breakdown.travel_time + breakdown.energy + breakdown.schedule_delay,
            rtol=1e-15,
        )

    @pytest.mark.parametrize(
        "kind, mpr", [("ue", 0.0), ("ue", 0.5), ("ue", 1.0), ("so", 0.0), ("so", 1.0)]
    )
    def test_components_match_the_time_quadrature(self, kind, mpr):
        solution = _solved(kind, mpr)
        breakdown = solution.costs
        exact = (
            breakdown.travel_time,
            breakdown.energy,
            breakdown.schedule_delay,
            breakdown.toll_revenue,
        )
        reference = _quadrature_breakdown(solution)
        assert_allclose(exact, reference, rtol=1e-8, atol=0.0)
        assert (breakdown.toll_revenue > 0.0) == (kind == "so")

    @pytest.mark.parametrize("mpr", [0.0, 1.0])
    def test_so_total_cost_is_the_social_total(self, mpr):
        so = _solved("so", mpr)
        (count,) = so.class_counts.values()
        assert so.total_cost == so.costs.social
        assert_allclose(so.total_cost, so.multiplier * count - so.toll_revenue, rtol=1e-12)


class TestSummarize:
    def test_baseline_free_report(self, gv_solution):
        # a solution summarized against itself has no extra congestion
        report = summarize(gv_solution, gv_solution, DEFAULTS.dt)
        assert report.ecp == 0.0
        assert report.max_ecd == 0.0
        assert_allclose(gv_solution.peak_flow, np.max(gv_solution.profile.flow_total), rtol=1e-14)

    def test_peak_delay_ratio_band_and_golden(self, gv_solution, ev_solution):
        ratio = ev_solution.max_delay / gv_solution.max_delay
        assert 1.4 <= ratio <= 2.0
        assert_allclose(ratio, GOLDEN_PEAK_DELAY_RATIO, rtol=1e-6)

    def test_full_report_against_baseline(self, gv_solution, ev_solution):
        report = summarize(ev_solution, gv_solution, DEFAULTS.dt)
        assert report.ecp > 0.0
        assert report.max_ecd > 0.0
        assert_allclose(report.max_ecd, GOLDEN_MAX_ECD_UNTOLLED, rtol=1e-6)
        assert ev_solution.peak_flow > 0.0
