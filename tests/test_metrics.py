"""Indicator tests: ECP measure, ECD differences, cost accounting identities."""

from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from commuteq import (
    VehicleClass,
    extra_congested_period,
    extra_congestion_delay,
    solve_mixed,
    solve_system_optimum,
    summarize,
    total_cost_breakdown,
)
from commuteq.equilibrium import TimeProfile
from conftest import basic_scenario

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
        window=(float(times[0]), float(times[-1])),
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
    def test_profile_against_its_own_max_is_zero(self, gv_solution):
        profile = gv_solution.profile
        assert extra_congested_period(profile, float(np.max(profile.delay))) == 0.0

    def test_everywhere_below_threshold(self, gv_solution):
        assert extra_congested_period(gv_solution.profile, 10.0) == 0.0

    def test_tent_crossing_interpolation(self):
        # delay rises 0 -> 1 -> 0 over [0, 2]; above 0.5 from t=0.5 to t=1.5
        profile = _synthetic_profile([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
        assert_allclose(extra_congested_period(profile, 0.5), 1.0, rtol=1e-15)

    def test_flat_top(self):
        profile = _synthetic_profile([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 1.0, 0.0])
        assert_allclose(extra_congested_period(profile, 0.5), 2.0, rtol=1e-15)

    def test_threshold_zero_counts_whole_window(self):
        profile = _synthetic_profile([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
        # strictly above zero only inside the open interval
        assert_allclose(extra_congested_period(profile, 0.0), 2.0, rtol=1e-15)

    def test_negative_threshold_rejected(self, gv_solution):
        with pytest.raises(ValueError):
            extra_congested_period(gv_solution.profile, -1.0)

    def test_mixed_beats_baseline(self, scenario, gv_solution, mixed_solution):
        baseline_max = float(np.max(gv_solution.profile.delay))
        ecp_half = extra_congested_period(mixed_solution.profile, baseline_max)
        ev_solution = solve_mixed(replace(scenario, mpr=1.0))
        ecp_full = extra_congested_period(ev_solution.profile, baseline_max)
        assert 0.0 < ecp_half < ecp_full


class TestExtraCongestionDelay:
    def test_profile_against_itself(self, gv_solution):
        _, delta = extra_congestion_delay(gv_solution.profile, gv_solution.profile)
        assert np.all(delta == 0.0)

    def test_antisymmetry(self, gv_solution, ev_solution):
        _, forward = extra_congestion_delay(ev_solution.profile, gv_solution.profile)
        _, backward = extra_congestion_delay(gv_solution.profile, ev_solution.profile)
        assert_allclose(forward, -backward, rtol=0, atol=0)

    def test_untolled_ecd_positive_on_central_region(self, gv_solution, ev_solution):
        # positive on one contiguous block around t* covering most of the window
        grid, delta = extra_congestion_delay(ev_solution.profile, gv_solution.profile)
        t0, t1 = ev_solution.window
        inside = (grid >= t0) & (grid <= t1)
        assert np.mean(delta[inside] > 0.0) > 0.75
        positive = np.nonzero(inside & (delta > 0.0))[0]
        assert np.all(np.diff(positive) == 1)
        assert grid[positive[0]] < 8.0 < grid[positive[-1]]

    def test_golden_untolled_maximum(self, gv_solution, ev_solution):
        _, delta = extra_congestion_delay(ev_solution.profile, gv_solution.profile)
        assert_allclose(float(np.max(delta)), GOLDEN_MAX_ECD_UNTOLLED, rtol=1e-6)

    def test_golden_tolled_maximum(self, scenario, gv_solution):
        sc = replace(scenario, mpr=1.0)
        so = solve_system_optimum(sc, sc.ev_energy)
        _, delta = extra_congestion_delay(so.profile, gv_solution.profile)
        assert_allclose(float(np.max(delta)), GOLDEN_MAX_ECD_TOLLED, rtol=1e-6)


class TestCostAccounting:
    def test_equilibrium_cost_identity(self, gv_solution):
        # constancy x conservation: component integrals sum to C * (grid flow mass)
        profile = gv_solution.profile
        breakdown = total_cost_breakdown(profile)
        cost = gv_solution.class_costs[VehicleClass.GV]
        grid_mass = float(np.trapezoid(profile.flow_total, profile.times))
        assert_allclose(breakdown.social, cost * grid_mass, rtol=1e-6)

    def test_mixed_cost_identity(self, mixed_solution):
        profile = mixed_solution.profile
        breakdown = total_cost_breakdown(profile)
        expected = 0.0
        for cls, flow in ((VehicleClass.GV, profile.flow_gv), (VehicleClass.EV, profile.flow_ev)):
            expected += mixed_solution.class_costs[cls] * float(
                np.trapezoid(flow, profile.times)
            )
        assert_allclose(breakdown.social, expected, rtol=1e-6)

    def test_empty_profile(self):
        sc = replace(basic_scenario(), n_total=0.0)
        solution = solve_mixed(sc)
        breakdown = total_cost_breakdown(solution.profile)
        assert breakdown.social == 0.0
        assert breakdown.toll_revenue == 0.0

    def test_so_cheaper_than_ue_on_same_grid(self, scenario, ev_solution):
        sc = replace(scenario, mpr=1.0)
        so = solve_system_optimum(sc, sc.ev_energy)
        so_costs = total_cost_breakdown(so.profile)
        ue_costs = total_cost_breakdown(ev_solution.profile)
        assert so_costs.social < ue_costs.social

    def test_toll_revenue_separated_from_social_cost(self, scenario):
        sc = replace(scenario, mpr=1.0)
        so = solve_system_optimum(sc, sc.ev_energy)
        breakdown = total_cost_breakdown(so.profile)
        assert breakdown.toll_revenue > 0.0
        assert_allclose(
            breakdown.social,
            breakdown.travel_time + breakdown.energy + breakdown.schedule_delay,
            rtol=1e-15,
        )


class TestSummarize:
    def test_baseline_free_report(self, gv_solution):
        # a profile summarized against itself has no extra congestion
        report = summarize(gv_solution.profile, gv_solution.profile)
        assert report.ecp == 0.0
        assert report.max_ecd == 0.0
        assert_allclose(report.max_delay, gv_solution.max_delay, rtol=1e-12)
        assert_allclose(report.duration, gv_solution.duration, rtol=1e-12)

    def test_peak_delay_ratio_band_and_golden(self, gv_solution, ev_solution):
        ratio = ev_solution.max_delay / gv_solution.max_delay
        assert 1.4 <= ratio <= 2.0
        assert_allclose(ratio, GOLDEN_PEAK_DELAY_RATIO, rtol=1e-6)

    def test_full_report_against_baseline(self, gv_solution, ev_solution):
        report = summarize(ev_solution.profile, gv_solution.profile)
        assert report.ecp > 0.0
        assert report.max_ecd > 0.0
        assert_allclose(report.max_ecd, GOLDEN_MAX_ECD_UNTOLLED, rtol=1e-6)
        assert report.peak_flow > 0.0
