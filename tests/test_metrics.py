"""Indicator tests: ECP measure, ECD differences, cost accounting identities.

The exact ECP is checked against the grid measure it replaced
(``conftest.grid_ecp``), the exact max ECD against the grid maxima it
replaced (``conftest.interpolated_ecd``) and a dense scan, and the exact
cost totals against a refined trapezoid of flow times cost over arrival time.
"""

from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from commuteq import (
    EnergyModel,
    VehicleClass,
    energy_cost,
    extra_congested_period,
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
from conftest import basic_scenario, grid_ecp, interpolated_ecd, wide_ranges

# frozen from the solved patterns after oracle verification
GOLDEN_PEAK_DELAY_RATIO = 1.5239669599992096
GOLDEN_MAX_ECD_UNTOLLED = 0.13697170394691172
GOLDEN_MAX_ECD_TOLLED = 0.024046137697152123


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


def _ecd_on_grids(solution, baseline, dt):
    """The ECD curve, solution - baseline, each delay exact, on the union of the
    grids that ``sample_profiles`` lays over the two at ``dt``."""
    grid = np.union1d(sample_profiles(solution, dt).times, sample_profiles(baseline, dt).times)
    return grid, solution_delay(solution, grid) - solution_delay(baseline, grid)


def _wide_draws(seed: int, count: int):
    """``count`` seeded uniform draws over ``WIDE_RANGES``, each at an interior mpr."""
    rng = np.random.default_rng(seed)
    ranges = wide_ranges()
    for _ in range(count):
        p = {name: float(rng.uniform(lo, hi)) for name, (lo, hi) in ranges.items()}
        corridor = ("n_total", "capacity_r", "nu", "trip_km", "alpha", "beta", "gamma")
        yield replace(
            basic_scenario(float(rng.uniform(0.05, 0.95))),
            **{name: p[name] for name in corridor},
            gv_energy=EnergyModel(VehicleClass.GV, p["gv_c1"], p["gv_c2"]),
            ev_energy=EnergyModel(VehicleClass.EV, p["ev_c1"], p["ev_c2"]),
        )


class TestExtraCongestionDelay:
    def test_profile_against_itself(self, gv_solution):
        _, delta = _ecd_on_grids(gv_solution, gv_solution, DEFAULTS.dt)
        assert np.all(delta == 0.0)

    def test_antisymmetry(self, gv_solution, ev_solution):
        _, forward = _ecd_on_grids(ev_solution, gv_solution, DEFAULTS.dt)
        _, backward = _ecd_on_grids(gv_solution, ev_solution, DEFAULTS.dt)
        assert_allclose(forward, -backward, rtol=0, atol=0)

    def test_untolled_ecd_positive_on_central_region(self, gv_solution, ev_solution):
        # positive on one contiguous block around t* covering most of the window
        grid, delta = _ecd_on_grids(ev_solution, gv_solution, DEFAULTS.dt)
        t0, t1 = ev_solution.window
        inside = (grid >= t0) & (grid <= t1)
        assert np.mean(delta[inside] > 0.0) > 0.75
        positive = np.nonzero(inside & (delta > 0.0))[0]
        assert np.all(np.diff(positive) == 1)
        assert grid[positive[0]] < 8.0 < grid[positive[-1]]

    def test_golden_untolled_maximum(self, gv_solution, ev_solution):
        max_ecd = summarize(ev_solution, gv_solution).max_ecd
        assert_allclose(max_ecd, GOLDEN_MAX_ECD_UNTOLLED, rtol=1e-6)

    def test_golden_tolled_maximum(self, scenario, gv_solution):
        sc = replace(scenario, mpr=1.0)
        so = solve_system_optimum(sc, sc.ev_energy)
        assert_allclose(summarize(so, gv_solution).max_ecd, GOLDEN_MAX_ECD_TOLLED, rtol=1e-6)

    @pytest.mark.parametrize("dt_minutes", [3.0, 1.0, 0.5, 0.1, 0.01])
    def test_equals_the_interpolated_profiles(self, dt_minutes):
        # the exact delays on the union grid against the sampled profiles
        # interpolated there, and the grid's maximum below the exact one:
        # 7 patterns against the all-GV baseline, both ways
        dt = dt_minutes / 60.0
        baseline = solve_mixed(basic_scenario(0.0))
        patterns = [solve_mixed(basic_scenario(mpr)) for mpr in (0.0, 0.1, 0.5, 0.9, 1.0)]
        patterns += [_solved("so", mpr) for mpr in (0.0, 1.0)]
        for pattern in patterns:
            for a, b in ((pattern, baseline), (baseline, pattern)):
                grid, delta = _ecd_on_grids(a, b, dt)
                reference = interpolated_ecd(sample_profiles(a, dt), sample_profiles(b, dt))
                assert np.array_equal(grid, reference[0])
                assert np.array_equal(delta, reference[1])
                assert np.max(delta) <= summarize(a, b).max_ecd + 1e-15

    @pytest.mark.parametrize("kind, mpr", [("ue", 0.5), ("ue", 1.0), ("so", 0.0), ("so", 1.0)])
    def test_grid_maxima_rise_to_the_exact_one(self, gv_solution, kind, mpr):
        # the grids at 1, 0.1 and 0.01 min are (to rounding) nested, so their
        # maxima rise; on a UE the maximum is at t*, a node of every grid
        solution = _solved(kind, mpr)
        exact = summarize(solution, gv_solution).max_ecd
        grid = [
            float(np.max(interpolated_ecd(
                sample_profiles(solution, minutes / 60.0),
                sample_profiles(gv_solution, minutes / 60.0),
            )[1]))
            for minutes in (1.0, 0.1, 0.01)
        ]
        assert grid[0] <= grid[1] + 1e-15 and grid[1] <= grid[2] + 1e-15
        assert grid[2] <= exact + 1e-15
        if kind == "ue":
            assert grid == [exact] * 3
        else:
            # the optimum's maximum is at a kink, the baseline window's opening
            errors = [exact - value for value in grid]
            assert errors[2] < errors[1] / 5.0 < errors[0] / 25.0

    def test_exact_maximum_against_a_dense_scan(self):
        # seeded wide draws: the UE at an interior mpr and both optima against
        # the all-GV UE, both ways, so the baseline window lies inside the
        # solution's and around it; no scan node may beat the exact maximum,
        # and the scan's spacing bounds how far below it the scan may read
        nested = set()
        for sc in _wide_draws(20261022, 40):
            baseline = solve_mixed(replace(sc, mpr=0.0))
            patterns = [solve_mixed(sc)]
            patterns += [solve_system_optimum(sc, model) for model in (sc.gv_energy, sc.ev_energy)]
            for pattern in patterns:
                for a, b in ((pattern, baseline), (baseline, pattern)):
                    exact = summarize(a, b).max_ecd
                    peak = max(a.max_delay, b.max_delay)
                    lo, hi = min(a.window[0], b.window[0]), max(a.window[1], b.window[1])
                    times = np.linspace(lo - 0.01, hi + 0.01, 20_001)
                    scan = float(np.max(solution_delay(a, times) - solution_delay(b, times)))
                    assert scan <= exact + 1e-12 * peak
                    assert exact - scan <= 1e-3 * peak
                    nested.add(a.window[0] < b.window[0])
        assert nested == {True, False}

    @pytest.mark.parametrize("c2, alpha", [(30.0, 10.0), (60.0, 14.0), (120.0, 18.0)])
    def test_maximum_where_the_two_slopes_match(self, c2, alpha):
        # a steep quadratic GV map against a linear one (c2 = 0) on another corridor
        # with the same schedule: the difference peaks inside both bands, at the
        # stationary level, above its value at t* and at every band edge
        sc = basic_scenario()
        solution = solve_mixed(replace(sc, gv_energy=EnergyModel(VehicleClass.GV, 4.0, c2)))
        baseline = solve_mixed(
            replace(sc, alpha=alpha, gv_energy=EnergyModel(VehicleClass.GV, 4.0, 0.0))
        )
        exact = summarize(solution, baseline).max_ecd
        nodes = [sc.t_star] + [seg.t_lo for seg in (*solution.segments, *baseline.segments)]
        at_nodes = np.max(solution_delay(solution, nodes) - solution_delay(baseline, nodes))
        times = np.linspace(6.0, 9.0, 400_001)
        scan = float(np.max(solution_delay(solution, times) - solution_delay(baseline, times)))
        assert scan <= exact <= scan * (1.0 + 1e-9)
        assert exact > at_nodes + 1e-4

    def test_nonnegative_and_zero_against_itself(self, gv_solution, ev_solution, mixed_solution):
        empty = solve_mixed(replace(basic_scenario(), n_total=0.0))
        patterns = [gv_solution, ev_solution, mixed_solution, empty]
        patterns += [_solved("so", mpr) for mpr in (0.0, 1.0)]
        for a in patterns:
            assert summarize(a, a).max_ecd == 0.0
            for b in patterns:
                assert summarize(a, b).max_ecd >= 0.0
        assert summarize(empty, gv_solution).max_ecd == 0.0
        assert summarize(gv_solution, empty).max_ecd == gv_solution.max_delay

    @pytest.mark.parametrize("key", ["t_star", "beta", "gamma"])
    def test_mismatched_schedule_raises(self, scenario, gv_solution, key):
        other = solve_mixed(replace(scenario, **{key: 1.25 * getattr(scenario, key)}))
        for a, b in ((gv_solution, other), (other, gv_solution)):
            with pytest.raises(ValueError, match="must share t_star, beta and gamma"):
                summarize(a, b)


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
        assert empty_so.costs.toll_revenue == 0.0

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
        assert_allclose(so.costs.social, so.multiplier * count - so.costs.toll_revenue, rtol=1e-12)


class TestSummarize:
    def test_baseline_free_report(self, gv_solution):
        # a solution summarized against itself has no extra congestion
        report = summarize(gv_solution, gv_solution)
        assert report.ecp == 0.0
        assert report.max_ecd == 0.0
        assert_allclose(gv_solution.peak_flow, np.max(gv_solution.profile.flow_total), rtol=1e-14)

    def test_peak_delay_ratio_band_and_golden(self, gv_solution, ev_solution):
        ratio = ev_solution.max_delay / gv_solution.max_delay
        assert 1.4 <= ratio <= 2.0
        assert_allclose(ratio, GOLDEN_PEAK_DELAY_RATIO, rtol=1e-6)

    def test_full_report_against_baseline(self, gv_solution, ev_solution):
        report = summarize(ev_solution, gv_solution)
        assert report.ecp > 0.0
        assert report.max_ecd > 0.0
        assert_allclose(report.max_ecd, GOLDEN_MAX_ECD_UNTOLLED, rtol=1e-6)
        assert ev_solution.peak_flow > 0.0
