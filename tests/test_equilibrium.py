"""Equilibrium solver tests: defining properties, golden values, degeneracies.

Golden numbers were frozen after the day-to-day oracle reproduced the same
profiles within tolerance (see test_acceptance.py); they guard regressions.
"""

import math
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from numpy.testing import assert_allclose

from commuteq import (
    EnergyModel,
    SolverError,
    VehicleClass,
    extra_congestion_delay,
    flow_from_delay,
    sample_profiles,
    schedule_delay,
    solution_delay,
    solve_mixed,
    solve_single_class,
    summarize,
)
from commuteq import equilibrium
from commuteq.cli import EXIT_OK, main
from commuteq.equilibrium import window_mass
from commuteq.model import CostMap, congestion_cost_map, delay_from_flow, marginal_social_cost_map
from commuteq.numerics import trapezoid_refine
from commuteq.scenario_io import _RETIRED, Numerics, ScenarioConfig, emit_config
from conftest import N_TOTAL, basic_scenario, sampled_no_deviation

GOLDEN_COST_GV = 4.389575841217798
GOLDEN_COST_EV = 4.02175345295732
GOLDEN_MIXED_COST_GV = 4.3164995926668555
GOLDEN_MIXED_COST_EV = 3.373332243505434


def _trapezoid_mass(sc, invert, r_hi, r_lo=0.0, rtol=1e-12):
    """`(1/beta + 1/gamma) * int_{r_lo}^{r_hi} q(r) dr` by trapezoid refinement.

    The reference for the closed-form :func:`window_mass`.  The quintic
    stretch r = r_lo + (r_hi - r_lo) * u**3 * (10 - 15u + 6u**2) flattens the
    integrand at both ends of [0, 1], including the r**(1/nu) edge at r = 0,
    so the refinement reaches 1e-12 in a few thousand points.
    """
    width = r_hi - r_lo

    def integrand(u):
        r = r_lo + width * u**3 * (10.0 - 15.0 * u + 6.0 * u * u)
        return flow_from_delay(invert(r), sc) * 30.0 * width * (u * (1.0 - u)) ** 2

    return (1.0 / sc.beta + 1.0 / sc.gamma) * trapezoid_refine(integrand, 0.0, 1.0, rtol=rtol)


class TestSingleClass:
    def test_empty_population(self):
        sc = replace(basic_scenario(), n_total=0.0)
        solution = solve_single_class(sc, sc.gv_energy)
        assert solution.is_empty
        assert solution.window == (8.0, 8.0)
        assert np.all(solution.profile.delay == 0.0)
        assert np.all(solution.profile.flow_total == 0.0)

    def test_golden_costs(self, gv_solution, ev_solution):
        assert_allclose(gv_solution.class_costs[VehicleClass.GV], GOLDEN_COST_GV, rtol=1e-6)
        assert_allclose(ev_solution.class_costs[VehicleClass.EV], GOLDEN_COST_EV, rtol=1e-6)

    def test_conservation(self, gv_solution, ev_solution):
        assert_allclose(gv_solution.class_counts[VehicleClass.GV], N_TOTAL, rtol=1e-6)
        assert_allclose(ev_solution.class_counts[VehicleClass.EV], N_TOTAL, rtol=1e-6)

    def test_cost_constancy_on_grid(self, gv_solution):
        profile = gv_solution.profile
        cost = gv_solution.class_costs[VehicleClass.GV]
        active = profile.active >= 0
        deviation = np.abs(profile.cost_total[active] - cost) / cost
        assert float(np.max(deviation)) <= 1e-6

    def test_window_boundary_conditions(self, gv_solution):
        # first and last commuters face pure schedule penalty
        t0, t1 = gv_solution.window
        cost = gv_solution.class_costs[VehicleClass.GV]
        sc = gv_solution.scenario
        assert_allclose(t0, 8.0 - cost / sc.beta, rtol=1e-12)
        assert_allclose(t1, 8.0 + cost / sc.gamma, rtol=1e-12)
        edge_delay = solution_delay(gv_solution, np.array([t0, t1]))
        assert np.all(edge_delay <= 1e-9)

    def test_duration_formula(self, gv_solution, ev_solution):
        sc = gv_solution.scenario
        factor = 1.0 / sc.beta + 1.0 / sc.gamma
        assert_allclose(
            gv_solution.duration, factor * gv_solution.class_costs[VehicleClass.GV], rtol=1e-12
        )
        assert_allclose(
            ev_solution.duration, factor * ev_solution.class_costs[VehicleClass.EV], rtol=1e-12
        )

    def test_ev_cheaper_and_narrower_than_gv(self, gv_solution, ev_solution):
        assert ev_solution.class_costs[VehicleClass.EV] < gv_solution.class_costs[VehicleClass.GV]
        assert ev_solution.duration < gv_solution.duration

    def test_flow_peaks_at_preferred_arrival(self, gv_solution):
        profile = gv_solution.profile
        peak_index = int(np.argmax(profile.flow_total))
        assert_allclose(profile.times[peak_index], 8.0, atol=1e-9)
        before = profile.flow_total[: peak_index + 1]
        after = profile.flow_total[peak_index:]
        assert np.all(np.diff(before) >= -1e-9)
        assert np.all(np.diff(after) <= 1e-9)

    def test_conservation_map_is_increasing(self, scenario):
        cmap = congestion_cost_map(scenario.gv_energy, scenario)
        masses = [window_mass(scenario, cmap, cmap.invert(c), 0.0) for c in (1.0, 2.0, 4.0, 6.0)]
        assert np.all(np.diff(masses) > 0.0)

    def test_missed_conservation_is_a_solver_error(self, scenario, monkeypatch):
        # a root stopped at 1% of the cost misses the fleet by ~1e-4 of N
        monkeypatch.setattr(equilibrium, "ROOT_RTOL", 1e-2)
        with pytest.raises(SolverError, match="per-class conservation") as err:
            solve_single_class(scenario, scenario.gv_energy)
        assert err.value.diagnostics["populations"] == (N_TOTAL,)

    def test_quadrature_against_brute_force(self, scenario, gv_solution):
        # independent check: plain trapezoid of f(t) over a dense time grid
        cost = gv_solution.class_costs[VehicleClass.GV]
        t0, t1 = gv_solution.window
        ts = np.linspace(t0, t1, 200_001)
        residual = np.maximum(cost - schedule_delay(ts, scenario), 0.0)
        flows = flow_from_delay(
            congestion_cost_map(scenario.gv_energy, scenario).invert(residual), scenario
        )
        brute = float(np.trapezoid(flows, ts))
        assert_allclose(gv_solution.class_counts[VehicleClass.GV], brute, rtol=1e-5)


class TestMixed:
    def test_degenerate_mpr_zero(self, scenario, gv_solution):
        solution = solve_mixed(scenario)
        assert_allclose(
            solution.class_costs[VehicleClass.GV],
            gv_solution.class_costs[VehicleClass.GV],
            rtol=1e-9,
        )
        assert_allclose(solution.profile.delay, gv_solution.profile.delay, rtol=0, atol=1e-9)

    def test_degenerate_mpr_one(self, scenario, ev_solution):
        solution = solve_mixed(replace(scenario, mpr=1.0))
        assert_allclose(
            solution.class_costs[VehicleClass.EV],
            ev_solution.class_costs[VehicleClass.EV],
            rtol=1e-9,
        )
        assert_allclose(solution.profile.delay, ev_solution.profile.delay, rtol=0, atol=1e-9)

    def test_golden_costs(self, mixed_solution):
        assert_allclose(
            mixed_solution.class_costs[VehicleClass.GV], GOLDEN_MIXED_COST_GV, rtol=1e-6
        )
        assert_allclose(
            mixed_solution.class_costs[VehicleClass.EV], GOLDEN_MIXED_COST_EV, rtol=1e-6
        )

    def test_segments_tile_window(self, mixed_solution):
        segments = mixed_solution.segments
        assert [seg.vehicle_class for seg in segments] == [
            VehicleClass.GV,
            VehicleClass.EV,
            VehicleClass.GV,
        ]
        assert segments[0].t_lo == mixed_solution.window[0]
        assert segments[-1].t_hi == mixed_solution.window[1]
        for left, right in zip(segments, segments[1:]):
            assert left.t_hi == right.t_lo

    def test_ev_segment_contains_preferred_arrival(self, mixed_solution):
        center = mixed_solution.segments[1]
        assert center.t_lo < 8.0 < center.t_hi

    def test_ev_cost_below_gv_cost(self, mixed_solution):
        assert (
            mixed_solution.class_costs[VehicleClass.EV]
            < mixed_solution.class_costs[VehicleClass.GV]
        )

    def test_delay_continuous_at_boundaries(self, mixed_solution):
        for boundary in (mixed_solution.segments[0].t_hi, mixed_solution.segments[1].t_hi):
            eps = 1e-9
            left, right = solution_delay(
                mixed_solution, np.array([boundary - eps, boundary + eps])
            )
            assert abs(left - right) <= 1e-6

    def test_per_class_conservation(self, mixed_solution):
        assert_allclose(mixed_solution.class_counts[VehicleClass.GV], 1500.0, rtol=1e-6)
        assert_allclose(mixed_solution.class_counts[VehicleClass.EV], 1500.0, rtol=1e-6)

    def test_cost_constancy_per_class(self, mixed_solution):
        profile = mixed_solution.profile
        for index, cls in enumerate((VehicleClass.GV, VehicleClass.EV)):
            cost = mixed_solution.class_costs[cls]
            mask = profile.active == index
            deviation = np.abs(profile.cost_total[mask] - cost) / cost
            assert float(np.max(deviation)) <= 1e-6

    @pytest.mark.parametrize("mpr", [1e-6, 0.05, 0.25, 0.75, 0.95, 1.0 - 1e-6])
    def test_other_penetrations_conserve(self, scenario, mpr):
        solution = solve_mixed(replace(scenario, mpr=mpr))
        assert_allclose(
            solution.class_counts[VehicleClass.GV], (1.0 - mpr) * N_TOTAL, rtol=1e-6
        )
        assert_allclose(solution.class_counts[VehicleClass.EV], mpr * N_TOTAL, rtol=1e-6)

    def test_peak_delay_nondecreasing_in_mpr(self, scenario):
        peaks = [
            solve_mixed(replace(scenario, mpr=mpr)).max_delay
            for mpr in (0.0, 0.25, 0.5, 0.75, 1.0)
        ]
        assert np.all(np.diff(peaks) >= -1e-12)

    def test_rush_narrows_at_full_penetration(self, scenario):
        duration_gv = solve_mixed(scenario).duration
        duration_ev = solve_mixed(replace(scenario, mpr=1.0)).duration
        assert duration_ev < duration_gv


def _reference_state(sc, cost_gv, cost_ev, quad_rtol=1e-9):
    """Per-class masses and boundary level of a cost pair, built independently.

    ``s*`` is where the two isocost delay curves cross, found by plain
    bisection, and the EV mass is the difference of two integrals from r = 0,
    both by trapezoid refinement, so the check shares neither the root
    solver, the boundary construction nor the closed-form masses with
    solve_mixed.
    """
    invert_gv = congestion_cost_map(sc.gv_energy, sc).invert
    invert_ev = congestion_cost_map(sc.ev_energy, sc).invert

    def curve_gap(s):
        return float(invert_gv(cost_gv - s) - invert_ev(cost_ev - s))

    lo, hi = 0.0, cost_ev
    gap_lo = curve_gap(lo)
    while hi - lo > 1e-13 * hi:
        mid = 0.5 * (lo + hi)
        if (curve_gap(mid) > 0.0) == (gap_lo > 0.0):
            lo = mid
        else:
            hi = mid
    s_star = 0.5 * (lo + hi)
    mass_gv = _trapezoid_mass(sc, invert_gv, cost_gv - s_star, rtol=quad_rtol)
    mass_ev = _trapezoid_mass(sc, invert_ev, cost_ev, rtol=quad_rtol) - _trapezoid_mass(
        sc, invert_ev, cost_ev - s_star, rtol=quad_rtol
    )
    return mass_gv, mass_ev, s_star


def _grid_scenarios(count=24, seed=20201):
    rng = np.random.default_rng(seed)
    base = basic_scenario()
    return [
        replace(
            base,
            mpr=float(rng.uniform(0.02, 0.98)),
            nu=float(rng.uniform(2.0, 6.0)),
            n_total=N_TOTAL * float(rng.uniform(0.3, 3.0)),
            capacity_r=base.capacity_r * float(rng.uniform(0.5, 2.0)),
        )
        for _ in range(count)
    ]


class TestMixedAgainstReference:
    @pytest.mark.parametrize(
        "sc", _grid_scenarios(), ids=lambda sc: f"mpr{sc.mpr:.3f}-nu{sc.nu:.2f}"
    )
    def test_costs_conserve_each_class(self, sc):
        solution = solve_mixed(sc)
        cost_gv = solution.class_costs[VehicleClass.GV]
        cost_ev = solution.class_costs[VehicleClass.EV]
        mass_gv, mass_ev, s_star = _reference_state(sc, cost_gv, cost_ev)
        assert_allclose(mass_gv, sc.population(VehicleClass.GV), rtol=1e-8)
        assert_allclose(mass_ev, sc.population(VehicleClass.EV), rtol=1e-8)
        center = solution.segments[1]
        levels = schedule_delay(np.array([center.t_lo, center.t_hi]), sc)
        assert_allclose(levels, s_star, rtol=1e-9)


class TestMixedEdgeCases:
    def _assert_conserves(self, solution, rtol=1e-9):
        sc = solution.scenario
        for cls in (VehicleClass.GV, VehicleClass.EV):
            assert_allclose(solution.class_counts[cls], sc.population(cls), rtol=rtol)

    @pytest.mark.parametrize("n_total", [1e-9, 1e-6])
    def test_tiny_population(self, n_total):
        solution = solve_mixed(replace(basic_scenario(0.5), n_total=n_total))
        self._assert_conserves(solution)
        assert 0.0 < solution.class_costs[VehicleClass.EV] < solution.class_costs[VehicleClass.GV]

    def test_tight_quadrature_tolerance(self, tmp_path, monkeypatch):
        # no solver runs a quadrature and the root and count tolerances are
        # fixed, so each retired key loads, from the file or the environment,
        # at any finite value, and every output matches the file without it
        path = tmp_path / "scenario.toml"
        for command, mpr in (("solve", 0.5), ("toll", 1.0)):
            text = emit_config(ScenarioConfig(basic_scenario(mpr), Numerics()))
            assert not any(retired in text for retired in _RETIRED)

            def outputs(body: str, name: str) -> dict[str, bytes]:
                path.write_text(body, encoding="utf-8")
                out = tmp_path / name
                args = [command, "--scenario", str(path), "--out", str(out), "--quiet"]
                assert main(args) == EXIT_OK, name
                return {f.name: f.read_bytes() for f in out.iterdir()}

            expected = outputs(text, command)
            for key in (*_RETIRED, "CEQ_NUMERICS_MIXED_RTOL"):
                for value in ("0", "-1", "1e-2", "1e-17"):
                    name = f"{command}-{key}-{value}"
                    with monkeypatch.context() as env:
                        body = text + f"{key} = {value}\n"
                        if key.startswith("CEQ_"):
                            env.setenv(key, value)
                            body = text
                        assert outputs(body, name) == expected, name

    def test_equal_energy_models_share_the_single_class_cost(self, gv_solution):
        sc = replace(basic_scenario(0.5), ev_energy=EnergyModel(VehicleClass.EV, 4.0, 16.8))
        solution = solve_mixed(sc)
        self._assert_conserves(solution)
        single = gv_solution.class_costs[VehicleClass.GV]
        assert_allclose(solution.class_costs[VehicleClass.GV], single, rtol=1e-8)
        assert_allclose(solution.class_costs[VehicleClass.EV], single, rtol=1e-8)

    @pytest.mark.parametrize(
        "bumped, message, key",
        [
            (VehicleClass.GV, "a GV commuter could profit inside the EV segment", "cost_gv"),
            (VehicleClass.EV, "an EV commuter could profit inside a GV segment", "cost_ev"),
        ],
    )
    def test_profitable_deviation_is_a_solver_error(self, mixed_solution, bumped, message, key):
        # a class cost above its equilibrium value lets that class undercut it
        # inside the other class's band at the boundary delay T_x
        sc = mixed_solution.scenario
        costs = dict(mixed_solution.class_costs)
        gv_map, ev_map = (congestion_cost_map(m, sc) for m in (sc.gv_energy, sc.ev_energy))

        def validate():
            bands = ((VehicleClass.GV, gv_map, costs[VehicleClass.GV]),
                     (VehicleClass.EV, ev_map, costs[VehicleClass.EV]))
            equilibrium._validate_no_deviation(bands, mixed_solution.roots)

        validate()
        costs[bumped] *= 1.0 + 1e-6
        with pytest.raises(SolverError, match=message) as err:
            validate()
        assert err.value.diagnostics[key] == costs[bumped]
        assert err.value.diagnostics["min_cost"] < costs[bumped]
        assert err.value.diagnostics["delay_at_min"] == mixed_solution.roots[1]

    def test_violation_at_the_interior_vertex_only(self):
        # Phi_gv - Phi_ev = -4T + T**2 has its vertex at T_c = 2, inside the EV
        # band [1, 3.5] of a consistent walk: C_ev = Phi_ev(3.5) = 35, s* = 25
        # and C_gv = Phi_gv(1) + s* = 32.  A GV commuter there pays
        # 35 - 4T + T**2: 32 and 33.25 at the band edges, 31 at T_c.
        gv_map, ev_map = CostMap(6.0, 1.0), CostMap(10.0, 0.0)
        bands = ((VehicleClass.GV, gv_map, 32.0), (VehicleClass.EV, ev_map, 35.0))
        for edge in (1.0, 3.5):
            assert 35.0 + gv_map(edge) - ev_map(edge) >= 32.0
        message = "a GV commuter could profit inside the EV segment"
        with pytest.raises(SolverError, match=message) as err:
            equilibrium._validate_no_deviation(bands, (0.0, 1.0, 3.5))
        assert err.value.diagnostics == {"min_cost": 31.0, "cost_gv": 32.0, "delay_at_min": 2.0}

    @pytest.mark.parametrize("vanishing", [VehicleClass.EV, VehicleClass.GV])
    def test_vanishing_band_leaves_the_other_single_class_solution(self, vanishing):
        # a band whose population shrinks to nothing leaves the other class
        # alone on the road at its single-class cost, in segments of no width
        remaining = VehicleClass.GV if vanishing is VehicleClass.EV else VehicleClass.EV
        mpr = 1e-12 if vanishing is VehicleClass.EV else 1.0 - 1e-12
        expected = solve_mixed(basic_scenario(float(remaining is VehicleClass.EV))).class_costs
        solution = solve_mixed(basic_scenario(mpr))
        assert abs(solution.class_costs[remaining] - expected[remaining]) <= 1e-9
        if vanishing is VehicleClass.GV:
            # the empty GV flanks sit at the window edge, where the level is the EV cost
            assert abs(solution.class_costs[vanishing] - expected[remaining]) <= 1e-9
        widths = [s.t_hi - s.t_lo for s in solution.segments if s.vehicle_class is vanishing]
        assert len(widths) == (1 if vanishing is VehicleClass.EV else 2)
        assert max(widths) < 1e-9

    def test_missed_conservation_is_a_solver_error(self, monkeypatch):
        # a root stopped at a 1% Newton step leaves the counts far outside 1e-8 * N
        monkeypatch.setattr(equilibrium, "ROOT_RTOL", 1e-2)
        with pytest.raises(SolverError, match="per-class conservation") as err:
            solve_mixed(basic_scenario(0.5))
        assert err.value.diagnostics["populations"] == (1500.0, 1500.0)


def _deviation_outcome(check, *bands) -> tuple[str, float] | None:
    """``check``'s message and minimum tempted cost if it raises, else None."""
    try:
        check(*bands)
    except SolverError as err:
        return str(err), err.diagnostics["min_cost"]
    return None


class TestNoDeviationAgainstSweep:
    @pytest.mark.filterwarnings("ignore:EV energy coefficients")
    def test_exact_check_agrees_with_the_sampled_sweep(self, monkeypatch):
        # every mixed walk of 300 seeded wide draws, with EV (c1, c2) on both
        # sides of the Scenario warning, is checked by the exact check and by
        # the 257-level sweep it replaced
        exact_check = equilibrium._validate_no_deviation
        walks = []
        monkeypatch.setattr(
            equilibrium, "_validate_no_deviation", lambda bands, roots: walks.append((bands, roots))
        )
        rng = np.random.default_rng(20261020)
        base = basic_scenario()
        warned = 0
        for _ in range(300):
            gv = EnergyModel(VehicleClass.GV, rng.uniform(3.0, 5.0), rng.uniform(12.0, 22.0))
            ev = EnergyModel(
                VehicleClass.EV, gv.c1 * rng.uniform(0.1, 2.0), gv.c2 * rng.uniform(0.05, 2.5)
            )
            warned += ev.c1 > gv.c1 or ev.c2 > gv.c2
            solve_mixed(replace(
                base, nu=rng.uniform(3.0, 5.0), n_total=rng.uniform(1500.0, 6000.0),
                capacity_r=rng.uniform(5000.0, 12000.0), trip_km=rng.uniform(10.0, 35.0),
                alpha=rng.uniform(6.0, 12.0), beta=rng.uniform(2.5, 5.5),
                gamma=rng.uniform(10.0, 25.0), mpr=rng.uniform(0.05, 0.95),
                gv_energy=gv, ev_energy=ev,
            ))
        monkeypatch.undo()
        assert len(walks) == 300 and 0 < warned < 300

        failures = 0
        for bands, roots in walks:
            (cls_out, map_out, cost_out), (cls_in, map_in, cost_in) = bands
            s_star = cost_in - map_in(roots[1])
            outcomes = []
            # the costs as solved, then 1e300 for the outer and for the inner
            # class, which leaves only the other direction to fire: it then
            # reports its minimum whatever its margin
            for costs in ((cost_out, cost_in), (1e300, cost_in), (cost_out, 1e300)):
                exact = _deviation_outcome(
                    exact_check, ((cls_out, map_out, costs[0]), (cls_in, map_in, costs[1])), roots
                )
                sampled = _deviation_outcome(
                    sampled_no_deviation,
                    (cls_out, map_out, costs[0], (s_star, costs[0] - map_out(roots[0]))),
                    (cls_in, map_in, costs[1], (0.0, s_star)),
                )
                outcomes.append((exact, sampled))
            (exact, sampled), *directions = outcomes
            assert (exact is None) == (sampled is None)
            failures += exact is not None
            for exact, sampled in directions:
                # both read the band edges, through different roundings; the
                # sweep misses the true minimum by at most a few 1e-6 of it
                assert exact[0] == sampled[0]
                assert exact[1] <= sampled[1] + 1e-12 * sampled[1]
                assert sampled[1] - exact[1] <= 1e-4 * exact[1]
        assert 0 < failures < 300


class TestWindowMassClosedForm:
    def test_matches_trapezoid_reference(self):
        # Phi and Psi maps of both classes, each from r = 0 and from r_lo > 0
        rng = np.random.default_rng(20261018)
        base = basic_scenario()
        worst = 0.0
        for i in range(200):
            sc = replace(
                base,
                nu=float(rng.uniform(2.0, 6.0)),
                n_total=N_TOTAL * float(rng.uniform(0.3, 3.0)),
                capacity_r=base.capacity_r * float(rng.uniform(0.5, 2.0)),
            )
            model = (sc.gv_energy, sc.ev_energy)[i % 2]
            pick = congestion_cost_map if i % 4 < 2 else marginal_social_cost_map
            cmap = pick(model, sc)
            packed = float(delay_from_flow(sc.n_total, sc))
            r_hi = (cmap.a * packed + cmap.b * packed**2) * float(rng.uniform(0.2, 2.0))
            r_lo = 0.0 if i % 8 < 4 else r_hi * float(rng.uniform(0.0, 0.99))
            exact = window_mass(sc, cmap, cmap.invert(r_hi), cmap.invert(r_lo))
            reference = _trapezoid_mass(sc, cmap.invert, r_hi, r_lo)
            worst = max(worst, abs(exact - reference) / reference)
        assert worst <= 1e-10

    @pytest.mark.parametrize("mpr", [0.0, 0.5, 1.0])
    def test_bundled_counts_are_exact(self, mpr):
        solution = solve_mixed(basic_scenario(mpr))
        for cls, count in solution.class_counts.items():
            assert_allclose(count, solution.scenario.population(cls), rtol=1e-12)


class TestConservationRoot:
    def test_conserves_in_few_evaluations(self, monkeypatch):
        # Phi and Psi maps of both classes, with and without the quadratic
        # term, each from t_lo = 0 and from a t_lo > 0, over wide nu and N
        evals = []
        real = equilibrium.solve_bracketed

        def counting(fn, lo, hi, rtol):
            evals.append(0)

            def counted(delay):
                evals[-1] += 1
                return fn(delay)

            return real(counted, lo, hi, rtol)

        monkeypatch.setattr(equilibrium, "solve_bracketed", counting)
        rng = np.random.default_rng(20261019)
        base = basic_scenario()
        worst = 0.0
        for i in range(200):
            sc = replace(
                base,
                nu=float(np.exp(rng.uniform(np.log(0.3), np.log(20.0)))),
                capacity_r=base.capacity_r * float(rng.uniform(0.5, 2.0)),
            )
            model = (sc.gv_energy, sc.ev_energy)[i % 2]
            if i % 3 == 0:
                model = replace(model, c2=0.0)
            cmap = (congestion_cost_map, marginal_social_cost_map)[i % 4 // 2](model, sc)
            population = float(10.0 ** rng.uniform(-12.0, 9.0))
            t_lo = 0.0
            for _ in range(2):  # from 0, then from a fraction or multiple of that root
                t_hi = equilibrium.conservation_root(sc, cmap, population, t_lo)
                miss = abs(window_mass(sc, cmap, t_hi, t_lo) - population) / population
                worst = max(worst, miss)
                t_lo = t_hi * float(rng.uniform(0.01, 3.0))
        assert len(evals) == 400
        assert worst <= 1e-12
        assert max(evals) <= 15


class TestComparativeStatics:
    """The single-class peak delay and cost against the cost-map coefficients.

    With F(T; a, b) = a T^(1+p)/(1+p) + 2b T^(2+p)/(2+p) held at N / (K R m^-p)
    and C = a T + b T^2 (README, "Why EVs narrow the peak"):
    dT/da = -T/((1+p)(a+2bT)), dT/db = -2T^2/((2+p)(a+2bT)),
    dC/da = pT/(1+p) and dC/db = pT^2/(2+p).
    """

    @pytest.mark.parametrize("cls", [VehicleClass.GV, VehicleClass.EV])
    def test_derivatives_match_finite_differences(self, cls, monkeypatch):
        monkeypatch.setattr(equilibrium, "ROOT_RTOL", 1e-14)  # roots for the finite differences
        sc = basic_scenario()
        cmap = congestion_cost_map(sc.energy_model(cls), sc)
        p = 1.0 / sc.nu

        def root(a, b):
            delay = equilibrium.conservation_root(sc, CostMap(a, b), N_TOTAL, 0.0)
            return delay, a * delay + b * delay * delay

        a, b = cmap.a, cmap.b
        delay, _ = root(a, b)
        slope = a + 2.0 * b * delay
        exact = {
            "a": (-delay / ((1.0 + p) * slope), p * delay / (1.0 + p)),
            "b": (-2.0 * delay**2 / ((2.0 + p) * slope), p * delay**2 / (2.0 + p)),
        }
        for name, (d_delay, d_cost) in exact.items():
            h = 1e-4 * (a if name == "a" else b)
            up = root(a + h, b) if name == "a" else root(a, b + h)
            down = root(a - h, b) if name == "a" else root(a, b - h)
            assert (up[0] - down[0]) / (2.0 * h) == pytest.approx(d_delay, rel=1e-6), name
            assert (up[1] - down[1]) / (2.0 * h) == pytest.approx(d_cost, rel=1e-6), name
            # lowering either coefficient raises the peak delay and narrows the window
            assert d_delay < 0.0 < d_cost


class TestSampleProfiles:
    def test_grid_covers_window_with_margin(self, gv_solution):
        dt = 1.0 / 60.0
        profile = sample_profiles(gv_solution, dt)
        t0, t1 = gv_solution.window
        assert profile.times[0] <= t0 - 2.0 * dt + 1e-12
        assert profile.times[-1] >= t1 + 2.0 * dt - 1e-12
        assert_allclose(np.diff(profile.times), dt, rtol=1e-9)
        assert np.any(np.abs(profile.times - 8.0) < 1e-12)

    def test_zero_outside_window(self, gv_solution):
        profile = sample_profiles(gv_solution, 1.0 / 60.0)
        outside = profile.active < 0
        assert np.all(profile.delay[outside] == 0.0)
        assert np.all(profile.flow_total[outside] == 0.0)
        assert np.all(profile.cost_total[outside] == 0.0)

    def test_class_flows_sum_to_total(self, mixed_solution):
        profile = sample_profiles(mixed_solution, 1.0 / 60.0)
        assert_allclose(profile.flow_gv + profile.flow_ev, profile.flow_total, rtol=1e-15)

    def test_grid_conservation_within_grid_tolerance(self, gv_solution):
        # 1-minute trapezoid carries the edge discretization error, ~0.1%
        profile = sample_profiles(gv_solution, 1.0 / 60.0)
        integral = float(np.trapezoid(profile.flow_total, profile.times))
        assert_allclose(integral, N_TOTAL, rtol=1e-2)

    def test_finer_grid_conserves_better(self, gv_solution):
        coarse = sample_profiles(gv_solution, 1.0 / 60.0)
        fine = sample_profiles(gv_solution, 1.0 / 600.0)
        err_coarse = abs(float(np.trapezoid(coarse.flow_total, coarse.times)) - N_TOTAL)
        err_fine = abs(float(np.trapezoid(fine.flow_total, fine.times)) - N_TOTAL)
        assert err_fine < err_coarse

    def test_empty_solution_profile(self):
        sc = replace(basic_scenario(), n_total=0.0)
        profile = sample_profiles(solve_single_class(sc, sc.gv_energy), 1.0 / 60.0)
        assert np.all(profile.delay == 0.0)
        assert np.all(profile.flow_total == 0.0)
        assert np.all(profile.active == -1)

    @pytest.mark.parametrize(
        "dt", [0.0, -1.0 / 60.0, math.inf, math.nan], ids=["zero", "negative", "inf", "nan"]
    )
    def test_invalid_dt(self, gv_solution, dt):
        for call in (
            partial(sample_profiles, gv_solution),
            partial(summarize, gv_solution, gv_solution),
            partial(extra_congestion_delay, gv_solution, gv_solution),
        ):
            with pytest.raises(ValueError, match="dt must be positive and finite"):
                call(dt)


class TestSolutionDelay:
    @pytest.mark.parametrize("mpr", [0.1, 0.5, 0.9])
    def test_a_shared_edge_belongs_to_the_earlier_segment(self, mpr):
        # the sampled profile gives a shared edge to the earlier segment; so must this
        solution = solve_mixed(basic_scenario(mpr=mpr))
        sc = solution.scenario
        for seg in solution.segments[:-1]:
            edge = np.array([seg.t_hi])
            cmap = congestion_cost_map(sc.energy_model(seg.vehicle_class), sc)
            expected = cmap.invert(seg.equilibrium_cost - schedule_delay(edge, sc))
            assert np.array_equal(solution_delay(solution, edge), expected)

    @pytest.mark.parametrize("mpr", [0.0, 0.1, 0.5, 0.9, 1.0])
    def test_matches_the_profile_on_its_grid(self, mpr):
        solution = solve_mixed(basic_scenario(mpr=mpr))
        delay = solution_delay(solution, solution.profile.times)
        assert np.array_equal(delay, solution.profile.delay)

    def test_a_scalar_time(self, mixed_solution):
        for t in (7.0, 8.0, 8.1, 12.0):
            assert solution_delay(mixed_solution, t) == solution_delay(mixed_solution, [t])[0]
