"""Acceptance gate: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -s`` to see the PASS/FAIL line per
criterion.  Deviation of oracle delay profiles from the analytic solvers is
measured relative to the analytic peak delay: the pinned oracle settings
(1-minute bins, weighted gap tolerance 3e-5) leave bins near the window edges with
arbitrarily small reference delays, so a pointwise-relative reading is not
satisfiable by construction; the peak-relative deviation is reported and the
pointwise-relative one printed for information.

Criterion 6d (tolled extra-congestion-delay reduced by at least 90 percent)
fails under the basic scenario and is expected to: the system optimum spreads
arrivals over a wider window than the all-GV equilibrium, so commuters ahead
of the baseline rush face delay where the baseline has none.  That flank
delay is structural (it equals the inverse marginal-social-cost map evaluated
at multiplier minus baseline equilibrium cost, 1.44 minutes here, at the
baseline window's opening, where the tolled ECD peaks) and caps the exact
reduction at 82.44 percent.  The test asserts the stated bound and
reports the computed value rather than weakening the line.
"""

import time
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from commuteq import (
    VehicleClass,
    delay_from_flow,
    extra_congested_period,
    flow_from_delay,
    minimize_binned_total_cost,
    sample_profiles,
    solution_delay,
    solve_mixed,
    solve_single_class,
    solve_system_optimum,
    summarize,
    verify_tolled_equilibrium,
)
from commuteq.cli import main as cli_main
from commuteq.dynamics import USED_MASS_FRACTION
from commuteq.model import congestion_cost_map, marginal_social_cost_map
from commuteq.numerics import DEFAULTS
from conftest import N_TOTAL, grid_ecp, gv_ev_gv_pattern, reference_psi

USED_MASS = USED_MASS_FRACTION * N_TOTAL

GOLDEN_PEAK_DELAY_RATIO = 1.5239669599992096
GOLDEN_ECD_REDUCTION = 0.8244444878973127


def _verdict(name: str, ok: bool, detail: str) -> str:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line)
    return line


def _oracle_deviation(assignment, scenario, solution):
    delays = assignment.delays(scenario)
    reference = solution_delay(solution, assignment.centers)
    peak = float(np.max(reference))
    used = assignment.masses.sum(axis=0) > USED_MASS
    errors = np.abs(delays - reference)[used]
    peak_relative = float(np.max(errors) / peak)
    point_relative = float(np.max(errors / np.maximum(reference[used], 1e-300)))
    return peak_relative, point_relative


def test_criterion_1_ue_defining_property(scenario):
    start = time.perf_counter()
    solution = solve_single_class(scenario, scenario.gv_energy)
    elapsed = time.perf_counter() - start
    cost = solution.class_costs[VehicleClass.GV]
    active = solution.profile.active >= 0
    constancy = float(np.max(np.abs(solution.profile.cost_total[active] - cost)) / cost)
    conservation = abs(solution.class_counts[VehicleClass.GV] - N_TOTAL) / N_TOTAL
    ok = constancy <= 1e-6 and conservation <= 1e-6 and elapsed < 1.0
    detail = (
        f"cost constancy {constancy:.2e} (<=1e-6), conservation {conservation:.2e} "
        f"(<=1e-6), runtime {elapsed:.3f}s (<1s)"
    )
    assert ok, _verdict("criterion 1 UE defining property", ok, detail)
    _verdict("criterion 1 UE defining property", ok, detail)


@pytest.mark.parametrize("which", ["mpr0", "mpr1"])
def test_criterion_2_oracle_equivalence_single_class(
    which, scenario, oracle_mpr0, oracle_mpr1, gv_solution, ev_solution
):
    if which == "mpr0":
        (assignment, report, elapsed), solution, sc = oracle_mpr0, gv_solution, scenario
    else:
        (assignment, report, elapsed) = oracle_mpr1
        solution, sc = ev_solution, replace(scenario, mpr=1.0)
    peak_rel, point_rel = _oracle_deviation(assignment, sc, solution)
    ok = report.converged and peak_rel <= 0.02 and elapsed < 30.0
    detail = (
        f"converged in {report.days} days ({elapsed:.1f}s < 30s), peak-relative delay "
        f"deviation {peak_rel:.4f} (<=0.02), pointwise-relative {point_rel:.3f} (info)"
    )
    assert ok, _verdict(f"criterion 2 oracle equivalence {which}", ok, detail)
    _verdict(f"criterion 2 oracle equivalence {which}", ok, detail)


def test_criterion_3_oracle_equivalence_mixed(scenario, oracle_mixed, mixed_solution):
    assignment, report, elapsed = oracle_mixed
    sc = replace(scenario, mpr=0.5)
    contiguous, contains_center, flanked = gv_ev_gv_pattern(assignment, sc.t_star, USED_MASS)
    peak_rel, point_rel = _oracle_deviation(assignment, sc, mixed_solution)
    conservation = max(
        abs(mixed_solution.class_counts[VehicleClass.GV] - 1500.0) / N_TOTAL,
        abs(mixed_solution.class_counts[VehicleClass.EV] - 1500.0) / N_TOTAL,
    )
    ok = (
        report.converged
        and contiguous
        and contains_center
        and flanked
        and peak_rel <= 0.02
        and conservation <= 1e-6
    )
    detail = (
        f"EV block contiguous={contiguous} around t*, GV flanks={flanked}, peak-relative "
        f"deviation {peak_rel:.4f} (<=0.02, pointwise {point_rel:.3f} info), per-class "
        f"conservation {conservation:.2e} (<=1e-6), {report.days} days ({elapsed:.1f}s)"
    )
    assert ok, _verdict("criterion 3 oracle equivalence mixed", ok, detail)
    _verdict("criterion 3 oracle equivalence mixed", ok, detail)


def test_criterion_4_peak_delay_growth_and_narrowing(gv_solution, ev_solution):
    ratio = ev_solution.max_delay / gv_solution.max_delay
    in_band = 1.4 <= ratio <= 2.0
    golden = abs(ratio - GOLDEN_PEAK_DELAY_RATIO) <= 1e-6 * GOLDEN_PEAK_DELAY_RATIO
    narrower = ev_solution.duration < gv_solution.duration
    ok = in_band and golden and narrower
    detail = (
        f"max-delay ratio {ratio:.6f} in [1.4, 2.0], frozen at {GOLDEN_PEAK_DELAY_RATIO:.6f} "
        f"(1e-6 regression), rush duration {ev_solution.duration:.4f}h < {gv_solution.duration:.4f}h"
    )
    assert ok, _verdict("criterion 4 peak delay growth", ok, detail)
    _verdict("criterion 4 peak delay growth", ok, detail)


def test_criterion_5_ecp_monotone_and_grid_converged(scenario, gv_solution):
    # the exact ECP, and the grid measure on the solve's dt and on dt/2 against it
    baseline_max = gv_solution.max_delay
    ecps, moves = [], []
    for i in range(11):
        solution = solve_mixed(replace(scenario, mpr=i / 10))
        ecp = extra_congested_period(solution, baseline_max)
        for profile in (solution.profile, sample_profiles(solution, 0.5 / 60.0)):
            grid = grid_ecp(profile, baseline_max)
            moves.append(abs(grid - ecp) / ecp if ecp > 0.0 else abs(grid - ecp))
        ecps.append(ecp)
    zero_at_zero = ecps[0] == 0.0
    nondecreasing = all(b >= a - 1e-12 for a, b in zip(ecps, ecps[1:]))
    converged = max(moves) < 0.005
    ok = zero_at_zero and nondecreasing and converged
    detail = (
        f"ECP(0)={ecps[0]}, ECP(1)={ecps[-1]:.4f}h, nondecreasing={nondecreasing}, "
        f"max grid ECP distance at dt and dt/2 = {max(moves):.2e} (<0.005)"
    )
    assert ok, _verdict("criterion 5 ECP monotonicity", ok, detail)
    _verdict("criterion 5 ECP monotonicity", ok, detail)


def test_criterion_6abc_toll_validity(scenario, gv_solution, ev_solution):
    start = time.perf_counter()
    sc = replace(scenario, mpr=1.0)
    so = solve_system_optimum(sc, sc.ev_energy)
    residual = verify_tolled_equilibrium(so, sample_profiles(so, DEFAULTS.dt))
    ue_total = ev_solution.class_costs[VehicleClass.EV] * N_TOTAL
    saving = 1.0 - so.costs.social / ue_total
    wider = (so.window[1] - so.window[0]) > ev_solution.duration
    flatter = so.max_delay < ev_solution.max_delay
    elapsed = time.perf_counter() - start
    ok = (
        residual <= 1e-6 * so.multiplier
        and saving > 0.001
        and wider
        and flatter
        and elapsed < 5.0
    )
    detail = (
        f"residual {residual:.2e} (<=1e-6*lambda), SO saves {100*saving:.2f}% (>0.1%), "
        f"window wider={wider}, peak lower={flatter}, runtime {elapsed:.2f}s (<5s)"
    )
    assert ok, _verdict("criterion 6abc toll validity", ok, detail)
    _verdict("criterion 6abc toll validity", ok, detail)


def test_criterion_6d_ecd_reduction(scenario, gv_solution, ev_solution):
    sc = replace(scenario, mpr=1.0)
    so = solve_system_optimum(sc, sc.ev_energy)
    max_untolled = summarize(ev_solution, gv_solution).max_ecd
    max_tolled = summarize(so, gv_solution).max_ecd
    reduction = 1.0 - max_tolled / max_untolled
    removed_everywhere = max_tolled <= 1e-12  # the exact maximum over arrival time
    ok = reduction >= 0.90
    detail = (
        f"max ECD untolled {max_untolled:.5f}h, tolled {max_tolled:.5f}h, reduction "
        f"{100*reduction:.2f}% (>=90% required); reproduction note: tolled ECD <= 0 "
        f"everywhere = {removed_everywhere}"
    )
    _verdict("criterion 6d ECD reduction", ok, detail)
    assert_allclose(reduction, GOLDEN_ECD_REDUCTION, rtol=1e-6)  # frozen computed value
    assert ok, (
        f"{detail}. The shortfall is structural, not a solver defect: the optimum's "
        f"window [{so.window[0]:.4f}, {so.window[1]:.4f}] starts before the baseline "
        f"window [{gv_solution.window[0]:.4f}, {gv_solution.window[1]:.4f}], so arrivals "
        "ahead of the baseline rush carry positive delay against a zero-delay baseline; "
        "see notes on the blocking analysis."
    )


def test_criterion_7_system_optimum_oracle(scenario):
    sc = replace(scenario, mpr=1.0)
    so = solve_system_optimum(sc, sc.ev_energy)
    _, mass, value = minimize_binned_total_cost(sc, sc.ev_energy, bin_width=1.0 / 60.0)
    gap = abs(value - so.costs.social) / so.costs.social
    ok = gap <= 0.005
    detail = f"direct minimization {value:.2f}$ vs analytic {so.costs.social:.2f}$, gap {100*gap:.3f}% (<=0.5%)"
    assert ok, _verdict("criterion 7 system-optimum oracle", ok, detail)
    _verdict("criterion 7 system-optimum oracle", ok, detail)


def test_criterion_8_formula_round_trips(scenario, gv_solution, ev_solution):
    delays = np.linspace(0.0, 10.0, 2001)
    worst = 0.0
    for model in (scenario.gv_energy, scenario.ev_energy):
        phi = congestion_cost_map(model, scenario)
        back = phi.invert(phi(delays))
        worst = max(worst, float(np.max(np.abs(back - delays) / np.maximum(delays, 1e-300))))
        msc = reference_psi(model, scenario, delays)
        back2 = marginal_social_cost_map(model, scenario).invert(msc)
        worst = max(worst, float(np.max(np.abs(back2 - delays) / np.maximum(delays, 1e-300))))
    flows = np.linspace(1.0, 2.0 * scenario.capacity_r, 2001)
    back_flow = flow_from_delay(delay_from_flow(flows, scenario), scenario)
    worst = max(worst, float(np.max(np.abs(back_flow - flows) / flows)))

    degenerate0 = solve_mixed(scenario)
    degenerate1 = solve_mixed(replace(scenario, mpr=1.0))
    cost_dev = max(
        abs(degenerate0.class_costs[VehicleClass.GV] - gv_solution.class_costs[VehicleClass.GV]),
        abs(degenerate1.class_costs[VehicleClass.EV] - ev_solution.class_costs[VehicleClass.EV]),
    )
    grid_dev = max(
        float(np.max(np.abs(degenerate0.profile.delay - gv_solution.profile.delay))),
        float(np.max(np.abs(degenerate1.profile.delay - ev_solution.profile.delay))),
    )
    ok = worst <= 1e-12 and cost_dev <= 1e-9 and grid_dev <= 1e-9
    detail = (
        f"worst round-trip error {worst:.2e} (<=1e-12), degenerate-reduction deviation "
        f"{max(cost_dev, grid_dev):.2e} (<=1e-9)"
    )
    assert ok, _verdict("criterion 8 formula round trips", ok, detail)
    _verdict("criterion 8 formula round trips", ok, detail)


def test_criterion_9_byte_identical_outputs(tmp_path):
    commands = {
        "solve": ["solve"],
        "sweep": ["sweep", "--mpr", "0,0.5,1"],
        "toll": ["toll"],
        "oracle": ["oracle"],
    }
    mismatches = []
    for name, argv in commands.items():
        dirs = []
        for run in ("a", "b"):
            out = tmp_path / f"{name}_{run}"
            code = cli_main(argv + ["--out", str(out), "--quiet"])
            assert code == 0, f"{name} run {run} exited {code}"
            dirs.append(out)
        files_a = sorted(p.name for p in dirs[0].iterdir())
        files_b = sorted(p.name for p in dirs[1].iterdir())
        if files_a != files_b:
            mismatches.append(f"{name}: file sets differ")
            continue
        for fname in files_a:
            if (dirs[0] / fname).read_bytes() != (dirs[1] / fname).read_bytes():
                mismatches.append(f"{name}/{fname}")
    ok = not mismatches
    detail = "all subcommand outputs byte-identical" if ok else f"mismatches: {mismatches}"
    assert ok, _verdict("criterion 9 determinism", ok, detail)
    _verdict("criterion 9 determinism", ok, detail)
