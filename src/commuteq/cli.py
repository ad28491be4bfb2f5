"""Command-line interface: solve, sweep, toll, and oracle runs with CSV output.

All numeric output is formatted to 10 significant digits and produced by
deterministic computations, so repeated runs on the same inputs yield
byte-identical files.  Exit codes: 0 success, 2 input or validation error,
3 solver non-convergence, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import dynamics, metrics, toll as toll_mod
from .equilibrium import EquilibriumSolution, TimeProfile, solve_mixed, solution_delay
from .errors import ScenarioError, SolverError
from .model import Scenario, VehicleClass, average_speed
from .scenario_io import Numerics, ScenarioConfig, bundled_scenario_path, load_config

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SOLVER = 3
EXIT_IO = 4

PROFILE_COLUMNS = (
    "t_hours",
    "delay_hours",
    "flow_total",
    "flow_gv",
    "flow_ev",
    "cost_traveltime",
    "cost_energy",
    "cost_schedule",
    "toll",
    "cost_total",
)


def _fmt(x: float) -> str:
    return format(float(x), ".10g")


def _write_csv(path: Path, header: tuple[str, ...], rows, template: str | None = None) -> None:
    """Write each row tuple through one ``%`` template, by default ``%.10g`` per
    cell (on floats byte-identical to :func:`_fmt`, and one call per row)."""
    line = (template or ",".join(["%.10g"] * len(header))) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(line % row for row in rows)


def _write_summary(path: Path, items: list[tuple[str, object]]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key, value in items:
            if isinstance(value, float):
                value = _fmt(value)
            fh.write(f"{key} = {value}\n")


def write_profile_csv(path: Path, profile: TimeProfile) -> None:
    rows = zip(
        profile.times,
        profile.delay,
        profile.flow_total,
        profile.flow_gv,
        profile.flow_ev,
        profile.cost_travel_time,
        profile.cost_energy,
        profile.cost_schedule,
        profile.toll,
        profile.cost_total,
    )
    _write_csv(path, PROFILE_COLUMNS, rows)


def _cost_cell(solution: EquilibriumSolution, cls: VehicleClass) -> str:
    cost = solution.class_costs.get(cls)
    return "" if cost is None else _fmt(cost)


def _solution_summary(solution: EquilibriumSolution, report: metrics.MetricsReport):
    sc = solution.scenario
    items: list[tuple[str, object]] = [
        ("mpr", sc.mpr),
        ("cost_gv", _cost_cell(solution, VehicleClass.GV)),
        ("cost_ev", _cost_cell(solution, VehicleClass.EV)),
        ("window_start_hours", solution.window[0]),
        ("window_end_hours", solution.window[1]),
        ("duration_hours", solution.duration),
        ("max_delay_hours", report.max_delay),
        ("peak_flow_vph", report.peak_flow),
        ("speed_at_peak_kmh", float(average_speed(report.max_delay, sc))),
        ("ecp_hours", report.ecp),
        ("max_ecd_hours", report.max_ecd),
        ("cost_traveltime_total", report.costs.travel_time),
        ("cost_energy_total", report.costs.energy),
        ("cost_schedule_total", report.costs.schedule_delay),
        ("toll_revenue_total", report.costs.toll_revenue),
        ("social_cost_total", report.costs.social),
    ]
    for cls in (VehicleClass.GV, VehicleClass.EV):
        if cls in solution.class_counts:
            items.append((f"count_{cls.value}", solution.class_counts[cls]))
    return items


def _solve_with_numerics(scenario: Scenario, numerics: Numerics, dt: float) -> EquilibriumSolution:
    return solve_mixed(
        scenario, dt=dt, root_rtol=numerics.root_rtol, mixed_rtol=numerics.mixed_rtol
    )


def _baseline(scenario: Scenario, numerics: Numerics, dt: float) -> EquilibriumSolution:
    return _solve_with_numerics(replace(scenario, mpr=0.0), numerics, dt)


def cmd_solve(config: ScenarioConfig, out_dir: Path, dt: float, quiet: bool) -> int:
    scenario = config.scenario
    solution = _solve_with_numerics(scenario, config.numerics, dt)
    baseline = (
        solution.profile
        if scenario.mpr == 0.0
        else _baseline(scenario, config.numerics, dt).profile
    )
    report = metrics.summarize(solution.profile, baseline)
    write_profile_csv(out_dir / "profile.csv", solution.profile)
    _write_summary(out_dir / "summary.txt", [("command", "solve")] + _solution_summary(solution, report))
    if not quiet:
        print(f"solve: mpr={scenario.mpr:g} max_delay={_fmt(report.max_delay)} h "
              f"ecp={_fmt(report.ecp)} h -> {out_dir}")
    return EXIT_OK


def cmd_sweep(config: ScenarioConfig, out_dir: Path, dt: float, mprs: list[float], quiet: bool) -> int:
    numerics = config.numerics
    mprs = sorted(set(mprs))
    # the solve is deterministic, so the mpr-0 row reuses the baseline's solution
    baseline = _baseline(config.scenario, numerics, dt)
    rows = []
    for mpr in mprs:
        solution = (
            baseline
            if mpr == 0.0
            else _solve_with_numerics(replace(config.scenario, mpr=mpr), numerics, dt)
        )
        report = metrics.summarize(solution.profile, baseline.profile)
        rows.append(
            (
                mpr,
                _cost_cell(solution, VehicleClass.GV),
                _cost_cell(solution, VehicleClass.EV),
                report.max_delay,
                solution.duration,
                report.ecp,
                report.peak_flow,
                report.costs.social,
            )
        )
        if not quiet:
            print(f"sweep: mpr={mpr:g} max_delay={_fmt(report.max_delay)} ecp={_fmt(report.ecp)}")
    _write_csv(
        out_dir / "sweep.csv",
        (
            "mpr",
            "cost_gv",
            "cost_ev",
            "max_delay_hours",
            "duration_hours",
            "ecp_hours",
            "peak_flow_vph",
            "social_cost",
        ),
        rows,
        template="%.10g,%s,%s,%.10g,%.10g,%.10g,%.10g,%.10g",
    )
    return EXIT_OK


def cmd_toll(config: ScenarioConfig, out_dir: Path, dt: float, incentive: bool, quiet: bool) -> int:
    scenario = config.scenario
    numerics = config.numerics
    if 0.0 < scenario.mpr < 1.0:
        raise ScenarioError(
            f"toll needs a single-class fleet, mpr 0 or 1, got mpr={scenario.mpr}: "
            "the mixed-fleet system optimum is not implemented"
        )
    cls = VehicleClass.EV if scenario.mpr == 1.0 else VehicleClass.GV
    model = scenario.energy_model(cls)
    so = toll_mod.solve_system_optimum(
        scenario,
        model,
        dt=dt,
        root_rtol=numerics.root_rtol,
        mixed_rtol=numerics.mixed_rtol,
    )
    schedule = toll_mod.compute_toll(so, model, scenario)
    residual = toll_mod.verify_tolled_equilibrium(schedule, scenario, model)
    ue = _solve_with_numerics(scenario, numerics, dt)
    # exact basis (cost * population), comparable with the SO total
    ue_social = sum(
        ue.class_costs[c] * ue.class_counts[c] for c in ue.class_costs
    )

    if incentive:
        rebased = schedule.as_incentive()
        rows = zip(schedule.times, schedule.toll, rebased)
        header = ("t_hours", "toll", "incentive")
    else:
        rows = zip(schedule.times, schedule.toll)
        header = ("t_hours", "toll")
    _write_csv(out_dir / "toll.csv", header, rows)
    write_profile_csv(out_dir / "so_profile.csv", so.profile)
    _write_summary(
        out_dir / "summary.txt",
        [
            ("command", "toll"),
            ("vehicle_class", cls.value),
            ("multiplier", so.multiplier),
            ("tolled_equilibrium_residual", residual),
            ("window_start_hours", so.window[0]),
            ("window_end_hours", so.window[1]),
            ("duration_hours", so.window[1] - so.window[0]),
            ("max_delay_hours", so.max_delay),
            ("max_toll", float(np.max(schedule.toll)) if schedule.toll.size else 0.0),
            ("toll_revenue", so.toll_revenue),
            ("so_social_cost", so.total_cost),
            ("ue_social_cost", ue_social),
            ("ue_duration_hours", ue.duration),
            ("ue_max_delay_hours", ue.max_delay),
        ],
    )
    if not quiet:
        print(f"toll: lambda={_fmt(so.multiplier)} residual={residual:.3e} -> {out_dir}")
    return EXIT_OK


def cmd_oracle(config: ScenarioConfig, out_dir: Path, dt: float, quiet: bool) -> int:
    scenario = config.scenario
    numerics = config.numerics
    assignment, report = dynamics.run_until_converged(
        scenario,
        bin_width=numerics.bin_width,
        eta=numerics.eta,
        gap_tol=numerics.gap_tol,
        max_days=numerics.max_days,
    )
    costs = dynamics.bin_costs(assignment, scenario)
    delays = assignment.delays(scenario)
    flows = assignment.masses / assignment.bin_width
    rows = zip(
        assignment.centers,
        delays,
        flows[0] + flows[1],
        flows[0],
        flows[1],
        assignment.masses[0],
        assignment.masses[1],
        costs[0],
        costs[1],
    )
    _write_csv(
        out_dir / "oracle_profile.csv",
        (
            "t_hours",
            "delay_hours",
            "flow_total",
            "flow_gv",
            "flow_ev",
            "mass_gv",
            "mass_ev",
            "cost_gv",
            "cost_ev",
        ),
        rows,
    )
    trace_rows = ((day, row[0], row[1]) for day, row in enumerate(report.trace))
    _write_csv(out_dir / "gap_trace.csv", ("day", "rel_gap_gv", "rel_gap_ev"), trace_rows)

    items: list[tuple[str, object]] = [
        ("command", "oracle"),
        ("converged", str(report.converged).lower()),
        ("days", report.days),
        ("stop_reason", report.stop_reason),
        ("relative_gap", report.worst_relative_gap),
    ]
    if scenario.n_total > 0.0:
        analytic = _solve_with_numerics(scenario, numerics, dt)
        reference = solution_delay(analytic, assignment.centers)
        peak = max(float(np.max(reference)), 1e-300)
        used = assignment.masses.sum(axis=0) > dynamics.USED_MASS_FRACTION * scenario.n_total
        deviation = float(np.max(np.abs(delays - reference)[used]) / peak) if used.any() else 0.0
        items.append(("max_delay_deviation_vs_analytic", deviation))
        for row, cls in enumerate(dynamics.CLASS_ORDER):
            if scenario.population(cls) > 0.0:
                items.append((f"mass_{cls.value}", float(assignment.masses[row].sum())))
    _write_summary(out_dir / "summary.txt", items)
    if not quiet:
        print(
            f"oracle: days={report.days} converged={report.converged} "
            f"gap={report.worst_relative_gap:.3e} -> {out_dir}"
        )
    if not report.converged:
        raise SolverError(
            "day-to-day oracle did not converge within max_days",
            diagnostics={"days": report.days, "relative_gap": report.worst_relative_gap},
        )
    return EXIT_OK


def _parse_mpr_list(spec: str) -> list[float]:
    spec = spec.strip()
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ScenarioError(f"--mpr range must be start:step:stop, got {spec!r}")
        start, step, stop = (float(p) for p in parts)
        if step <= 0.0:
            raise ScenarioError("--mpr range step must be positive")
        count = int(round((stop - start) / step))
        values = [start + i * step for i in range(count + 1) if start + i * step <= stop + 1e-12]
    else:
        try:
            values = [float(p) for p in spec.split(",") if p.strip()]
        except ValueError:
            raise ScenarioError(f"could not parse --mpr list {spec!r}") from None
    values = [round(v, 12) for v in values]
    for v in values:
        if not 0.0 <= v <= 1.0:
            raise ScenarioError(f"--mpr value {v} outside [0,1]")
    if not values:
        raise ScenarioError("--mpr list is empty")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="commuteq",
        description="Morning-commute departure-time equilibrium solver for "
        "mixed gasoline/electric fleets.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--scenario",
        type=Path,
        default=None,
        help="scenario file (default: bundled basic scenario)",
    )
    common.add_argument("--out", type=Path, default=Path("out"), help="output directory")
    common.add_argument(
        "--dt", type=float, default=None, help="profile grid spacing in minutes"
    )
    common.add_argument("--quiet", action="store_true", help="suppress progress output")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("solve", parents=[common], help="solve the equilibrium at the file's mpr")
    sweep = sub.add_parser("sweep", parents=[common], help="solve across a list of mpr values")
    sweep.add_argument(
        "--mpr",
        default="0.0:0.1:1.0",
        help="comma list or start:step:stop range of mpr values",
    )
    tl = sub.add_parser("toll", parents=[common], help="system optimum and decentralizing toll")
    tl.add_argument(
        "--incentive",
        action="store_true",
        help="also emit the schedule rebased to a nonpositive incentive",
    )
    sub.add_parser("oracle", parents=[common], help="run the day-to-day oracle to convergence")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        scenario_path = args.scenario if args.scenario is not None else bundled_scenario_path()
        config = load_config(scenario_path)
        dt = (args.dt / 60.0) if args.dt is not None else config.numerics.dt
        if dt <= 0.0:
            raise ScenarioError("--dt must be positive")
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "solve":
            return cmd_solve(config, out_dir, dt, args.quiet)
        if args.command == "sweep":
            return cmd_sweep(config, out_dir, dt, _parse_mpr_list(args.mpr), args.quiet)
        if args.command == "toll":
            return cmd_toll(config, out_dir, dt, args.incentive, args.quiet)
        if args.command == "oracle":
            return cmd_oracle(config, out_dir, dt, args.quiet)
        raise ScenarioError(f"unknown command {args.command!r}")
    except ScenarioError as exc:
        print(f"commuteq: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SolverError as exc:
        print(f"commuteq: solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as exc:
        print(f"commuteq: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
