"""Command-line interface: solve, sweep, toll, and oracle runs with CSV output.

All numeric output is formatted to 10 significant digits and produced by
deterministic computations, so repeated runs on the same inputs yield
byte-identical files.  A command writes all of its CSVs in one
:func:`_write_csvs` call, block of rows by block of rows, and formats a
column that repeats in a block, in one file or another, only once.  Exit
codes: 0 success, 2 input or validation error, 3 solver non-convergence,
4 I/O failure.

No solve samples a grid: ``solve`` and ``toll`` sample their solution once,
at ``--dt``, for their CSVs (and the max ECD's grid, or the residual).
``sweep`` and ``oracle`` accept ``--dt`` and write nothing that depends on it.

The argument parser is built once per process, on the first :func:`main`
call, and reused: parsing leaves it unchanged.  The scenario file and the
``CEQ_*`` environment overrides are read again on every call, so repeated
in-process calls write the same files as separate runs.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from collections.abc import Iterable
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import dynamics, metrics, toll as toll_mod
from .equilibrium import (
    EquilibriumSolution, TimeProfile, sample_profiles, solution_delay, solve_mixed
)
from .errors import ScenarioError, SolverError
from .model import VehicleClass, average_speed, schedule_delay
from .scenario_io import ScenarioConfig, bundled_scenario_path, load_config

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SOLVER = 3
EXIT_IO = 4

#: Most rows a ``sweep --mpr start:step:stop`` range may expand to (a step of 1e-4 on [0, 1]).
MAX_MPR_ROWS = 10_001

#: ``profile.csv`` and ``so_profile.csv``: each header and the ``TimeProfile`` field under it.
PROFILE_COLUMNS = {
    "t_hours": "times",
    "delay_hours": "delay",
    "flow_total": "flow_total",
    "flow_gv": "flow_gv",
    "flow_ev": "flow_ev",
    "cost_traveltime": "cost_travel_time",
    "cost_energy": "cost_energy",
    "cost_schedule": "cost_schedule",
    "toll": "toll",
    "cost_total": "cost_total",
}


#: Rows per block of :func:`_write_csvs`; larger blocks raise a long CSV's peak memory.
CSV_BLOCK_ROWS = 256


def _fmt(x: float) -> str:
    return format(float(x), ".10g")


def _write_csvs(files: dict[Path, dict[str, Iterable]]) -> None:
    """Write each ``{path: {header: column}}`` file, all together, one block of
    :data:`CSV_BLOCK_ROWS` rows at a time.  In a block, each float column's
    bytes (so 0.0 and -0.0 differ) are formatted once, in whichever file they
    come first: a bit-constant column as one :func:`_fmt` string, any other
    ``%.10g`` per cell.  Columns of ``str`` cells pass through as they are.
    """
    handles, tables = [], []
    try:
        for path, columns in files.items():
            handles.append(open(path, "w", encoding="utf-8", newline="\n"))
            handles[-1].write(",".join(columns) + "\n")
            tables.append([
                col if isinstance(col, list) and col and isinstance(col[0], str)
                else np.asarray(col, dtype=float)
                for col in columns.values()
            ])
        for start in range(0, max(len(cols[0]) for cols in tables), CSV_BLOCK_ROWS):
            seen: dict[bytes, list[str]] = {}
            for fh, cols in zip(handles, tables):
                if start >= len(cols[0]):
                    continue
                cells = []
                for col in cols:
                    part = col[start:start + CSV_BLOCK_ROWS]
                    if not isinstance(part, list):
                        key, n = part.tobytes(), len(part)
                        if key not in seen:
                            seen[key] = (
                                [_fmt(part[0])] * n if key == key[:8] * n
                                else ("%.10g\n" * n % tuple(part.tolist())).split("\n")[:-1]
                            )
                        part = seen[key]
                    cells.append(part)
                fh.write("\n".join(map(",".join, zip(*cells))) + "\n")
    finally:
        for fh in handles:
            fh.close()


def _write_summary(path: Path, items: list[tuple[str, object]]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key, value in items:
            if isinstance(value, float):
                value = _fmt(value)
            fh.write(f"{key} = {value}\n")


def _profile_columns(profile: TimeProfile) -> dict[str, np.ndarray]:
    return {header: getattr(profile, name) for header, name in PROFILE_COLUMNS.items()}


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
        ("max_delay_hours", solution.max_delay),
        ("peak_flow_vph", solution.peak_flow),
        ("speed_at_peak_kmh", float(average_speed(solution.max_delay, sc))),
        ("ecp_hours", report.ecp),
        ("max_ecd_hours", report.max_ecd),
        ("cost_traveltime_total", solution.costs.travel_time),
        ("cost_energy_total", solution.costs.energy),
        ("cost_schedule_total", solution.costs.schedule_delay),
        ("toll_revenue_total", solution.costs.toll_revenue),
        ("social_cost_total", solution.costs.social),
    ]
    for cls in (VehicleClass.GV, VehicleClass.EV):
        if cls in solution.class_counts:
            items.append((f"count_{cls.value}", solution.class_counts[cls]))
    return items


def cmd_solve(config: ScenarioConfig, out_dir: Path, dt: float, quiet: bool) -> int:
    scenario = config.scenario
    solution = solve_mixed(scenario)
    baseline = solution if scenario.mpr == 0.0 else solve_mixed(replace(scenario, mpr=0.0))
    report = metrics.summarize(solution, baseline, dt)
    _write_csvs({out_dir / "profile.csv": _profile_columns(sample_profiles(solution, dt))})
    _write_summary(out_dir / "summary.txt", [("command", "solve")] + _solution_summary(solution, report))
    if not quiet:
        print(f"solve: mpr={scenario.mpr:g} max_delay={_fmt(solution.max_delay)} h "
              f"ecp={_fmt(report.ecp)} h -> {out_dir}")
    return EXIT_OK


def cmd_sweep(config: ScenarioConfig, out_dir: Path, mprs: list[float], quiet: bool) -> int:
    mprs = sorted(set(mprs))
    # the solve is deterministic, so the mpr-0 row reuses the baseline's solution
    baseline = solve_mixed(replace(config.scenario, mpr=0.0))
    columns: dict[str, list] = {}
    for mpr in mprs:
        solution = baseline if mpr == 0.0 else solve_mixed(replace(config.scenario, mpr=mpr))
        ecp = metrics.extra_congested_period(solution, baseline.max_delay)
        row = {
            "mpr": mpr,
            "cost_gv": _cost_cell(solution, VehicleClass.GV),
            "cost_ev": _cost_cell(solution, VehicleClass.EV),
            "max_delay_hours": solution.max_delay,
            "duration_hours": solution.duration,
            "ecp_hours": ecp,
            "peak_flow_vph": solution.peak_flow,
            "social_cost": solution.costs.social,
        }
        for header, cell in row.items():
            columns.setdefault(header, []).append(cell)
        if not quiet:
            print(f"sweep: mpr={mpr:g} max_delay={_fmt(solution.max_delay)} ecp={_fmt(ecp)}")
    # the cost cells come formatted, and empty for a class with no commuters
    _write_csvs({out_dir / "sweep.csv": columns})
    return EXIT_OK


def cmd_toll(config: ScenarioConfig, out_dir: Path, dt: float, incentive: bool, quiet: bool) -> int:
    scenario = config.scenario
    if 0.0 < scenario.mpr < 1.0:
        raise ScenarioError(
            f"toll needs a single-class fleet, mpr 0 or 1, got mpr={scenario.mpr}: "
            "the mixed-fleet system optimum is not implemented"
        )
    cls = VehicleClass.EV if scenario.mpr == 1.0 else VehicleClass.GV
    model = scenario.energy_model(cls)
    so = toll_mod.solve_system_optimum(scenario, model)
    profile = sample_profiles(so, dt)
    toll = toll_mod.compute_toll(profile)
    residual = toll_mod.verify_tolled_equilibrium(so, profile)
    ue = solve_mixed(scenario)

    columns = {"t_hours": profile.times, "toll": toll}
    if incentive:
        columns["incentive"] = toll - np.max(toll)
    _write_csvs({
        out_dir / "toll.csv": columns,
        out_dir / "so_profile.csv": _profile_columns(profile),
    })
    _write_summary(
        out_dir / "summary.txt",
        [
            ("command", "toll"),
            ("vehicle_class", cls.value),
            ("multiplier", so.multiplier),
            ("tolled_equilibrium_residual", residual),
            ("window_start_hours", so.window[0]),
            ("window_end_hours", so.window[1]),
            ("duration_hours", so.duration),
            ("max_delay_hours", so.max_delay),
            ("max_toll", float(np.max(toll))),
            ("toll_revenue", so.toll_revenue),
            ("so_social_cost", so.total_cost),
            ("ue_social_cost", ue.costs.social),
            ("ue_duration_hours", ue.duration),
            ("ue_max_delay_hours", ue.max_delay),
        ],
    )
    if not quiet:
        print(f"toll: lambda={_fmt(so.multiplier)} residual={residual:.3e} -> {out_dir}")
    return EXIT_OK


def cmd_oracle(config: ScenarioConfig, out_dir: Path, quiet: bool) -> int:
    scenario = config.scenario
    numerics = config.numerics
    assignment, report = dynamics.run_until_converged(
        scenario,
        bin_width=numerics.bin_width,
        eta=numerics.eta,
        gap_tol=numerics.gap_tol,
        max_days=numerics.max_days,
    )
    with np.errstate(under="ignore"):  # as in the day loop: near-empty bins flush to zero
        delays = assignment.delays(scenario)
        costs = dynamics.bin_costs(
            assignment, scenario, schedule_delay(assignment.centers, scenario), delays
        )
    flows = assignment.masses / assignment.bin_width
    _write_csvs({
        out_dir / "oracle_profile.csv": {
            "t_hours": assignment.centers,
            "delay_hours": delays,
            "flow_total": flows[0] + flows[1],
            "flow_gv": flows[0],
            "flow_ev": flows[1],
            "mass_gv": assignment.masses[0],
            "mass_ev": assignment.masses[1],
            "cost_gv": costs[0],
            "cost_ev": costs[1],
        },
        out_dir / "gap_trace.csv": {
            "day": range(len(report.trace)),
            "rel_gap_gv": report.trace[:, 0],
            "rel_gap_ev": report.trace[:, 1],
            "weighted_gap_gv": report.weighted_trace[:, 0],
            "weighted_gap_ev": report.weighted_trace[:, 1],
        },
    })

    items: list[tuple[str, object]] = [
        ("command", "oracle"),
        ("converged", str(report.converged).lower()),
        ("days", report.days),
        ("stop_reason", report.stop_reason),
        ("weighted_gap", report.worst_weighted_gap),
        ("relative_gap", report.worst_relative_gap),
    ]
    reference_error = None
    if scenario.n_total > 0.0:
        try:
            analytic = solve_mixed(scenario)
        except SolverError as exc:  # the oracle's own result is still reported
            reference_error = exc
            items.append(("reference_error", str(exc)))
        else:
            reference = solution_delay(analytic, assignment.centers)
            peak = max(float(np.max(reference)), 1e-300)
            used = assignment.masses.sum(axis=0) > dynamics.USED_MASS_FRACTION * scenario.n_total
            deviation = float(np.max(np.abs(delays - reference)[used], initial=0.0) / peak)
            items.append(("max_delay_deviation_vs_analytic", deviation))
        for row, cls in enumerate(dynamics.CLASS_ORDER):
            if scenario.population(cls) > 0.0:
                items.append((f"mass_{cls.value}", float(assignment.masses[row].sum())))
    _write_summary(out_dir / "summary.txt", items)
    if not quiet:
        print(
            f"oracle: days={report.days} converged={report.converged} "
            f"weighted_gap={report.worst_weighted_gap:.3e} -> {out_dir}"
        )
    if reference_error is not None:
        raise reference_error
    if not report.converged:
        raise SolverError(
            "day-to-day oracle did not converge within max_days",
            diagnostics={
                "days": report.days,
                "weighted_gap": report.worst_weighted_gap,
                "relative_gap": report.worst_relative_gap,
            },
        )
    return EXIT_OK


def _parse_mpr_list(spec: str) -> list[float]:
    spec = spec.strip()
    is_range = ":" in spec
    parts = spec.split(":") if is_range else [p for p in spec.split(",") if p.strip()]
    if is_range and len(parts) != 3:
        raise ScenarioError(f"--mpr range must be start:step:stop, got {spec!r}")
    try:
        numbers = [float(p) for p in parts]
    except ValueError:
        raise ScenarioError(f"could not parse --mpr {spec!r}") from None
    if is_range:
        start, step, stop = numbers
        # NaN fails every comparison, so these also reject non-finite parts
        if not 0.0 < step < math.inf:
            raise ScenarioError(f"--mpr range step must be positive and finite, got {spec!r}")
        for v in (start, stop):
            if not 0.0 <= v <= 1.0:
                raise ScenarioError(f"--mpr range endpoint {v} outside [0,1]")
        # checked before any list is built; a subnormal step overflows the
        # ratio to inf, which fails the check too, and the message then
        # takes the row count from logarithms
        ratio = (stop - start) / step
        if not ratio < MAX_MPR_ROWS - 0.5:
            rows = (
                f"{ratio + 1.0:.6g}"
                if math.isfinite(ratio)
                else f"about 1e{math.log10(stop - start) - math.log10(step):+.0f}"
            )
            raise ScenarioError(
                f"--mpr range {spec!r} expands to {rows} rows, more than {MAX_MPR_ROWS}"
            )
        count = int(round(ratio))
        values = [start + i * step for i in range(count + 1) if start + i * step <= stop + 1e-12]
    else:
        values = numbers
    values = [round(v, 12) for v in values]
    for v in values:
        if not 0.0 <= v <= 1.0:
            raise ScenarioError(f"--mpr value {v} outside [0,1]")
    if not values:
        raise ScenarioError("--mpr list is empty")
    return values


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``commuteq`` parser, built on the first call and then reused.

    ``parse_args`` does not change a parser and every default is immutable,
    so the shared parser parses each command line as a fresh one would.
    """
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
    """Run one command line and return its exit code.

    The parser comes from the first call's :func:`build_parser`; the scenario
    file and the environment are read on every call.
    """
    args = build_parser().parse_args(argv)
    try:
        scenario_path = args.scenario if args.scenario is not None else bundled_scenario_path()
        config = load_config(scenario_path)
        dt = (args.dt / 60.0) if args.dt is not None else config.numerics.dt
        if not 0.0 < dt < math.inf:  # NaN fails both comparisons
            raise ScenarioError(f"--dt must be positive and finite, got {args.dt}")
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "solve":
            return cmd_solve(config, out_dir, dt, args.quiet)
        if args.command == "sweep":
            return cmd_sweep(config, out_dir, _parse_mpr_list(args.mpr), args.quiet)
        if args.command == "toll":
            return cmd_toll(config, out_dir, dt, args.incentive, args.quiet)
        if args.command == "oracle":
            return cmd_oracle(config, out_dir, args.quiet)
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
    except ArithmeticError as exc:  # an input whose numbers leave the float range
        print(f"commuteq: input error: float range exceeded ({type(exc).__name__}: {exc})",
              file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
