"""CLI tests: outputs, column contract, exit codes, determinism."""

import argparse
import csv
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from commuteq import (
    ScenarioError,
    SolverError,
    VehicleClass,
    bundled_scenario_path,
    cli,
    equilibrium,
    load_config,
    sample_profiles,
    solve_system_optimum,
)
from commuteq.cli import (
    CSV_BLOCK_ROWS,
    EXIT_INPUT,
    EXIT_IO,
    EXIT_OK,
    EXIT_SOLVER,
    MAX_MPR_ROWS,
    PROFILE_COLUMNS,
    _parse_mpr_list,
    _write_csvs,
    main,
)
from conftest import wide_ranges

GOLDEN_MAX_DELAY_EV = 0.3983845685044753  # bundled scenario has mpr = 1
GOLDEN_MAX_DELAY_GV = 0.2614128645575636


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _files(out):
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


def _cells(columns):
    """Rows of cells, each float through its own ``%.10g``, each ``str`` as it is."""
    return [[c if isinstance(c, str) else "%.10g" % c for c in row] for row in zip(*columns)]


def _read_summary(path):
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, _, value = line.partition(" = ")
        out[key] = value
    return out


class TestSolve:
    def test_writes_profile_and_summary(self, tmp_path):
        out = tmp_path / "run"
        assert main(["solve", "--out", str(out), "--quiet"]) == EXIT_OK
        header, rows = _read_csv(out / "profile.csv")
        assert header == list(PROFILE_COLUMNS)
        assert len(rows) > 50
        summary = _read_summary(out / "summary.txt")
        assert summary["command"] == "solve"
        assert float(summary["count_ev"]) == pytest.approx(3000.0, rel=1e-6)

    def test_profile_max_delay_matches_golden(self, tmp_path):
        out = tmp_path / "run"
        main(["solve", "--out", str(out), "--quiet"])
        _, rows = _read_csv(out / "profile.csv")
        max_delay = max(float(r[1]) for r in rows)
        assert max_delay == pytest.approx(GOLDEN_MAX_DELAY_EV, rel=1e-6)

    def test_profile_max_delay_matches_golden_all_gv(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CEQ_DEMAND_MPR", "0.0")
        out = tmp_path / "run"
        main(["solve", "--out", str(out), "--quiet"])
        _, rows = _read_csv(out / "profile.csv")
        max_delay = max(float(r[1]) for r in rows)
        assert max_delay == pytest.approx(GOLDEN_MAX_DELAY_GV, rel=1e-6)
        assert all(float(r[4]) == 0.0 for r in rows)  # no EV flow at mpr = 0

    def test_dt_flag_controls_grid(self, tmp_path):
        out = tmp_path / "run"
        main(["solve", "--out", str(out), "--dt", "2.0", "--quiet"])
        _, rows = _read_csv(out / "profile.csv")
        ts = [float(r[0]) for r in rows[:3]]
        # CSV carries 10 significant digits, so compare at that precision
        assert ts[1] - ts[0] == pytest.approx(2.0 / 60.0, abs=1e-8)


class TestSweep:
    def test_default_eleven_rows_sorted_with_monotone_ecp(self, tmp_path):
        out = tmp_path / "run"
        assert main(["sweep", "--out", str(out), "--quiet"]) == EXIT_OK
        header, rows = _read_csv(out / "sweep.csv")
        assert header[0] == "mpr"
        assert len(rows) == 11
        mprs = [float(r[0]) for r in rows]
        assert mprs == sorted(mprs)
        ecp = [float(r[header.index("ecp_hours")]) for r in rows]
        assert ecp[0] == 0.0
        assert all(b >= a - 1e-12 for a, b in zip(ecp, ecp[1:]))

    def test_explicit_list(self, tmp_path):
        out = tmp_path / "run"
        assert main(["sweep", "--out", str(out), "--mpr", "0,0.5,1", "--quiet"]) == EXIT_OK
        _, rows = _read_csv(out / "sweep.csv")
        assert [float(r[0]) for r in rows] == [0.0, 0.5, 1.0]

    @pytest.mark.parametrize(
        "extra, solves",
        [([], 11), (["--mpr", "0.3,0.7,1"], 4), (["--mpr", "1,0,0.5"], 3)],
    )
    def test_each_mpr_is_solved_once(self, tmp_path, monkeypatch, extra, solves):
        # the mpr-0 baseline doubles as the mpr-0 row
        solved = []
        real = cli.solve_mixed

        def counting(scenario, **kwargs):
            solved.append(scenario.mpr)
            return real(scenario, **kwargs)

        monkeypatch.setattr(cli, "solve_mixed", counting)
        out = tmp_path / "run"
        assert main(["sweep", "--out", str(out), "--quiet", *extra]) == EXIT_OK
        assert len(solved) == solves
        assert len(set(solved)) == solves

    def test_bad_list_is_input_error(self, tmp_path):
        out = tmp_path / "run"
        assert main(["sweep", "--out", str(out), "--mpr", "0,junk", "--quiet"]) == EXIT_INPUT

    def test_out_of_range_value_is_input_error(self, tmp_path):
        out = tmp_path / "run"
        assert main(["sweep", "--out", str(out), "--mpr", "0,1.2", "--quiet"]) == EXIT_INPUT


class TestToll:
    def test_writes_schedule_and_residual(self, tmp_path):
        out = tmp_path / "run"
        assert main(["toll", "--out", str(out), "--quiet"]) == EXIT_OK
        header, rows = _read_csv(out / "toll.csv")
        assert header == ["t_hours", "toll"]
        summary = _read_summary(out / "summary.txt")
        lam = float(summary["multiplier"])
        assert float(summary["tolled_equilibrium_residual"]) <= 1e-6 * lam
        assert float(summary["so_social_cost"]) < float(summary["ue_social_cost"])
        tolls = [float(r[1]) for r in rows]
        assert min(tolls) >= 0.0

    def test_incentive_column(self, tmp_path):
        out = tmp_path / "run"
        assert main(["toll", "--out", str(out), "--incentive", "--quiet"]) == EXIT_OK
        header, rows = _read_csv(out / "toll.csv")
        assert header == ["t_hours", "toll", "incentive"]
        assert all(float(r[2]) <= 1e-12 for r in rows)

    @pytest.mark.parametrize("mpr", ["0", "1"])
    def test_fine_grid_cells_are_the_system_optimum_profile(self, tmp_path, monkeypatch, mpr):
        # both files are written together, so a column of one may reuse the other's strings
        monkeypatch.setenv("CEQ_DEMAND_MPR", mpr)
        out = tmp_path / "run"
        assert main(["toll", "--out", str(out), "--incentive", "--dt", "0.01", "--quiet"]) == EXIT_OK
        scenario = load_config(bundled_scenario_path()).scenario
        cls = VehicleClass.EV if mpr == "1" else VehicleClass.GV
        profile = sample_profiles(
            solve_system_optimum(scenario, scenario.energy_model(cls)), 0.01 / 60.0
        )
        assert len(profile.times) > 20 * CSV_BLOCK_ROWS
        header, rows = _read_csv(out / "so_profile.csv")
        assert header == list(PROFILE_COLUMNS)
        assert rows == _cells(getattr(profile, name) for name in PROFILE_COLUMNS.values())
        header, rows = _read_csv(out / "toll.csv")
        assert header == ["t_hours", "toll", "incentive"]
        assert rows == _cells([profile.times, profile.toll, profile.toll - np.max(profile.toll)])

    @pytest.mark.parametrize("mpr", ["0", "1"])
    def test_ue_lines_do_not_depend_on_dt(self, tmp_path, monkeypatch, mpr):
        # the UE's social cost is exact, its window analytic and its peak delay
        # the peak root, and it is solved on no grid
        monkeypatch.setenv("CEQ_DEMAND_MPR", mpr)
        lines = []
        for dt in ("0.01", "1"):
            out = tmp_path / dt
            assert main(["toll", "--out", str(out), "--dt", dt, "--quiet"]) == EXIT_OK
            summary = _read_summary(out / "summary.txt")
            lines.append({key: value for key, value in summary.items() if key.startswith("ue_")})
        assert sorted(lines[0]) == ["ue_duration_hours", "ue_max_delay_hours", "ue_social_cost"]
        assert lines[0] == lines[1]

    def test_mixed_fleet_is_an_input_error(self, tmp_path, monkeypatch, capsys):
        # the mixed-fleet system optimum is not built; no all-EV answer instead
        monkeypatch.setenv("CEQ_DEMAND_MPR", "0.5")
        out = tmp_path / "run"
        assert main(["toll", "--out", str(out), "--quiet"]) == EXIT_INPUT
        assert "mpr=0.5" in capsys.readouterr().err
        assert not (out / "toll.csv").exists()


def _summary_numbers(path):
    """``summary.txt`` values, each a float where it parses as one."""
    out = {}
    for key, value in _read_summary(path).items():
        try:
            out[key] = float(value)
        except ValueError:
            out[key] = value
    return out


def _agree(a, b, rtol):
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return abs(a - b) <= rtol * max(abs(a), abs(b))


class TestExactTotals:
    """Every summary scalar is exact: ``--dt`` shapes only the CSV profiles
    and ``toll``'s residual, and the commands report one social cost."""

    @pytest.mark.parametrize("mpr", ["0", "1"])
    def test_social_cost_agrees_across_commands(self, tmp_path, monkeypatch, mpr):
        monkeypatch.setenv("CEQ_DEMAND_MPR", mpr)
        for command in (["solve"], ["sweep", "--mpr", mpr], ["toll"]):
            assert main([*command, "--out", str(tmp_path / command[0]), "--quiet"]) == EXIT_OK
        solve = float(_read_summary(tmp_path / "solve" / "summary.txt")["social_cost_total"])
        header, rows = _read_csv(tmp_path / "sweep" / "sweep.csv")
        sweep = float(rows[0][header.index("social_cost")])
        toll = float(_read_summary(tmp_path / "toll" / "summary.txt")["ue_social_cost"])
        assert _agree(solve, sweep, 1e-9) and _agree(solve, toll, 1e-9), (solve, sweep, toll)

    @pytest.mark.parametrize(
        "command, mpr",
        [("solve", "0"), ("solve", "0.5"), ("solve", "1"), ("toll", "0"), ("toll", "1")],
    )
    def test_summary_does_not_depend_on_dt(self, tmp_path, monkeypatch, command, mpr):
        monkeypatch.setenv("CEQ_DEMAND_MPR", mpr)
        summaries = []
        for dt in ("1", "0.1"):
            out = tmp_path / dt
            assert main([command, "--out", str(out), "--dt", dt, "--quiet"]) == EXIT_OK
            summaries.append(_summary_numbers(out / "summary.txt"))
        coarse, fine = summaries
        assert sorted(coarse) == sorted(fine)
        # toll's residual is read on the sampled optimum; solve reads no grid
        grid = {"tolled_equilibrium_residual"} if command == "toll" else set()
        apart = {key: (coarse[key], fine[key]) for key in coarse
                 if key not in grid and not _agree(coarse[key], fine[key], 1e-9)}
        assert not apart
        assert grid <= set(coarse)

    def test_sweep_does_not_depend_on_dt(self, tmp_path):
        tables = []
        for dt in ("1", "0.1"):
            out = tmp_path / dt
            assert main(["sweep", "--out", str(out), "--dt", dt, "--quiet"]) == EXIT_OK
            tables.append(_read_csv(out / "sweep.csv"))
        (header, coarse), (fine_header, fine) = tables
        assert header == fine_header and len(coarse) == len(fine) == 11
        for row, fine_row in zip(coarse, fine):
            for name, a, b in zip(header, row, fine_row):
                assert (a == b == "") or _agree(float(a), float(b), 1e-9), (name, a, b)


class TestWriteCsvs:
    """``_write_csvs`` against the header and ``%.10g`` per cell, across row blocks and files."""

    @pytest.mark.parametrize("rows", [0, 1, 600])
    def test_matches_the_per_cell_reference(self, tmp_path, rows):
        rng = np.random.default_rng(rows)
        random = rng.normal(size=rows) * 10.0 ** rng.integers(-12, 13, size=rows)
        tweaked = random.copy()
        tweaked[50::100] += 1.0  # equal to ``random`` but inside each block
        first = {
            "random": random,
            "zeros": np.zeros(rows),
            "negative_zeros": -np.zeros(rows),
            "signed_zeros": np.resize([0.0, -0.0], rows),
            "specials": np.resize([np.nan, np.inf, -np.inf, 1.5], rows),
            "nans": np.full(rows, np.nan),
            "constant": np.full(rows, 0.1 + 0.2),
            "copy": random.copy(),
            "tweaked": tweaked,
            "empty": [""] * rows,
            "day": range(rows),
        }
        # longer than the first file, and repeating its columns in the blocks they share
        longer = rows + 100
        second = {
            "random": np.concatenate([random, rng.normal(size=100)]),
            "negative_zeros": -np.zeros(longer),
            "list": [0.5 * k for k in range(longer)],
        }
        files = {tmp_path / "first.csv": first, tmp_path / "second.csv": second}
        _write_csvs(files)
        for path, columns in files.items():
            expected = "\n".join([",".join(columns)] + list(map(",".join, _cells(columns.values()))))
            assert path.read_bytes() == (expected + "\n").encode()


class TestExitCodes:
    def test_missing_scenario_file(self, tmp_path):
        code = main(
            ["solve", "--scenario", str(tmp_path / "absent.toml"), "--out", str(tmp_path / "o"), "--quiet"]
        )
        assert code == EXIT_INPUT

    def test_validation_error(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CEQ_DEMAND_MPR", "1.7")
        code = main(["solve", "--out", str(tmp_path / "o"), "--quiet"])
        assert code == EXIT_INPUT

    def test_solver_failure_is_distinct(self, tmp_path, monkeypatch):
        # an oracle capped at zero days cannot converge
        monkeypatch.setenv("CEQ_NUMERICS_MAX_DAYS", "0")
        code = main(["oracle", "--out", str(tmp_path / "o"), "--quiet"])
        assert code == EXIT_SOLVER
        assert code != EXIT_INPUT

    def test_io_failure_is_distinct(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        code = main(["solve", "--out", str(blocker / "out"), "--quiet"])
        assert code == EXIT_IO

    @pytest.mark.parametrize(
        "var, value",
        [
            ("CEQ_NUMERICS_BIN_MINUTES", "nan"),
            ("CEQ_NUMERICS_BIN_MINUTES", "inf"),
            ("CEQ_NUMERICS_GAP_TOL", "nan"),
            ("CEQ_NUMERICS_QUAD_RTOL", "inf"),
            ("CEQ_NUMERICS_ROOT_RTOL", "nan"),
            ("CEQ_NUMERICS_MIXED_RTOL", "inf"),
        ],
    )
    def test_non_finite_numerics_rejected(self, tmp_path, monkeypatch, var, value):
        # a short day cap keeps a wrongly accepted value from running long
        monkeypatch.setenv("CEQ_NUMERICS_MAX_DAYS", "50")
        monkeypatch.setenv(var, value)
        code = main(["oracle", "--out", str(tmp_path / "o"), "--quiet"])
        assert code == EXIT_INPUT

    @pytest.mark.parametrize(
        "command, mpr",
        [("solve", "0"), ("solve", "0.5"), ("solve", "1"), ("toll", "0"), ("toll", "1")],
    )
    def test_loose_root_tolerance_misses_conservation(self, tmp_path, monkeypatch, capsys, command, mpr):
        # single-class, mixed and system-optimum roots face the same count check
        monkeypatch.setenv("CEQ_DEMAND_MPR", mpr)
        monkeypatch.setattr(equilibrium, "ROOT_RTOL", 1e-2)
        code = main([command, "--out", str(tmp_path / "o"), "--quiet"])
        assert code == EXIT_SOLVER
        assert "per-class conservation" in capsys.readouterr().err

    @pytest.mark.parametrize("mpr", ["0.5", "1"])
    @pytest.mark.parametrize("zeroed", [("EV",), ("GV", "EV")])
    def test_linear_energy_costs_solve_and_conserve(self, tmp_path, monkeypatch, mpr, zeroed):
        # with c2 = 0 the closed-form root bracket is the root itself, up to rounding
        solutions = []
        real = cli.solve_mixed

        def recording(scenario, **kwargs):
            solutions.append(real(scenario, **kwargs))
            return solutions[-1]

        monkeypatch.setattr(cli, "solve_mixed", recording)
        monkeypatch.setenv("CEQ_DEMAND_MPR", mpr)
        for cls in zeroed:
            monkeypatch.setenv(f"CEQ_ENERGY_{cls}_C2", "0")
        assert main(["solve", "--out", str(tmp_path / "o"), "--quiet"]) == EXIT_OK
        assert float(mpr) in [solution.scenario.mpr for solution in solutions]
        for solution in solutions:  # the requested mpr and the mpr-0 baseline
            sc = solution.scenario
            for cls, count in solution.class_counts.items():
                assert abs(count - sc.population(cls)) <= 1e-12 * sc.n_total

    def test_nonpositive_dt_rejected(self, tmp_path):
        code = main(["solve", "--out", str(tmp_path / "o"), "--dt", "0", "--quiet"])
        assert code == EXIT_INPUT

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--dt", "nan"],
            ["solve", "--dt", "inf"],
            ["toll", "--dt", "inf"],
            ["sweep", "--mpr", "0:0.1:inf"],
            ["sweep", "--mpr", "0:nan:1"],
            ["sweep", "--mpr", "nan:0.1:1"],
            ["sweep", "--mpr", "0:inf:1"],
            ["sweep", "--mpr", "0:0.1:1e300"],
            ["sweep", "--mpr", "0:x:1"],
            ["sweep", "--mpr", "nan,0.5"],
        ],
        ids=" ".join,
    )
    def test_non_finite_numbers_are_input_errors(self, tmp_path, capsys, argv):
        out = tmp_path / "o"
        assert main([*argv, "--out", str(out), "--quiet"]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("commuteq: input error: ") and err.count("\n") == 1
        assert not (out / "summary.txt").exists()

    @pytest.mark.parametrize("command", ["solve", "toll"])
    def test_dt_too_fine_to_sample_is_an_input_error(self, tmp_path, capsys, command):
        # the grid is measured before a row is built: 1e-320 no longer overflows int()
        out = tmp_path / "o"
        assert main([command, "--dt", "1e-320", "--out", str(out), "--quiet"]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("commuteq: input error: ") and err.count("\n") == 1
        assert f"more than {equilibrium.MAX_GRID_ROWS} rows" in err
        assert not (out / "summary.txt").exists()

    @pytest.mark.parametrize("spec, rows", [("0:1e-320:1", "about 1e+320"), ("0:1e-9:1", "1e+09")])
    def test_mpr_range_past_the_row_cap_is_an_input_error(self, tmp_path, capsys, spec, rows):
        # a list of 1e9 values is never built: the range is measured first
        out = tmp_path / "o"
        assert main(["sweep", "--mpr", spec, "--out", str(out), "--quiet"]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err == (
            f"commuteq: input error: --mpr range {spec!r} expands to {rows} rows, "
            f"more than {MAX_MPR_ROWS}\n"
        )
        assert not (out / "sweep.csv").exists()

    def test_mpr_range_at_the_row_cap_expands(self):
        values = _parse_mpr_list("0:1e-4:1")
        assert len(values) == MAX_MPR_ROWS
        assert values[0] == 0.0 and values[-1] == 1.0
        with pytest.raises(ScenarioError, match="expands to 10002 rows"):
            _parse_mpr_list("0:9.999e-5:1")

    @pytest.mark.parametrize(
        "var, value, command",
        [
            # the mass scale K * R * m**-1e6 underflows to 0; the oracle's start ceiling overflows
            *(("CEQ_CORRIDOR_NU", "1e-6", cmd) for cmd in ("solve", "sweep", "toll", "oracle")),
            # the band antiderivative T**(1 + 1/nu) overflows
            *(("CEQ_DEMAND_N_TOTAL", "1e300", cmd) for cmd in ("solve", "sweep", "toll")),
            *(("CEQ_CORRIDOR_CAPACITY_R", "1e-300", cmd) for cmd in ("solve", "sweep", "toll")),
        ],
    )
    def test_float_range_failure_is_an_input_error(
        self, tmp_path, capsys, monkeypatch, var, value, command
    ):
        monkeypatch.setenv(var, value)
        out = tmp_path / "o"
        assert main([command, "--out", str(out), "--quiet"]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("commuteq: input error: float range exceeded (")
        assert err.count("\n") == 1
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "var, value",
        [
            ("CEQ_DEMAND_N_TOTAL", "1e300"),
            ("CEQ_CORRIDOR_CAPACITY_R", "1e-300"),
            # in range, but bracketed by its linear term alone, far above the root, the start
            # root used to run out of iterations and exit 3; solve and toll exit 2 here too
            ("CEQ_DEMAND_N_TOTAL", "1e150"),
            ("CEQ_CORRIDOR_CAPACITY_R", "1e-150"),
        ],
    )
    def test_oracle_start_past_the_float_range_is_an_input_error(
        self, tmp_path, capsys, monkeypatch, var, value
    ):
        # the start root solves to a delay whose rush needs far more bins than the cap
        monkeypatch.setenv(var, value)
        out = tmp_path / "o"
        assert main(["oracle", "--out", str(out), "--quiet"]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err == (
            "commuteq: input error: bin width 0.0166667 h needs more than "
            f"{equilibrium.MAX_GRID_ROWS} start bins\n"
        )
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("mpr", ["0", "0.5", "1"])
    def test_oracle_costs_past_the_float_range_are_an_input_error(
        self, tmp_path, capfd, monkeypatch, mpr
    ):
        # a finite start whose first day overflows a bin delay: one stderr line, no
        # numpy warning, no output; solve exits 0 on the same file
        monkeypatch.setenv("CEQ_CORRIDOR_NU", "1e150")
        monkeypatch.setenv("CEQ_DEMAND_MPR", mpr)
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["oracle", "--out", str(out), "--quiet"]) == EXIT_INPUT
        err = capfd.readouterr().err
        assert err == (
            "commuteq: input error: oracle costs left the float range on day 1: a bin delay "
            "trip_km * (flow / capacity_r) ** nu overflows at nu = 1e+150\n"
        )
        assert list(out.iterdir()) == []
        assert main(["solve", "--out", str(tmp_path / "s"), "--quiet"]) == EXIT_OK

    @pytest.mark.parametrize("bin_minutes", ["1e-12", "1e-320"])
    def test_oracle_bin_grid_past_the_cap_is_an_input_error(
        self, tmp_path, capsys, monkeypatch, bin_minutes
    ):
        # about 1.3e14 bins (a 973 TiB array), and a ratio that overflows to inf: both refused
        # before ceil() and before a bin is built
        monkeypatch.setenv("CEQ_NUMERICS_BIN_MINUTES", bin_minutes)
        out = tmp_path / "o"
        assert main(["oracle", "--out", str(out), "--quiet"]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("commuteq: input error: ") and err.count("\n") == 1
        assert f"more than {equilibrium.MAX_GRID_ROWS} start bins" in err
        assert list(out.iterdir()) == []

    def test_oracle_underflow_is_flushed_under_a_raising_error_state(self, tmp_path, monkeypatch):
        # near-empty bins underflow in b*T*T; at mpr 0 that raised out of main
        monkeypatch.setenv("CEQ_DEMAND_MPR", "0")
        with np.errstate(under="raise"):
            assert main(["oracle", "--out", str(tmp_path / "o"), "--quiet"]) == EXIT_OK
            assert np.geterr()["under"] == "raise"


def _contract_draws(count: int, seed: int) -> list[tuple[float, str]]:
    """``(mpr, scenario file)`` pairs whose parameters are each log-uniform over
    a decade either side of their ``WIDE_RANGES`` bounds, at a uniform mpr."""
    rng = np.random.default_rng(seed)
    ranges = wide_ranges()
    draws = []
    for _ in range(count):
        p = {
            name: float(np.exp(rng.uniform(np.log(lo / 10.0), np.log(hi * 10.0))))
            for name, (lo, hi) in ranges.items()
        }
        mpr = float(rng.uniform(0.0, 1.0))
        draws.append((mpr, (
            f"[corridor]\ntrip_km = {p['trip_km']!r}\ncapacity_r = {p['capacity_r']!r}\n"
            f"nu = {p['nu']!r}\n\n[demand]\nn_total = {p['n_total']!r}\nt_star = 8.0\n"
            f"alpha = {p['alpha']!r}\nbeta = {p['beta']!r}\ngamma = {p['gamma']!r}\n"
            f"mpr = {mpr!r}\n\n"
            f"[energy.gv]\nc1 = {p['gv_c1']!r}\nc2 = {p['gv_c2']!r}\n\n"
            f"[energy.ev]\nc1 = {p['ev_c1']!r}\nc2 = {p['ev_c2']!r}\n\n[numerics]\nmax_days = 300\n"
        )))
    return draws


#: 16 seeded wide draws; every draw stays in, whatever it gives.
CONTRACT_DRAWS = _contract_draws(16, seed=20261020)


class TestExitContract:
    """The CLI's exit contract on seeded wide draws: 0, 2 or 3, never 1 (an
    uncaught exception, which fails the test here).  On 0 the outputs parse;
    on 2 or 3 stderr is one message line."""

    # a draw may trip the Scenario warnings, which go through ``warnings``
    # (recorded by pytest), not through the one error line counted here
    @pytest.mark.filterwarnings("ignore::UserWarning")
    @pytest.mark.parametrize("draw", range(len(CONTRACT_DRAWS)))
    def test_seeded_draw_exits_0_2_or_3(self, tmp_path, capsys, monkeypatch, draw):
        mpr, text = CONTRACT_DRAWS[draw]
        path = tmp_path / "scenario.toml"
        path.write_text(text, encoding="utf-8")
        # toll solves a single-class fleet: the draw's nearer end, 0 or 1
        commands = [("solve", {}), ("sweep", {}), ("toll", {"CEQ_DEMAND_MPR": str(round(mpr))})]
        if draw % 4 == 0:  # the oracle on 4 of the draws, at most 300 days each
            commands.append(("oracle", {}))
        for command, variables in commands:
            out = tmp_path / command
            extra = ["--mpr", "0,0.5,1"] if command == "sweep" else []
            with monkeypatch.context() as env:
                for var, value in variables.items():
                    env.setenv(var, value)
                argv = [command, *extra, "--scenario", str(path), "--out", str(out), "--quiet"]
                code = main(argv)
            err = capsys.readouterr().err
            assert code in (EXIT_OK, EXIT_INPUT, EXIT_SOLVER), (command, code, err)
            if code != EXIT_OK:
                assert err.startswith("commuteq: ") and err.count("\n") == 1, (command, err)
            elif command == "sweep":
                header, rows = _read_csv(out / "sweep.csv")
                assert header[0] == "mpr" and [row[0] for row in rows] == ["0", "0.5", "1"]
                # the cost cells are empty for a class with no commuters
                assert all(math.isfinite(float(cell)) for row in rows for cell in row[3:])
            else:
                lines = (out / "summary.txt").read_text(encoding="utf-8").splitlines()
                assert all(" = " in line for line in lines)
                summary = _summary_numbers(out / "summary.txt")
                assert summary["command"] == command
                assert all(math.isfinite(v) for v in summary.values() if isinstance(v, float))


class TestOracle:
    def test_summary_and_trace_carry_both_gaps(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("CEQ_DEMAND_MPR", "1")
        out = tmp_path / "o"
        assert main(["oracle", "--out", str(out)]) == EXIT_OK
        summary = _read_summary(out / "summary.txt")
        gap_tol = load_config(bundled_scenario_path(), env={}).numerics.gap_tol
        assert summary["converged"] == "true"
        # the weighted gap is the stop measure; the used-bin gap is reported beside it
        assert 0.0 <= float(summary["weighted_gap"]) < gap_tol
        assert float(summary["relative_gap"]) >= 0.0
        header, rows = _read_csv(out / "gap_trace.csv")
        assert header == ["day", "rel_gap_gv", "rel_gap_ev", "weighted_gap_gv", "weighted_gap_ev"]
        assert len(rows) == int(summary["days"]) + 1
        assert [row[0] for row in rows[:3]] == ["0", "1", "2"]
        assert rows[-1][4] == summary["weighted_gap"]  # all-EV: the EV columns decide
        assert rows[-1][2] == summary["relative_gap"]
        assert float(rows[0][4]) > gap_tol
        assert f"weighted_gap={float(summary['weighted_gap']):.3e}" in capsys.readouterr().out

    def test_mixed_oracle_converges_at_a_large_eta(self, tmp_path, monkeypatch):
        # with both classes moving on the day's starting costs, mpr 0.5
        # oscillated from eta about 0.55, and 0.7 exited 3 at max_days
        monkeypatch.setenv("CEQ_DEMAND_MPR", "0.5")
        monkeypatch.setenv("CEQ_NUMERICS_ETA", "0.9")
        out = tmp_path / "o"
        assert main(["oracle", "--out", str(out), "--quiet"]) == EXIT_OK
        summary = _read_summary(out / "summary.txt")
        assert summary["converged"] == "true"
        assert float(summary["max_delay_deviation_vs_analytic"]) <= 0.02

    def test_failed_reference_keeps_the_converged_summary(self, tmp_path, monkeypatch, capsys):
        # an EV model steeper than the GV one breaks the analytic GV-EV-GV
        # reference, not the oracle, which converges and says so
        monkeypatch.setenv("CEQ_DEMAND_MPR", "0.5")
        monkeypatch.setenv("CEQ_ENERGY_EV_C1", "8")
        monkeypatch.setenv("CEQ_ENERGY_EV_C2", "1")
        out = tmp_path / "o"
        with pytest.warns(UserWarning, match="EV energy coefficients"):
            code = main(["oracle", "--out", str(out), "--quiet"])
        assert code == EXIT_SOLVER
        message = "mixed topology invalid: an EV commuter could profit inside a GV segment"
        assert message in capsys.readouterr().err
        assert sorted(path.name for path in out.iterdir()) == [
            "gap_trace.csv", "oracle_profile.csv", "summary.txt"
        ]
        summary = _read_summary(out / "summary.txt")
        assert summary["converged"] == "true"
        assert summary["reference_error"] == message
        assert "max_delay_deviation_vs_analytic" not in summary
        assert float(summary["mass_gv"]) == pytest.approx(1500.0)
        assert float(summary["mass_ev"]) == pytest.approx(1500.0)

    def test_linear_gv_energy_model_converges(self, tmp_path, monkeypatch):
        # with c2 = 0 the start root's ceiling is the root itself; the all-EV bundled
        # fleet still builds its start spread from the GV map
        monkeypatch.setenv("CEQ_ENERGY_GV_C2", "0")
        out = tmp_path / "o"
        with pytest.warns(UserWarning, match="EV energy coefficients"):
            assert main(["oracle", "--out", str(out), "--quiet"]) == EXIT_OK
        summary = _read_summary(out / "summary.txt")
        assert summary["converged"] == "true"
        assert float(summary["max_delay_deviation_vs_analytic"]) <= 0.02

    def test_unconverged_oracle_diagnostics_carry_both_gaps(self, tmp_path):
        config = load_config(bundled_scenario_path(), env={})
        config = replace(config, numerics=replace(config.numerics, max_days=5))
        with pytest.raises(SolverError) as info:
            cli.cmd_oracle(config, tmp_path, quiet=True)
        diagnostics = info.value.diagnostics
        assert diagnostics["days"] == 5
        assert diagnostics["weighted_gap"] > config.numerics.gap_tol
        assert diagnostics["relative_gap"] > 0.0
        summary = _read_summary(tmp_path / "summary.txt")
        assert float(summary["weighted_gap"]) == pytest.approx(diagnostics["weighted_gap"], rel=1e-9)


class TestSampling:
    @pytest.mark.parametrize(
        "command, mpr, samples",
        [("sweep", "1", 0), ("oracle", "1", 0), ("toll", "1", 1), ("solve", "0.5", 1)],
    )
    def test_only_the_profile_writers_sample(self, tmp_path, monkeypatch, command, mpr, samples):
        # no solve samples a grid: solve and toll sample their solution once, at --dt
        monkeypatch.setenv("CEQ_DEMAND_MPR", mpr)
        grids = []
        real = equilibrium._sample

        def counting(scenario, window, segments, dt, optimum):
            grids.append(dt)
            return real(scenario, window, segments, dt, optimum)

        monkeypatch.setattr(equilibrium, "_sample", counting)
        assert main([command, "--out", str(tmp_path), "--dt", "0.5", "--quiet"]) == EXIT_OK
        assert grids == [0.5 / 60.0] * samples


class TestDeterminism:
    def test_solve_outputs_are_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["solve", "--out", str(out1), "--quiet"])
        main(["solve", "--out", str(out2), "--quiet"])
        for name in ("profile.csv", "summary.txt"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_numbers_use_ten_significant_digits(self, tmp_path):
        out = tmp_path / "run"
        main(["solve", "--out", str(out), "--quiet"])
        _, rows = _read_csv(out / "profile.csv")
        cell = rows[len(rows) // 2][1]
        mantissa = cell.replace("-", "").replace(".", "").split("e")[0].lstrip("0")
        assert len(mantissa) <= 10


class TestInProcessReuse:
    """Repeated ``main`` calls in one process write what separate runs write."""

    def test_parser_is_built_once_per_process(self, tmp_path, monkeypatch):
        built = []
        real_init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        cli.build_parser.cache_clear()
        assert main(["solve", "--out", str(tmp_path / "warm"), "--quiet"]) == EXIT_OK
        assert len(built) == 6  # the top parser, the shared options, four commands
        built.clear()
        for k in range(3):
            assert main(["solve", "--out", str(tmp_path / f"o{k}"), "--quiet"]) == EXIT_OK
        assert built == []

    def test_flags_do_not_carry_over(self, tmp_path):
        cli.build_parser.cache_clear()
        assert main(["toll", "--out", str(tmp_path / "fresh"), "--quiet"]) == EXIT_OK
        assert main(["toll", "--out", str(tmp_path / "a"), "--incentive", "--dt", "0.5", "--quiet"]) == EXIT_OK
        assert main(["toll", "--out", str(tmp_path / "b"), "--quiet"]) == EXIT_OK
        header, rows = _read_csv(tmp_path / "b" / "toll.csv")
        assert header == ["t_hours", "toll"]
        assert float(rows[1][0]) - float(rows[0][0]) == pytest.approx(1.0 / 60.0, abs=1e-8)
        assert _files(tmp_path / "b") == _files(tmp_path / "fresh")

    def test_rejected_command_line_leaves_the_next_call_alone(self, tmp_path):
        assert main(["solve", "--out", str(tmp_path / "before"), "--quiet"]) == EXIT_OK
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--out", str(tmp_path / "bad"), "--dt", "fast", "--incentive"])
        assert exc.value.code == 2
        assert main(["solve", "--out", str(tmp_path / "after"), "--quiet"]) == EXIT_OK
        assert _files(tmp_path / "after") == _files(tmp_path / "before")

    def test_environment_is_read_on_every_call(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CEQ_DEMAND_MPR", "0.5")
        assert main(["solve", "--out", str(tmp_path / "a"), "--quiet"]) == EXIT_OK
        monkeypatch.setenv("CEQ_DEMAND_MPR", "0.25")
        assert main(["solve", "--out", str(tmp_path / "b"), "--quiet"]) == EXIT_OK
        assert _read_summary(tmp_path / "a" / "summary.txt")["mpr"] == "0.5"
        assert _read_summary(tmp_path / "b" / "summary.txt")["mpr"] == "0.25"
