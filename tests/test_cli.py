"""CLI tests: outputs, column contract, exit codes, determinism."""

import csv

import pytest

from commuteq import cli
from commuteq.cli import EXIT_INPUT, EXIT_IO, EXIT_OK, EXIT_SOLVER, PROFILE_COLUMNS, main

GOLDEN_MAX_DELAY_EV = 0.3983845685044753  # bundled scenario has mpr = 1
GOLDEN_MAX_DELAY_GV = 0.2614128645575636


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


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

    def test_mixed_fleet_is_an_input_error(self, tmp_path, monkeypatch, capsys):
        # the mixed-fleet system optimum is not built; no all-EV answer instead
        monkeypatch.setenv("CEQ_DEMAND_MPR", "0.5")
        out = tmp_path / "run"
        assert main(["toll", "--out", str(out), "--quiet"]) == EXIT_INPUT
        assert "mpr=0.5" in capsys.readouterr().err
        assert not (out / "toll.csv").exists()


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
        ],
    )
    def test_non_finite_numerics_rejected(self, tmp_path, monkeypatch, var, value):
        # a short day cap keeps a wrongly accepted value from running long
        monkeypatch.setenv("CEQ_NUMERICS_MAX_DAYS", "50")
        monkeypatch.setenv(var, value)
        code = main(["oracle", "--out", str(tmp_path / "o"), "--quiet"])
        assert code == EXIT_INPUT

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_nonpositive_mixed_rtol_rejected(self, tmp_path, monkeypatch, value):
        monkeypatch.setenv("CEQ_DEMAND_MPR", "0.5")
        monkeypatch.setenv("CEQ_NUMERICS_MIXED_RTOL", value)
        code = main(["solve", "--out", str(tmp_path / "o"), "--quiet"])
        assert code == EXIT_INPUT

    @pytest.mark.parametrize(
        "command, mpr",
        [("solve", "0"), ("solve", "0.5"), ("solve", "1"), ("toll", "0"), ("toll", "1")],
    )
    def test_loose_root_tolerance_misses_conservation(self, tmp_path, monkeypatch, capsys, command, mpr):
        # single-class, mixed and system-optimum roots face the same mixed_rtol check
        monkeypatch.setenv("CEQ_DEMAND_MPR", mpr)
        monkeypatch.setenv("CEQ_NUMERICS_ROOT_RTOL", "1e-2")
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
