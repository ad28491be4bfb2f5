"""Scenario file parsing, validation messages, round trips, env overrides."""

import inspect
from collections.abc import Mapping
from dataclasses import fields, replace

import pytest

from commuteq import (
    Numerics,
    ScenarioConfig,
    ScenarioError,
    EnergyModel,
    Scenario,
    VehicleClass,
    bundled_scenario_path,
    emit_config,
    load_config,
    run_until_converged,
)
from commuteq.scenario_io import _KEYS, parse_config_text

MINIMAL = """
[corridor]
trip_km = 20.0
capacity_r = 8000.0
nu = 4.1

[demand]
n_total = 3000.0
t_star = 8.0
alpha = 8.4
beta = 4.2
gamma = 16.8
mpr = 0.5

[energy.gv]
c1 = 4.0
c2 = 16.8

[energy.ev]
c1 = 0.5
c2 = 3.0
"""


#: Every key set, several to floats that print with 17 digits.
FULL = MINIMAL.replace("nu = 4.1", "nu = 4.1\ns_max = 0.1") + """
[numerics]
dt_minutes = 0.3333333333333333
bin_minutes = 1.0
eta = 0.7
gap_tol = 1.2345678901234567e-05
max_days = 777
quad_rtol = 1e-9
root_rtol = 1e-10
mixed_rtol = 1e-08
"""


def _write(tmp_path, text, name="case.toml"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestBundledScenario:
    def test_reproduces_basic_parameters(self):
        config = load_config(bundled_scenario_path(), env={})
        sc = config.scenario
        assert sc.alpha == 8.4
        assert sc.beta == 4.2
        assert sc.gamma == 16.8
        assert sc.nu == 4.1
        assert sc.n_total == 3000.0
        assert sc.capacity_r == 8000.0
        assert sc.trip_km == 20.0
        assert sc.t_star == 8.0
        assert (sc.gv_energy.c1, sc.gv_energy.c2) == (4.0, 16.8)
        assert (sc.ev_energy.c1, sc.ev_energy.c2) == (0.5, 3.0)

    def test_gap_tol_default_is_the_shipped_one(self):
        # the oracle's stop threshold: the bundled file, Numerics and the run's default agree
        bundled = load_config(bundled_scenario_path(), env={}).numerics.gap_tol
        assert Numerics().gap_tol == bundled
        default = inspect.signature(run_until_converged).parameters["gap_tol"].default
        assert default == bundled


class TestValidation:
    def test_mpr_out_of_range_names_field(self, tmp_path):
        path = _write(tmp_path, MINIMAL.replace("mpr = 0.5", "mpr = 1.5"))
        with pytest.raises(ScenarioError, match=r"mpr.*\[0,1\]"):
            load_config(path, env={})

    def test_missing_ev_section_with_positive_mpr(self, tmp_path):
        text = MINIMAL.split("[energy.ev]")[0]
        path = _write(tmp_path, text)
        with pytest.raises(ScenarioError, match="energy.ev"):
            load_config(path, env={})

    def test_missing_ev_section_allowed_at_zero_mpr(self, tmp_path):
        text = MINIMAL.split("[energy.ev]")[0].replace("mpr = 0.5", "mpr = 0.0")
        path = _write(tmp_path, text)
        config = load_config(path, env={})
        assert config.scenario.ev_energy.c1 == config.scenario.gv_energy.c1

    def test_unknown_key_is_named(self, tmp_path):
        path = _write(tmp_path, MINIMAL + "\n[numerics]\nwibble = 3\n")
        with pytest.raises(ScenarioError, match="wibble"):
            load_config(path, env={})

    def test_unknown_section_is_named(self, tmp_path):
        path = _write(tmp_path, MINIMAL + "\n[extra]\nx = 1\n")
        with pytest.raises(ScenarioError, match=r"\[extra\]"):
            load_config(path, env={})

    def test_missing_required_key(self, tmp_path):
        path = _write(tmp_path, MINIMAL.replace("gamma = 16.8\n", ""))
        with pytest.raises(ScenarioError, match="gamma"):
            load_config(path, env={})

    def test_parse_error_reports_line_and_column(self):
        with pytest.raises(ScenarioError, match="text.toml: line 3"):
            parse_config_text("[corridor]\ntrip_km = 20\nnot a key value\n", "text.toml")

    def test_bad_number_reports_location(self):
        with pytest.raises(ScenarioError, match="text.toml: line 2"):
            parse_config_text("[corridor]\ntrip_km = twenty\n", "text.toml")

    def test_duplicate_key_rejected(self, tmp_path):
        path = _write(tmp_path, MINIMAL.replace("nu = 4.1", "nu = 4.1\nnu = 4.2"))
        with pytest.raises(ScenarioError, match="duplicate"):
            load_config(path, env={})

    def test_non_finite_number_reports_location(self):
        with pytest.raises(ScenarioError, match="text.toml: line 2.*finite"):
            parse_config_text("[corridor]\nnu = nan\n", "text.toml")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="not found"):
            load_config(tmp_path / "absent.toml", env={})

    def test_max_days_must_be_integral(self, tmp_path):
        path = _write(tmp_path, MINIMAL + "\n[numerics]\nmax_days = 10.5\n")
        with pytest.raises(ScenarioError, match="max_days"):
            load_config(path, env={})


class TestNumerics:
    def test_defaults_applied(self, tmp_path):
        config = load_config(_write(tmp_path, MINIMAL), env={})
        assert config.numerics == Numerics()
        assert config.numerics.dt == pytest.approx(1.0 / 60.0)
        assert config.numerics.bin_width == pytest.approx(1.0 / 60.0)

    def test_partial_override(self, tmp_path):
        path = _write(tmp_path, MINIMAL + "\n[numerics]\neta = 0.1\nmax_days = 500\n")
        numerics = load_config(path, env={}).numerics
        assert numerics.eta == 0.1
        assert numerics.max_days == 500
        assert numerics.gap_tol == 3e-5

    def test_invalid_eta(self):
        with pytest.raises(ScenarioError, match="eta"):
            Numerics(eta=1.5)

    @pytest.mark.parametrize("field", ["bin_minutes", "gap_tol", "eta"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ScenarioError, match=f"{field} must be finite"):
            Numerics(**{field: value})


class TestEnvOverrides:
    def test_demand_override(self, tmp_path):
        path = _write(tmp_path, MINIMAL)
        config = load_config(path, env={"CEQ_DEMAND_MPR": "0.25"})
        assert config.scenario.mpr == 0.25

    def test_energy_section_override(self, tmp_path):
        path = _write(tmp_path, MINIMAL)
        config = load_config(path, env={"CEQ_ENERGY_EV_C1": "0.75"})
        assert config.scenario.ev_energy.c1 == 0.75

    def test_numerics_override(self, tmp_path):
        path = _write(tmp_path, MINIMAL)
        config = load_config(path, env={"CEQ_NUMERICS_MAX_DAYS": "123"})
        assert config.numerics.max_days == 123

    def test_override_is_validated(self, tmp_path):
        path = _write(tmp_path, MINIMAL)
        with pytest.raises(ScenarioError, match="mpr"):
            load_config(path, env={"CEQ_DEMAND_MPR": "2.0"})

    def test_unknown_variable_rejected(self, tmp_path):
        path = _write(tmp_path, MINIMAL)
        with pytest.raises(ScenarioError, match="CEQ_DEMAND_WIBBLE"):
            load_config(path, env={"CEQ_DEMAND_WIBBLE": "1"})

    def test_non_numeric_value_rejected(self, tmp_path):
        path = _write(tmp_path, MINIMAL)
        with pytest.raises(ScenarioError, match="CEQ_DEMAND_MPR"):
            load_config(path, env={"CEQ_DEMAND_MPR": "lots"})

    @pytest.mark.parametrize(
        "env, message",
        [
            ({"CEQ_WIBBLE": "1", "CEQ_ZZZ": "1"}, "CEQ_WIBBLE: does not name any scenario section"),
            (
                {"CEQ_DEMAND_WIBBLE": "1", "CEQ_DEMAND_MPR": "lots"},
                "CEQ_DEMAND_MPR: expected a number, got 'lots'",
            ),
            ({"CEQ_NUMERICS_WIBBLE": "1"}, "CEQ_NUMERICS_WIBBLE: unknown key 'wibble' for [numerics]"),
        ],
    )
    def test_first_bad_name_in_sorted_order_is_reported(self, tmp_path, env, message):
        path = _write(tmp_path, MINIMAL)
        for items in (list(env.items()), list(env.items())[::-1]):
            with pytest.raises(ScenarioError) as exc:
                load_config(path, env=dict(items))
            assert str(exc.value) == message

    def test_only_ceq_values_are_read(self, tmp_path):
        class Spy(Mapping):
            def __init__(self, data):
                self.data = data
                self.read = []

            def __getitem__(self, name):
                self.read.append(name)
                return self.data[name]

            def __iter__(self):
                return iter(self.data)

            def __len__(self):
                return len(self.data)

        spy = Spy({"HOME": "/home/x", "PATH": "/bin", "CEQ_DEMAND_MPR": "0.25", "CEQX": "1", "XCEQ_DEMAND_MPR": "2"})
        config = load_config(_write(tmp_path, MINIMAL), env=spy)
        assert config.scenario.mpr == 0.25
        assert spy.read == ["CEQ_DEMAND_MPR"]


class TestRoundTrip:
    def test_emit_then_load_is_identity(self, tmp_path):
        original = load_config(bundled_scenario_path(), env={})
        path = _write(tmp_path, emit_config(original), name="roundtrip.toml")
        loaded = load_config(path, env={})
        assert loaded == original

    @pytest.mark.parametrize(
        "text",
        [
            FULL,
            FULL.replace("s_max = 0.1\n", ""),
            FULL.split("[numerics]")[0],
            MINIMAL.split("[energy.ev]")[0].replace("mpr = 0.5", "mpr = 0.0"),
        ],
        ids=["full", "no_s_max", "no_numerics", "no_ev_at_mpr0"],
    )
    def test_round_trip_preserves_awkward_floats(self, tmp_path, text):
        base = load_config(_write(tmp_path, text), env={})
        scenario = replace(base.scenario, n_total=0.1 + 0.2)  # 0.30000000000000004
        awkward = replace(base, scenario=scenario)
        path = _write(tmp_path, emit_config(awkward), name="awkward.toml")
        assert load_config(path, env={}) == awkward

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        noisy = "# leading comment\n\n" + MINIMAL.replace(
            "alpha = 8.4", "alpha = 8.4  # value of time"
        )
        config = load_config(_write(tmp_path, noisy), env={})
        assert config.scenario.alpha == 8.4


def test_scenario_config_is_plain_data():
    config = load_config(bundled_scenario_path(), env={})
    assert isinstance(config, ScenarioConfig)
    assert config.scenario.energy_model(VehicleClass.EV).vehicle_class is VehicleClass.EV


def test_keys_are_the_fields_they_set():
    def names(record, kind="float"):
        return sorted(fld.name for fld in fields(record) if fld.type == kind)

    assert sorted(_KEYS["corridor"] + _KEYS["demand"]) == names(Scenario)
    assert list(_KEYS["energy.gv"]) == list(_KEYS["energy.ev"]) == names(EnergyModel)
    assert sorted(_KEYS["numerics"]) == sorted(
        [fld.name for fld in fields(Numerics)] + ["quad_rtol"]
    )
    assert sorted(_KEYS) == ["corridor", "demand", "energy.ev", "energy.gv", "numerics"]
