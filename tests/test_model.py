"""Core formula tests: values checked by hand arithmetic or closed forms."""

from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from commuteq import (
    EnergyModel,
    Scenario,
    ScenarioError,
    VehicleClass,
    average_speed,
    congestion_cost,
    congestion_cost_slope,
    cost_components,
    delay_from_flow,
    energy_cost,
    flow_from_delay,
    invert_congestion_cost,
    schedule_delay,
)
from conftest import basic_scenario


@pytest.fixture
def sc():
    return basic_scenario()


class TestScheduleDelay:
    def test_on_time_arrival_is_free(self, sc):
        assert schedule_delay(8.0, sc) == 0.0

    def test_early_arrival(self, sc):
        # one hour early at beta = 4.2 $/h
        assert_allclose(schedule_delay(7.0, sc), 4.2, rtol=1e-15)

    def test_late_arrival(self, sc):
        # half an hour late at gamma = 16.8 $/h
        assert_allclose(schedule_delay(8.5, sc), 8.4, rtol=1e-15)

    def test_piecewise_linear_slopes(self, sc):
        eps = 1e-6
        left = (schedule_delay(8.0 - eps, sc) - schedule_delay(8.0 - 2 * eps, sc)) / eps
        right = (schedule_delay(8.0 + 2 * eps, sc) - schedule_delay(8.0 + eps, sc)) / eps
        assert_allclose(left, -sc.beta, rtol=1e-6)
        assert_allclose(right, sc.gamma, rtol=1e-6)

    def test_minimized_exactly_at_t_star(self, sc):
        ts = np.linspace(6.0, 10.0, 4001)
        values = schedule_delay(ts, sc)
        assert np.all(values >= 0.0)
        assert values[np.argmin(np.abs(ts - 8.0))] == 0.0


class TestEnergyCost:
    def test_zero_delay_zero_cost(self, sc):
        assert energy_cost(sc.gv_energy, 0.0) == 0.0

    def test_gv_at_one_hour(self, sc):
        # 4*1 + 16.8*1 = 20.8
        assert_allclose(energy_cost(sc.gv_energy, 1.0), 20.8, rtol=1e-15)

    def test_ev_at_one_hour(self, sc):
        # 0.5*1 + 3*1 = 3.5
        assert_allclose(energy_cost(sc.ev_energy, 1.0), 3.5, rtol=1e-15)

    def test_negative_delay_rejected(self, sc):
        with pytest.raises(ValueError):
            energy_cost(sc.gv_energy, -0.1)

    def test_ev_never_above_gv_and_gap_grows(self, sc):
        ts = np.linspace(0.0, 5.0, 501)
        gap = energy_cost(sc.gv_energy, ts) - energy_cost(sc.ev_energy, ts)
        assert np.all(gap >= 0.0)
        assert np.all(np.diff(gap) > 0.0)


class TestCongestionCost:
    def test_zero(self, sc):
        assert congestion_cost(sc.gv_energy, sc, 0.0) == 0.0

    def test_gv_at_one_hour(self, sc):
        # 8.4 + 4 + 16.8
        assert_allclose(congestion_cost(sc.gv_energy, sc, 1.0), 29.2, rtol=1e-15)

    def test_ev_at_half_hour(self, sc):
        # 8.4*0.5 + 0.5*0.5 + 3*0.25
        assert_allclose(congestion_cost(sc.ev_energy, sc, 0.5), 5.2, rtol=1e-15)

    def test_strictly_increasing(self, sc):
        ts = np.linspace(0.0, 10.0, 1001)
        assert np.all(np.diff(congestion_cost(sc.gv_energy, sc, ts)) > 0.0)

    def test_convexity_second_derivative(self, sc):
        # central second difference must match 2*c2
        h = 1e-4
        ts = np.linspace(0.1, 8.0, 80)
        second = (
            congestion_cost(sc.gv_energy, sc, ts + h)
            - 2.0 * congestion_cost(sc.gv_energy, sc, ts)
            + congestion_cost(sc.gv_energy, sc, ts - h)
        ) / (h * h)
        assert_allclose(second, 2.0 * sc.gv_energy.c2, rtol=1e-6)

    def test_negative_delay_rejected(self, sc):
        with pytest.raises(ValueError):
            congestion_cost(sc.ev_energy, sc, np.array([0.1, -0.2]))


class TestInvertCongestionCost:
    def test_zero(self, sc):
        assert invert_congestion_cost(sc.gv_energy, sc, 0.0) == 0.0

    def test_forward_value(self, sc):
        assert_allclose(invert_congestion_cost(sc.gv_energy, sc, 29.2), 1.0, rtol=1e-12)

    @pytest.mark.parametrize("delay", [0.01, 0.1, 0.5, 2.0])
    def test_round_trip(self, sc, delay):
        for model in (sc.gv_energy, sc.ev_energy):
            cost = congestion_cost(model, sc, delay)
            assert_allclose(invert_congestion_cost(model, sc, cost), delay, rtol=1e-12)

    def test_round_trip_grid(self, sc):
        ts = np.linspace(0.0, 10.0, 2001)
        for model in (sc.gv_energy, sc.ev_energy):
            back = invert_congestion_cost(model, sc, congestion_cost(model, sc, ts))
            assert_allclose(back, ts, rtol=1e-12, atol=1e-15)

    def test_linear_model(self, sc):
        linear = EnergyModel(VehicleClass.GV, 2.0, 0.0)
        # Phi(T) = (8.4 + 2) T, so the inverse of 5.2 is 0.5
        assert_allclose(invert_congestion_cost(linear, sc, 5.2), 0.5, rtol=1e-14)

    def test_negative_cost_rejected(self, sc):
        with pytest.raises(ValueError):
            invert_congestion_cost(sc.gv_energy, sc, -1.0)

    def test_slope(self, sc):
        h = 1e-7
        for model in (sc.gv_energy, sc.ev_energy):
            fd = (congestion_cost(model, sc, 0.5 + h) - congestion_cost(model, sc, 0.5)) / h
            assert_allclose(congestion_cost_slope(model, sc, 0.5), fd, rtol=1e-6)


class TestFlowDelayRelation:
    def test_free_flow(self, sc):
        assert delay_from_flow(0.0, sc) == 0.0
        assert flow_from_delay(0.0, sc) == 0.0

    def test_at_capacity_parameter(self, sc):
        # (f/R)**nu = 1, so the delay equals the trip distance numeric
        assert_allclose(delay_from_flow(8000.0, sc), 20.0, rtol=1e-15)
        assert_allclose(flow_from_delay(20.0, sc), 8000.0, rtol=1e-15)

    def test_reference_flow(self, sc):
        # 20 * (3000/8000)**4.1
        assert_allclose(delay_from_flow(3000.0, sc), 20.0 * 0.375**4.1, rtol=1e-14)

    @pytest.mark.parametrize("flow", [100.0, 1000.0, 5000.0])
    def test_round_trip(self, sc, flow):
        assert_allclose(flow_from_delay(delay_from_flow(flow, sc), sc), flow, rtol=1e-12)

    def test_round_trip_grid(self, sc):
        flows = np.linspace(1.0, 16000.0, 2001)
        back = flow_from_delay(delay_from_flow(flows, sc), sc)
        assert_allclose(back, flows, rtol=1e-12)

    def test_strictly_increasing(self, sc):
        flows = np.linspace(0.0, 12000.0, 601)
        assert np.all(np.diff(delay_from_flow(flows, sc)) > 0.0)

    def test_negative_inputs_rejected(self, sc):
        with pytest.raises(ValueError):
            delay_from_flow(-1.0, sc)
        with pytest.raises(ValueError):
            flow_from_delay(-1.0, sc)


class TestAverageSpeed:
    def test_free_flow_speed(self, sc):
        assert_allclose(average_speed(0.0, sc), 60.0, rtol=1e-15)

    def test_doubled_travel_time_halves_speed(self, sc):
        assert_allclose(average_speed(sc.free_flow_hours, sc), 30.0, rtol=1e-15)

    def test_third_of_an_hour_delay(self, sc):
        # 20 / (1/3 + 1/3) = 30
        assert_allclose(average_speed(1.0 / 3.0, sc), 30.0, rtol=1e-12)


class TestScenarioValidation:
    def test_mpr_out_of_range(self):
        with pytest.raises(ScenarioError, match="mpr"):
            basic_scenario(mpr=1.5)

    def test_negative_parameter(self, sc):
        with pytest.raises(ScenarioError, match="alpha"):
            Scenario(
                alpha=-1.0,
                beta=sc.beta,
                gamma=sc.gamma,
                t_star=sc.t_star,
                nu=sc.nu,
                n_total=sc.n_total,
                capacity_r=sc.capacity_r,
                trip_km=sc.trip_km,
                gv_energy=sc.gv_energy,
                ev_energy=sc.ev_energy,
            )

    def test_beta_above_alpha_warns(self, sc):
        with pytest.warns(UserWarning, match="beta"):
            Scenario(
                alpha=4.0,
                beta=5.0,
                gamma=sc.gamma,
                t_star=sc.t_star,
                nu=sc.nu,
                n_total=sc.n_total,
                capacity_r=sc.capacity_r,
                trip_km=sc.trip_km,
                gv_energy=sc.gv_energy,
                ev_energy=sc.ev_energy,
            )

    def test_ev_dominating_gv_warns(self, sc):
        with pytest.warns(UserWarning, match="EV"):
            Scenario(
                alpha=sc.alpha,
                beta=sc.beta,
                gamma=sc.gamma,
                t_star=sc.t_star,
                nu=sc.nu,
                n_total=sc.n_total,
                capacity_r=sc.capacity_r,
                trip_km=sc.trip_km,
                gv_energy=EnergyModel(VehicleClass.GV, 1.0, 1.0),
                ev_energy=EnergyModel(VehicleClass.EV, 2.0, 2.0),
                mpr=0.5,
            )

    @pytest.mark.parametrize("field", ["alpha", "t_star", "n_total", "capacity_r", "mpr"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_parameter(self, sc, field, value):
        with pytest.raises(ScenarioError, match=f"{field} must be finite"):
            replace(sc, **{field: value})

    def test_non_finite_energy_coefficient(self):
        with pytest.raises(ScenarioError, match="c2 must be finite"):
            EnergyModel(VehicleClass.EV, 0.5, float("nan"))

    def test_negative_energy_coefficient(self):
        with pytest.raises(ScenarioError):
            EnergyModel(VehicleClass.GV, -1.0, 2.0)

    def test_population_split(self):
        sc = basic_scenario(mpr=0.3)
        assert_allclose(sc.population(VehicleClass.GV), 2100.0)
        assert_allclose(sc.population(VehicleClass.EV), 900.0)


class TestCostComponents:
    def test_total_is_exact_sum(self, sc):
        parts = cost_components(sc.gv_energy, sc, t=7.5, delay=0.25, toll=1.25)
        assert parts.total == parts.travel_time + parts.energy + parts.schedule_delay + parts.toll

    def test_component_values(self, sc):
        parts = cost_components(sc.ev_energy, sc, t=8.0, delay=1.0)
        assert_allclose(parts.travel_time, 8.4, rtol=1e-15)
        assert_allclose(parts.energy, 3.5, rtol=1e-15)
        assert parts.schedule_delay == 0.0
        assert parts.toll == 0.0
