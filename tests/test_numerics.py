"""Root-finding, quadrature, and projection helpers against known answers."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from commuteq import SolverError
from commuteq.numerics import project_to_simplex, solve_bracketed, trapezoid_refine


class TestTrapezoidRefine:
    def test_polynomial(self):
        assert_allclose(trapezoid_refine(lambda x: x**3, 0.0, 1.0, rtol=1e-12), 0.25, rtol=1e-10)

    def test_sine(self):
        assert_allclose(
            trapezoid_refine(np.sin, 0.0, math.pi, rtol=1e-12), 2.0, rtol=1e-10
        )

    def test_exponential(self):
        assert_allclose(
            trapezoid_refine(np.exp, 0.0, 1.0, rtol=1e-12), math.e - 1.0, rtol=1e-10
        )

    def test_zero_length_interval(self):
        assert trapezoid_refine(np.exp, 2.0, 2.0) == 0.0

    def test_stretched_singularity(self):
        # int_0^1 x**0.25 dx = 0.8 after the cubic stretch x = u**3
        def integrand(u):
            return (u**3) ** 0.25 * 3.0 * u * u

        assert_allclose(trapezoid_refine(integrand, 0.0, 1.0, rtol=1e-10), 0.8, rtol=1e-8)


class TestSolveBracketed:
    def test_cubic_root(self):
        root = solve_bracketed(lambda x: (x**3 - 2.0, 3.0 * x * x), 0.0, 2.0, rtol=1e-14)
        assert_allclose(root, 2.0 ** (1.0 / 3.0), rtol=1e-12)

    def test_linear(self):
        root = solve_bracketed(lambda x: (3.0 * x - 1.5, 3.0), -1.0, 1.0, 1e-12)
        assert_allclose(root, 0.5, rtol=1e-10)

    def test_steep_monotone(self):
        def fn(x):
            return math.expm1(20.0 * (x - 0.3)), 20.0 * math.exp(20.0 * (x - 0.3))

        assert_allclose(solve_bracketed(fn, 0.0, 1.0, rtol=1e-13), 0.3, rtol=1e-10)

    def test_endpoint_root(self):
        assert solve_bracketed(lambda x: (x, 1.0), 0.0, 1.0, 1e-12) == 0.0

    def test_not_bracketed(self):
        with pytest.raises(SolverError, match="not bracketed") as err:
            solve_bracketed(lambda x: (x + 10.0, 1.0), 0.0, 1.0, 1e-12)
        assert err.value.diagnostics == {"lo": 0.0, "hi": 1.0, "flo": 10.0, "fhi": 11.0}

    def test_decreasing_function(self):
        root = solve_bracketed(lambda x: (1.0 - x * x, -2.0 * x), 0.5, 3.0, rtol=1e-13)
        assert_allclose(root, 1.0, rtol=1e-10)

    def test_zero_slope_bisects(self):
        # no usable slope anywhere: every step is a bisection of the bracket
        calls = []

        def fn(x):
            calls.append(x)
            return x - 0.3, 0.0

        assert_allclose(solve_bracketed(fn, 0.0, 1.0, rtol=1e-12), 0.3, rtol=1e-11)
        assert 35 <= len(calls) <= 45

    def test_step_leaving_the_bracket_bisects(self):
        # Newton from hi = 2 on atan overshoots far below lo = -1
        root = solve_bracketed(lambda x: (math.atan(x), 1.0 / (1.0 + x * x)), -1.0, 2.0, 1e-12)
        assert abs(root) <= 1e-12

    def test_max_iter_exhaustion(self):
        with pytest.raises(SolverError, match="did not reach tolerance") as err:
            solve_bracketed(lambda x: (x - 0.3, 0.0), 0.0, 1.0, rtol=1e-12, max_iter=5)
        diagnostics = err.value.diagnostics
        assert diagnostics["lo"] < 0.3 < diagnostics["hi"]
        assert diagnostics["width"] == pytest.approx(2.0**-5)
        assert diagnostics["rtol"] == 1e-12


class TestProjectToSimplex:
    def test_already_feasible(self):
        v = np.array([0.25, 0.25, 0.5])
        assert_allclose(project_to_simplex(v, 1.0), v, atol=1e-15)

    def test_sum_and_nonnegativity(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            v = rng.normal(size=40) * 10.0
            total = float(rng.uniform(0.5, 50.0))
            x = project_to_simplex(v, total)
            assert np.all(x >= 0.0)
            assert_allclose(x.sum(), total, rtol=1e-12)

    def test_is_closest_feasible_point(self):
        # compare against random feasible competitors
        rng = np.random.default_rng(11)
        v = rng.normal(size=20) * 5.0
        total = 10.0
        x = project_to_simplex(v, total)
        base = float(np.sum((x - v) ** 2))
        for _ in range(200):
            other = rng.dirichlet(np.ones(20)) * total
            assert base <= np.sum((other - v) ** 2) + 1e-9

    def test_zero_total(self):
        assert_allclose(project_to_simplex(np.array([1.0, 2.0]), 0.0), [0.0, 0.0])
