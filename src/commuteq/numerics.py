"""Deterministic scalar root-finding and quadrature helpers.

Everything here is plain float arithmetic with fixed iteration orders, so
identical inputs produce bit-identical outputs on a given platform.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import SolverError


def expand_bracket(
    fn: Callable[[float], float],
    x0: float,
    growth: float = 2.0,
    max_steps: int = 200,
) -> tuple[float, float]:
    """Grow ``[0, hi]`` geometrically from ``x0`` until ``fn`` changes sign.

    ``fn(0) <= 0`` is assumed (conservation-style residuals vanish at zero
    cost); the upper edge is doubled until ``fn(hi) >= 0``.  Raises
    :class:`SolverError` carrying every attempted edge if no sign change is
    found, which signals pathological scenario parameters.
    """
    hi = max(x0, 1e-12)
    attempts = []
    for _ in range(max_steps):
        val = fn(hi)
        attempts.append((hi, val))
        if val >= 0.0:
            return 0.0, hi
        hi *= growth
    raise SolverError(
        "could not bracket root: residual stayed negative up to "
        f"{hi / growth:.6g}",
        diagnostics={"attempts": attempts},
    )


def solve_bracketed(
    fn: Callable[[float], float],
    lo: float,
    hi: float,
    rtol: float = 1e-12,
    max_iter: int = 200,
) -> float:
    """Find ``x`` in ``[lo, hi]`` with ``fn(x) = 0`` by safeguarded secant.

    Bisection guarantees convergence; a secant candidate accelerates it
    whenever it lands strictly inside the current bracket.  ``fn(lo)`` and
    ``fn(hi)`` must have opposite signs (zero endpoints count as roots).
    Terminates when the bracket width drops below ``rtol`` relative to the
    larger endpoint magnitude, with no absolute floor, so small roots are
    resolved as finely as large ones.  A root at exactly 0 is found only if
    an evaluation hits it; the callers' conservation roots are positive.
    """
    fa = fn(lo)
    if fa == 0.0:
        return lo
    fb = fn(hi)
    if fb == 0.0:
        return hi
    if (fa > 0.0) == (fb > 0.0):
        raise SolverError(
            f"root not bracketed: f({lo:.6g})={fa:.6g}, f({hi:.6g})={fb:.6g}",
            diagnostics={"lo": lo, "hi": hi, "flo": fa, "fhi": fb},
        )
    a, b = lo, hi
    last_side = 0  # +1: upper end moved, -1: lower end moved
    stale = 0  # consecutive moves of the same end (secant stagnation)
    for _ in range(max_iter):
        width = b - a
        if width <= rtol * max(abs(a), abs(b)):
            break
        # Secant through the bracket endpoints, bisection as fallback.
        x = b - fb * (b - a) / (fb - fa) if fb != fa else 0.5 * (a + b)
        margin = 0.01 * width
        if not (a + margin <= x <= b - margin) or stale >= 2:
            x = 0.5 * (a + b)
            stale = 0
        fx = fn(x)
        if fx == 0.0:
            return x
        side = 1 if (fx > 0.0) == (fb > 0.0) else -1
        if side == 1:
            b, fb = x, fx
        else:
            a, fa = x, fx
        stale = stale + 1 if side == last_side else 1
        last_side = side
    else:
        raise SolverError(
            "bracketed solve did not reach tolerance",
            diagnostics={"lo": a, "hi": b, "width": b - a, "rtol": rtol},
        )
    # Prefer the endpoint with the smaller residual.
    return a if abs(fa) <= abs(fb) else b


def trapezoid_refine(
    fn: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    rtol: float = 1e-8,
    n0: int = 64,
    max_halvings: int = 16,
) -> float:
    """Composite trapezoid of a vectorized ``fn`` over ``[a, b]``.

    The panel count doubles (reusing previous evaluations), at most
    ``max_halvings`` times, until two successive estimates agree to ``rtol``
    relative.  No solver calls it; the tests check closed forms against it.
    """
    if b == a:
        return 0.0
    xs = np.linspace(a, b, n0 + 1)
    ys = fn(xs)
    h = (b - a) / n0
    est = h * (np.sum(ys) - 0.5 * (ys[0] + ys[-1]))
    n = n0
    for _ in range(max_halvings):
        mids = np.linspace(a + 0.5 * h, b - 0.5 * h, n)
        mid_sum = float(np.sum(fn(mids)))
        new = 0.5 * est + 0.5 * h * mid_sum
        n *= 2
        h *= 0.5
        done = abs(new - est) <= rtol * max(abs(new), 1e-300)
        est = new
        if done:
            return est
    raise SolverError(
        "trapezoid refinement did not converge",
        diagnostics={"a": a, "b": b, "panels": n, "estimate": est},
    )


def project_to_simplex(v: np.ndarray, total: float) -> np.ndarray:
    """Euclidean projection of ``v`` onto ``{x >= 0, sum(x) = total}``."""
    if total <= 0.0:
        return np.zeros_like(v)
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - total
    ks = np.arange(1, len(v) + 1)
    cond = u - css / ks > 0.0
    k = int(np.nonzero(cond)[0][-1]) + 1
    theta = css[k - 1] / k
    return np.maximum(v - theta, 0.0)
