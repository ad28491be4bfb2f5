"""Deterministic scalar root-finding and quadrature helpers.

Everything here is plain float arithmetic with fixed iteration orders, so
identical inputs produce bit-identical outputs on a given platform.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import SolverError


def solve_bracketed(
    fn: Callable[[float], tuple[float, float]],
    lo: float,
    hi: float,
    rtol: float = 1e-12,
    max_iter: int = 200,
) -> float:
    """Find ``x`` in ``[lo, hi]`` with ``f(x) = 0`` by Newton's method kept in the bracket.

    ``fn`` returns ``(f(x), f'(x))``.  ``f(lo)`` and ``f(hi)`` must have
    opposite signs (zero endpoints count as roots).  Newton starts from
    ``hi``; a step that would leave the current bracket, or a zero slope,
    bisects instead.  The solve stops once a step is at most ``rtol * |x|``
    and returns ``x`` minus that step, with no absolute floor, so small roots
    are resolved as finely as large ones.  On an increasing convex ``f`` the
    iterates descend monotonically onto the root.  A root at exactly 0 is
    found only if an evaluation hits it; the callers' roots are positive.
    """
    fa, _ = fn(lo)
    if fa == 0.0:
        return lo
    fx, slope = fn(hi)
    if fx == 0.0:
        return hi
    if (fa > 0.0) == (fx > 0.0):
        raise SolverError(
            f"root not bracketed: f({lo:.6g})={fa:.6g}, f({hi:.6g})={fx:.6g}",
            diagnostics={"lo": lo, "hi": hi, "flo": fa, "fhi": fx},
        )
    a, b, x = lo, hi, hi
    for _ in range(max_iter):
        step = x - 0.5 * (a + b)
        if slope != 0.0 and a <= x - fx / slope <= b:
            step = fx / slope
        if abs(step) <= rtol * abs(x):
            return x - step
        x -= step
        fx, slope = fn(x)
        if fx == 0.0:
            return x
        if (fx > 0.0) == (fa > 0.0):
            a = x
        else:
            b = x
    raise SolverError(
        "bracketed solve did not reach tolerance",
        diagnostics={"lo": a, "hi": b, "width": b - a, "rtol": rtol},
    )


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
