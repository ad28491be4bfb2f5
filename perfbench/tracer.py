"""Spans around commuteq's layer functions, installed from outside the package.

Every public function that a layer module binds is replaced, in that module's
namespace, by a wrapper that records a span: name, layer, parent span, op id,
start and end time, and the minor page-fault count at both ends.  The span
name is the binding the caller uses, e.g. ``commuteq.toll.trapezoid_refine``
for the quadrature that ``toll`` calls and ``commuteq.cli.solve_mixed`` for
the solve that ``cli`` calls.  ``model`` holds the pure formulas every layer
calls, so it only gets a work count: the array elements that ``equilibrium``
and ``toll`` pass to ``flow_from_delay``.

Spans stay in memory; the run writes them out when it ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import resource
from time import perf_counter

LAYERS = ("cli", "scenario_io", "equilibrium", "numerics", "toll", "metrics", "dynamics")

#: Numerics functions whose ``fn`` evaluations count as root-solve work.
ROOT_FNS = ("solve_bracketed", "expand_bracket")

# Span record fields.
NAME, LAYER, PARENT, OP, T0, T1, FLT0, FLT1, WORK, FLOW = range(10)


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _size(x) -> int:
    return int(getattr(x, "size", 1))


class Tracer:
    """Holds the spans of one run and the wrappers that produce them."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.wrapped: set[str] = set()  # short names of wrapped functions
        self.enabled = True
        self.op = -1
        self._stack: list[int] = []

    def open(self, name: str, layer: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [name, layer, parent, self.op, 0.0, 0.0, _minflt(), 0, 0, 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[T0] = perf_counter()
        return rec

    def close(self, rec: list) -> None:
        rec[T1] = perf_counter()
        rec[FLT1] = _minflt()
        self._stack.pop()

    def _span(self, name: str, layer: str, fn, counts_fn_arg: bool):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            rec = tracer.open(name, layer)
            try:
                if counts_fn_arg:
                    inner = args[0]

                    def counted(x):
                        rec[WORK] += _size(x)
                        return inner(x)

                    args = (counted,) + args[1:]
                return fn(*args, **kwargs)
            finally:
                tracer.close(rec)

        return wrapper

    def _counter(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.enabled and tracer._stack:
                tracer.spans[tracer._stack[-1]][FLOW] += _size(args[0])
            return fn(*args, **kwargs)

        return wrapper

    def install(self, package: str = "commuteq") -> None:
        """Wrap every public layer function in every layer namespace binding it."""
        for layer in LAYERS:
            module = importlib.import_module(f"{package}.{layer}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = obj.__module__.rpartition(".")[2]
                if home == "model":
                    if attr == "flow_from_delay" and layer in ("equilibrium", "toll"):
                        setattr(module, attr, self._counter(obj))
                        self.wrapped.add(attr)
                    continue
                if home not in LAYERS or (layer == "cli" and home == "cli"):
                    continue  # cli's own code is the op span's self time
                params = list(inspect.signature(obj).parameters)
                counts_fn_arg = home == "numerics" and params[:1] == ["fn"]
                setattr(
                    module, attr, self._span(f"{module.__name__}.{attr}", home, obj, counts_fn_arg)
                )
                self.wrapped.add(attr)


def short(name: str) -> str:
    return name.rpartition(".")[2]


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [rec[T1] - rec[T0] for rec in spans]
    for rec in spans:
        if rec[PARENT] >= 0:
            own[rec[PARENT]] -= rec[T1] - rec[T0]
    return own


def subtree_totals(spans: list[list], roots: set[int]) -> dict[int, dict[str, float]]:
    """Quadrature, root-solve and day counts inside each span listed in ``roots``."""
    totals = {
        i: {"quad_calls": 0, "quad_points": 0, "root_evals": 0, "flow_evals": 0, "days": 0}
        for i in roots
    }
    ops = {spans[i][OP] for i in roots}
    for i, rec in enumerate(spans):
        if rec[OP] not in ops:
            continue
        fn = short(rec[NAME])
        j = i
        while j >= 0:
            if j in totals:
                t = totals[j]
                t["flow_evals"] += rec[FLOW]
                if fn == "trapezoid_refine":
                    t["quad_calls"] += 1
                    t["quad_points"] += rec[WORK]
                elif fn in ROOT_FNS:
                    t["root_evals"] += rec[WORK]
                elif fn == "day_step":
                    t["days"] += 1
            j = spans[j][PARENT]
    return totals
