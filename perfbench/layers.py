"""Per-layer metrics of a traced run, each with the end-to-end metric it should move.

Layers are commuteq's modules.  Times are per op (the mean over the run's
ops) unless the name says otherwise; counts are per op too.  A metric whose
wrapped function no longer exists reads "absent", not 0.
"""

from __future__ import annotations

import inspect
import statistics
from collections import defaultdict
from time import perf_counter

from tracer import (
    FLOW, FLT0, FLT1, NAME, OP, PARENT, ROOT_FNS, T0, T1, WORK, Tracer, self_times, short,
    subtree_totals,
)

OP_SPAN = "commuteq.cli.main"
SOLVERS = ("solve_mixed", "solve_single_class", "solve_system_optimum")

# name, unit, better, wrapped function it needs, what it should move.
PER_LAYER = (
    ("cli.self_ms", "ms", "lower", None,
     "op_p50_ms on toll_fine (CSV formatting and writing); small on solve"),
    ("cli.bytes_out", "bytes", "lower", None,
     "op_p50_ms on toll_fine; fixed by criterion 9 unless the outputs change"),
    ("scenario_io.load_config_ms", "ms", "lower", "load_config",
     "small on every workload"),
    ("equilibrium.solve_mixed_self_ms", "ms", "lower", "solve_mixed",
     "op_p50_ms and ops_per_s on solve"),
    ("equilibrium.solve_single_class_self_ms", "ms", "lower", "solve_single_class",
     "op_p50_ms and ops_per_s on solve"),
    ("equilibrium.window_mass_per_solve", "count", "lower", "window_mass",
     "op_p50_ms and ops_per_s on solve"),
    ("equilibrium.sample_profiles_ms", "ms", "lower", "sample_profiles",
     "op_p50_ms on solve; the benchmark re-samples each UE solution itself"),
    ("numerics.quad_calls", "count", "lower", "trapezoid_refine",
     "op_p50_ms and ops_per_s on solve most, toll_fine partly, oracle hardly"),
    ("numerics.quad_points", "count", "lower", "trapezoid_refine",
     "op_p50_ms and ops_per_s on solve most, toll_fine partly, oracle hardly"),
    ("numerics.points_per_quad", "count", "lower", "trapezoid_refine",
     "op_p50_ms and ops_per_s on solve most, toll_fine partly, oracle hardly"),
    ("numerics.quad_ms", "ms", "lower", "trapezoid_refine",
     "op_p50_ms and ops_per_s on solve most, toll_fine partly, oracle hardly"),
    ("numerics.root_calls", "count", "lower", "solve_bracketed",
     "op_p50_ms and ops_per_s on solve"),
    ("numerics.root_evals", "count", "lower", "solve_bracketed",
     "op_p50_ms and ops_per_s on solve"),
    ("numerics.root_ms", "ms", "lower", "solve_bracketed",
     "op_p50_ms and ops_per_s on solve (self time, quadratures excluded)"),
    ("model.flow_evals", "count", "lower", "flow_from_delay",
     "op_p50_ms and ops_per_s on solve; same work as quad_points plus sampling"),
    ("toll.solve_system_optimum_self_ms", "ms", "lower", "solve_system_optimum",
     "op_p50_ms on toll_fine"),
    ("toll.compute_toll_ms", "ms", "lower", "compute_toll", "op_p50_ms on toll_fine"),
    ("toll.verify_ms", "ms", "lower", "verify_tolled_equilibrium", "op_p50_ms on toll_fine"),
    ("metrics.summarize_ms", "ms", "lower", "summarize", "op_p50_ms on solve"),
    ("dynamics.days", "count", "lower", "day_step",
     "op_p50_ms and ops_per_s on oracle; no change on solve and toll_fine"),
    ("dynamics.final_bins", "count", "lower", "day_step",
     "op_p50_ms and peak_rss_mb on oracle; no change elsewhere"),
    ("dynamics.grid_extensions", "count", "lower", "extend_grid",
     "op_p50_ms on oracle; no change elsewhere"),
    ("dynamics.day_step_ms", "ms", "lower", "day_step",
     "op_p50_ms and ops_per_s on oracle (mean per day); no change elsewhere"),
    ("dynamics.gap_measure_ms", "ms", "lower", "gap_measure",
     "op_p50_ms and ops_per_s on oracle (mean per call); no change elsewhere"),
    ("dynamics.minflt_per_day", "count", "lower", "day_step",
     "op_p50_ms and peak_rss_mb on oracle; no change elsewhere"),
    ("proc.minflt_per_op", "count", "lower", None, "op_p50_ms on every workload"),
    ("trace.op_p50_ms", "ms", "lower", None,
     "traced op_p50_ms; minus the untraced op_p50_ms it is the tracing overhead"),
    ("pinned.quad_points", "count", "lower", "trapezoid_refine",
     "seed-independent: the pinned leading ops only"),
    ("pinned.flow_evals", "count", "lower", "flow_from_delay",
     "seed-independent: the pinned leading ops only"),
    ("pinned.root_evals", "count", "lower", "solve_bracketed",
     "seed-independent: the pinned leading ops only"),
    ("pinned.days", "count", "lower", "day_step",
     "seed-independent: the pinned leading ops only"),
)


def make_tracer() -> Tracer:
    tracer = Tracer()
    tracer.install("commuteq")
    return tracer


class Resampler:
    """Re-samples, outside the op, every UE solution that ``cli`` obtained."""

    def __init__(self, tracer: Tracer) -> None:
        from commuteq import cli, equilibrium

        self.tracer = tracer
        self.sample = getattr(equilibrium, "sample_profiles", None)
        if self.sample is not None:
            self.sample = inspect.unwrap(self.sample)
        self.times_ms: list[float] = []
        self._solutions: list = []
        traced = cli.solve_mixed

        def capture(*args, **kwargs):
            solution = traced(*args, **kwargs)
            self._solutions.append(solution)
            return solution

        cli.solve_mixed = capture

    def resample(self) -> None:
        self.tracer.enabled = False
        try:
            for solution in self._solutions:
                if self.sample is not None:
                    t0 = perf_counter()
                    self.sample(solution, solution.profile.dt)
                    self.times_ms.append(1e3 * (perf_counter() - t0))
        finally:
            self.tracer.enabled = True
            self._solutions.clear()


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer_metrics(tracer: Tracer, records: list[dict], resampler: Resampler) -> dict:
    spans = tracer.spans
    own = self_times(spans)
    n_ops = len(records)
    calls = defaultdict(int)
    total = defaultdict(float)
    self_ms = defaultdict(float)
    work = defaultdict(int)
    faults = defaultdict(int)
    flow = 0
    solves = 0
    for rec, own_s in zip(spans, own):
        fn = short(rec[NAME])
        calls[fn] += 1
        total[fn] += 1e3 * (rec[T1] - rec[T0])
        self_ms[fn] += 1e3 * own_s
        work[fn] += rec[WORK]
        faults[fn] += rec[FLT1] - rec[FLT0]
        flow += rec[FLOW]
        if fn in SOLVERS and rec[PARENT] >= 0 and spans[rec[PARENT]][NAME] == OP_SPAN:
            solves += 1
    pinned_ops = {
        i for i, rec in enumerate(spans) if rec[NAME] == OP_SPAN and records[rec[OP]]["pinned"]
    }
    pinned = defaultdict(int)
    for counts in subtree_totals(spans, pinned_ops).values():
        for key, value in counts.items():
            pinned[key] += value
    oracle_bins = [r["final_bins"] for r in records if "final_bins" in r]
    values = {
        "cli.self_ms": self_ms["main"] / n_ops,
        "cli.bytes_out": sum(r.get("bytes", 0) for r in records) / n_ops,
        "scenario_io.load_config_ms": total["load_config"] / n_ops,
        "equilibrium.solve_mixed_self_ms": self_ms["solve_mixed"] / n_ops,
        "equilibrium.solve_single_class_self_ms": self_ms["solve_single_class"] / n_ops,
        "equilibrium.window_mass_per_solve": _ratio(calls["window_mass"], solves),
        "equilibrium.sample_profiles_ms": (
            statistics.fmean(resampler.times_ms) if resampler.times_ms else 0.0
        ),
        "numerics.quad_calls": calls["trapezoid_refine"] / n_ops,
        "numerics.quad_points": work["trapezoid_refine"] / n_ops,
        "numerics.points_per_quad": _ratio(work["trapezoid_refine"], calls["trapezoid_refine"]),
        "numerics.quad_ms": total["trapezoid_refine"] / n_ops,
        "numerics.root_calls": sum(calls[f] for f in ROOT_FNS) / n_ops,
        "numerics.root_evals": sum(work[f] for f in ROOT_FNS) / n_ops,
        "numerics.root_ms": sum(self_ms[f] for f in ROOT_FNS) / n_ops,
        "model.flow_evals": flow / n_ops,
        "toll.solve_system_optimum_self_ms": self_ms["solve_system_optimum"] / n_ops,
        "toll.compute_toll_ms": total["compute_toll"] / n_ops,
        "toll.verify_ms": total["verify_tolled_equilibrium"] / n_ops,
        "metrics.summarize_ms": total["summarize"] / n_ops,
        "dynamics.days": calls["day_step"] / n_ops,
        "dynamics.final_bins": statistics.fmean(oracle_bins) if oracle_bins else 0.0,
        "dynamics.grid_extensions": calls["extend_grid"] / n_ops,
        "dynamics.day_step_ms": _ratio(total["day_step"], calls["day_step"]),
        "dynamics.gap_measure_ms": _ratio(total["gap_measure"], calls["gap_measure"]),
        "dynamics.minflt_per_day": _ratio(faults["day_step"], calls["day_step"]),
        "proc.minflt_per_op": statistics.fmean(r["minflt"] for r in records),
        "trace.op_p50_ms": statistics.median(r["ms"] for r in records),
        "pinned.quad_points": pinned["quad_points"],
        "pinned.flow_evals": pinned["flow_evals"],
        "pinned.root_evals": pinned["root_evals"],
        "pinned.days": pinned["days"],
    }
    present = tracer.wrapped | ({"sample_profiles"} if resampler.sample is not None else set())
    return {
        name: (values[name] if needs is None or needs in present else "absent", unit)
        for name, unit, _better, needs, _moves in PER_LAYER
    }


def pinned_readback(tracer: Tracer, records: list[dict]) -> list[dict]:
    """Work counts inside each solver and oracle span of the pinned ops."""
    spans = tracer.spans
    pinned_ops = {i for i, r in enumerate(records) if r["pinned"]}
    roots = {
        i for i, rec in enumerate(spans)
        if rec[OP] in pinned_ops and short(rec[NAME]) in SOLVERS + ("run_until_converged",)
    }
    totals = subtree_totals(spans, roots)
    return [
        {"op": records[spans[i][OP]]["label"], "span": spans[i][NAME], **totals[i]}
        for i in sorted(roots)
    ]
