"""commuteq benchmark: seeded CLI ops in a closed loop, one client, one process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload solve --seed 1 --seconds 30 --trace 0

Each op writes its own scenario file (``emit_config``), calls
``commuteq.cli.main`` with its own ``--out`` directory, and then has its
outputs checked against the acceptance-suite bounds outside the timed region.
The pinned leading ops always run, then whole seeded rounds until
``--seconds`` have passed.  The program sees only the generated files, never the seed.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` wraps the layer
functions (see ``tracer.py``) and reports the per-layer metrics.  The last
line of standard output is the result object; an earlier line holds the
environment, the op-latency tail and the pinned ops' digests and counts.
A run record, with spans when traced, goes to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import layers
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Fresh processes timed for ``setup_s``; the median is reported.
SETUP_REPEATS = 11
SETUP_CODE = (
    "import commuteq\n"
    "from commuteq.scenario_io import bundled_scenario_path, load_config\n"
    "load_config(bundled_scenario_path())\n"
)
#: ``op_p90_ms`` needs at least ten samples beyond it.
P90_MIN_OPS = 100


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup() -> list[float]:
    """Wall times of fresh processes importing commuteq and loading the bundled config."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=_child_env(), cwd=ROOT, check=True)
        times.append(perf_counter() - t0)
    return times


def _blas_threads() -> str:
    """Thread count reported by the loaded OpenBLAS, if it can be asked."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return "unknown"
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return str(fn())
    return "unknown"


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    watched = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ.get(k, "unset") for k in watched},
        "malloc_env": {k: v for k, v in os.environ.items() if k.startswith("MALLOC_")},
    }


def digest(out_dir: Path) -> tuple[str, int]:
    """SHA-256 over the names and bytes of every file the op wrote, and their total size."""
    h = hashlib.sha256()
    size = 0
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        size += len(data)
        h.update(path.name.encode() + b"\0" + len(data).to_bytes(8, "little") + data)
    return h.hexdigest(), size


def _bundled():
    from commuteq.scenario_io import bundled_scenario_path, load_config

    return load_config(bundled_scenario_path(), env={})


class Runner:
    """Runs one op through ``cli.main`` and returns its record."""

    def __init__(self, workdir: Path, tracer) -> None:
        from commuteq import cli
        from commuteq.scenario_io import emit_config

        self.cli = cli
        self.emit_config = emit_config
        self.workdir = workdir
        self.tracer = tracer

    def run(self, op: workloads.Op, index: int) -> dict:
        scenario = self.workdir / f"op{index}.toml"
        scenario.write_text(self.emit_config(op.config), encoding="utf-8")
        out_dir = self.workdir / f"op{index}"
        argv = [op.command, "--scenario", str(scenario), "--out", str(out_dir), "--quiet", *op.extra]
        flt0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        error = None
        span = None
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.op = index
            span = self.tracer.open("commuteq.cli.main", "cli")
        t0 = perf_counter()
        try:
            rc = self.cli.main(argv)
        except SystemExit as exc:  # argparse rejects an argument
            rc, error = exc.code, f"exit {exc.code}"
        except Exception as exc:  # a crash is a failed op, not a failed run
            rc, error = -1, repr(exc)
        elapsed = perf_counter() - t0
        if span is not None:
            self.tracer.close(span)
        flt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - flt0
        record = {"label": op.label, "pinned": op.pinned, "ms": 1e3 * elapsed, "rc": rc,
                  "minflt": flt, "incorrect": False}
        if rc == 0:
            error = workloads.check_outputs(op, out_dir)
            record["incorrect"] = error is not None
            record["digest"], record["bytes"] = digest(out_dir)
            if op.command == "oracle":
                lines = (out_dir / "oracle_profile.csv").read_text(encoding="utf-8").count("\n")
                record["final_bins"] = lines - 1
        elif error is None:
            error = f"exit {rc}"
        record["error"] = error
        if error is not None:
            print(f"perfbench: op {index} ({op.label}) failed: {error}", file=sys.stderr)
        shutil.rmtree(out_dir, ignore_errors=True)
        scenario.unlink()
        return record


def run_ops(runner: Runner, workload: str, seed: int, seconds: float, after_op) -> list[dict]:
    """Closed loop: the pinned ops, then whole seeded rounds until ``seconds`` have passed.

    At least one seeded round runs.  An oracle op takes seconds, so a time
    limit checked per op would end runs after a varying mix of ops.
    """
    base = _bundled()
    records: list[dict] = []
    start = perf_counter()
    for op in workloads.pinned(workload, base):
        records.append(runner.run(op, len(records)))
        after_op()
    for round_ in workloads.rounds(workload, seed, base):
        for op in round_:
            records.append(runner.run(op, len(records)))
            after_op()
        if perf_counter() - start >= seconds:
            break
    return records


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "commuteq" / "__init__.py").is_file():
        print(f"perfbench: no commuteq sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    records_dir = ROOT / ".perfbench"
    workdir = records_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_times = [] if args.trace else measure_setup()
        env = environment()
        tracer = None
        resampler = None
        if args.trace:
            tracer = layers.make_tracer()
            resampler = layers.Resampler(tracer)
        runner = Runner(workdir, tracer)
        records = run_ops(runner, args.workload, args.seed, args.seconds,
                          after_op=resampler.resample if resampler is not None else lambda: None)
        # criterion 9 within a run: the last pinned op again, byte for byte
        if tracer is not None:
            tracer.enabled = False
        pinned = [r for r in records if r["pinned"]]
        rerun = runner.run(workloads.pinned(args.workload, _bundled())[-1], len(records))
        deterministic = rerun.get("digest") is not None and rerun["digest"] == pinned[-1].get("digest")
        if not deterministic:
            print("perfbench: re-running the last pinned op changed its outputs", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(records)
    failed = sum(r["error"] is not None for r in records)
    correct = deterministic and not any(r["incorrect"] for r in records)
    times = [r["ms"] for r in records]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": env,
        "setup_times_s": setup_times,
        "ops": attempted,
        "failed_ratio": failed / attempted,
        "deterministic_rerun": deterministic,
        "pinned": [{"label": r["label"], "ms": round(r["ms"], 3), "digest": r.get("digest")}
                   for r in pinned],
    }
    if attempted >= P90_MIN_OPS:
        detail["op_p90_ms"] = statistics.quantiles(times, n=10)[-1]
    if args.trace:
        metrics = layers.per_layer_metrics(tracer, records, resampler)
        detail["pinned_readback"] = layers.pinned_readback(tracer, records)
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "op_p50_ms": (statistics.median(times), "ms"),
            "ops_per_s": (attempted / (sum(times) / 1e3), "1/s"),
            "ok_ratio": ((attempted - failed) / attempted, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    record_path = records_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json.gz"
    with gzip.open(record_path, "wt", encoding="utf-8") as fh:
        json.dump({"detail": detail, "ops": records,
                   "spans": tracer.spans if tracer is not None else []}, fh)
    print(json.dumps(detail))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
