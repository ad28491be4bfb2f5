"""Run the benchmark in two checkouts as alternating pairs and write BENCH_<label>.json.

Usage, from anywhere (standard library only):

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload oracle \
        --seeds 9101 9102 ... --label oracle_day_loop

For each workload and seed, ``perfbench/run.py --seed S --trace 0`` runs once
in each checkout, for the ``run_seconds`` that BENCHMARK.json fixes; the side
that runs first alternates from pair to pair.  Each run's last stdout line (the result object) is kept as printed,
with the pinned ops' digests from the line before it.  The per-op output
digests that ``run.py`` records under ``.perfbench/`` are compared over the
ops both sides ran, since both run the same seeded ops in the same order.

The file gets host information, every pair, and per metric the quartiles of
each side, the number of pairs the change won, and whether the gain rule
holds: the change wins at least nine tenths of the pairs and the medians
differ by more than the parent's interquartile range.  It is rewritten after
every pair, so an interrupted session keeps the pairs already run.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")


def _commit(checkout: Path) -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True,
                              text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def _benchmark(checkout: Path) -> tuple[float, dict[str, str]]:
    """BENCHMARK.json's run length, and ``better`` ("higher" or "lower") per end-to-end metric."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["run_seconds"], {m["name"]: m["better"] for m in spec["end_to_end"]}


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run; its result line, pinned digests and per-op digests."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = [line for line in done.stdout.splitlines() if line.strip()]
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{checkout}: {' '.join(argv[1:])} exited {done.returncode}:\n"
                           + done.stderr[-2000:])
    detail = json.loads(lines[-2])
    record = checkout / ".perfbench" / f"{workload}-seed{seed}-trace0.json.gz"
    with gzip.open(record, "rt", encoding="utf-8") as fh:
        ops = json.load(fh)["ops"]
    return {
        "result": json.loads(lines[-1]),
        "environment": detail["environment"],
        "pinned": detail["pinned"],
        "digests": [op.get("digest") for op in ops],
    }


def _quartiles(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(pairs: list[dict], directions: dict[str, str]) -> dict:
    """Per metric: each side's quartiles, the change's wins, and the gain rule."""
    summary = {}
    for name, better in directions.items():
        values = {side: [p[side]["result"]["metrics"][name]["value"] for p in pairs]
                  for side in SIDES}
        sign = 1.0 if better == "higher" else -1.0
        wins = sum(sign * (c - p) > 0.0 for p, c in zip(values["parent"], values["change"]))
        entry = {"better": better, "wins": wins, "pairs": len(pairs)}
        if len(pairs) >= 2:
            quart = {side: _quartiles(values[side]) for side in SIDES}
            gain = sign * (quart["change"]["median"] - quart["parent"]["median"])
            entry.update(quart)
            entry["change_over_parent"] = quart["change"]["median"] / quart["parent"]["median"]
            entry["gain_rule_holds"] = (
                wins >= 0.9 * len(pairs) and gain > quart["parent"]["q3"] - quart["parent"]["q1"]
            )
        summary[name] = entry
    return summary


def compare_digests(pair: dict) -> dict:
    parent, change = pair["parent"]["digests"], pair["change"]["digests"]
    common = min(len(parent), len(change))
    mismatched = [i for i in range(common) if parent[i] != change[i]]
    pinned = [[(op["label"], op["digest"]) for op in pair[side]["pinned"]] for side in SIDES]
    return {"ops_compared": common, "mismatched_ops": mismatched,
            "pinned_equal": pinned[0] == pinned[1]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", nargs="+", required=True, help="one or more workloads")
    parser.add_argument("--seeds", nargs="+", type=int, required=True, help="one pair per seed")
    parser.add_argument("--label", required=True, help="names the output BENCH_<label>.json")
    args = parser.parse_args(argv)

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    seconds, directions = _benchmark(checkouts["change"])
    out_path = Path(f"BENCH_{args.label}.json")
    report = {
        "label": args.label,
        "command": "perfbench/run.py --trace 0",
        "seconds": seconds,
        "commits": {side: _commit(path) for side, path in checkouts.items()},
        "host": {"nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
                 "python": platform.python_version()},
        "workloads": {},
    }
    for workload in args.workload:
        pairs: list[dict] = []
        for i, seed in enumerate(args.seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair: dict = {"seed": seed, "first": order[0]}
            for side in order:
                t0 = time.perf_counter()
                pair[side] = run_once(checkouts[side], workload, seed, seconds)
                print(f"bench_pairs: {workload} seed {seed} {side} "
                      f"{time.perf_counter() - t0:.0f} s", file=sys.stderr)
            if "numpy" not in report["host"]:
                env = pair["parent"]["environment"]
                report["host"].update(numpy=env["numpy"], blas=env["blas"])
            pair["digests"] = compare_digests(pair)
            pairs.append(pair)
            report["workloads"][workload] = {
                "pairs": [{k: v for k, v in p.items() if k not in SIDES}
                          | {side: {"result": p[side]["result"], "pinned": p[side]["pinned"]}
                             for side in SIDES}
                          for p in pairs],
                "summary": summarize(pairs, directions),
            }
            out_path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"bench_pairs: wrote {out_path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
