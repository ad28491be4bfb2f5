"""Scan the day-to-day oracle's ``eta`` over 33 fixed draws and report how each value fares.

Usage, from the repository root (numpy and the checkout's ``src``):

    python3 tools/oracle_eta_scan.py [--eta 0.25 0.5 0.75 0.9 1.0] [--verbose]

The draws, all on 1-minute bins with the bundled ``gap_tol`` and
``max_days = 20000``:

- the bundled corridor with the demand scaled by 0.97, 0.98, ..., 1.03, at
  mpr 0, 0.5 and 1 (21 draws);
- the bundled corridor at mpr 0.16 and 0.9;
- an over-capacity corridor (``capacity_r = n_total / 0.57``, nu 3.12) at
  mpr 0 and 1;
- 8 wide draws at mpr k/7, k = 0 ... 7: a Latin hypercube over
  ``perfbench/workloads.py`` ``WIDE_RANGES`` from ``random.Random("scan:18")``.

A draw passes when the run converges, its delays on the used bins lie
within 2% of the analytic peak delay, and at 0 < mpr < 1 it has criterion
3's GV-EV-GV shape with a used-bin cut of both 3 vehicles and
``1e-3 * n_total``.  Per ``eta`` the scan prints the failing draws, the
worst deviation, the most days and the sum of days.  The shipped ``eta``
is at most half the smallest value that fails any draw.
"""

from __future__ import annotations

import argparse
import random
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from commuteq import (  # noqa: E402
    VehicleClass,
    bundled_scenario_path,
    load_config,
    run_until_converged,
    solution_delay,
    solve_mixed,
)
from perfbench.workloads import WIDE_RANGES  # noqa: E402

MAX_DAYS = 20000
MAX_DEVIATION = 0.02


def _wide(base, rng: random.Random, mprs: list[float]) -> list:
    """One scenario per mpr; each ``WIDE_RANGES`` column is cut into ``len(mprs)`` strata."""
    n = len(mprs)
    columns = {}
    for name, (lo, hi) in WIDE_RANGES.items():
        strata = list(range(n))
        rng.shuffle(strata)
        columns[name] = [lo + (hi - lo) * (k + rng.random()) / n for k in strata]
    draws = []
    for i, mpr in enumerate(mprs):
        p = {name: column[i] for name, column in columns.items()}
        draws.append(replace(
            base,
            n_total=p["n_total"], capacity_r=p["capacity_r"], nu=p["nu"],
            trip_km=p["trip_km"], alpha=p["alpha"], beta=p["beta"], gamma=p["gamma"],
            gv_energy=replace(base.gv_energy, c1=p["gv_c1"], c2=p["gv_c2"]),
            ev_energy=replace(base.ev_energy, c1=p["ev_c1"], c2=p["ev_c2"]),
            mpr=mpr,
        ))
    return draws


def draws(base) -> list[tuple[str, object]]:
    """The 33 labelled scenarios."""
    out = []
    for mpr in (0.0, 0.5, 1.0):
        for k in range(-3, 4):
            scale = 1.0 + k / 100.0
            out.append((f"bundled mpr {mpr:g} demand x{scale:.2f}",
                        replace(base, mpr=mpr, n_total=scale * base.n_total)))
    for mpr in (0.16, 0.9):
        out.append((f"bundled mpr {mpr:g}", replace(base, mpr=mpr)))
    for mpr in (0.0, 1.0):
        out.append((f"over-capacity mpr {mpr:g}",
                    replace(base, mpr=mpr, capacity_r=base.n_total / 0.57, nu=3.12)))
    mprs = [k / 7.0 for k in range(8)]
    for k, sc in enumerate(_wide(base, random.Random("scan:18"), mprs)):
        out.append((f"wide {k} mpr {sc.mpr:.3f}", sc))
    return out


def _shape_holds(assignment, sc, cut: float) -> bool:
    """Criterion 3: a contiguous EV block around t*, flanked by GV bins on both sides only."""
    used_ev = np.nonzero(assignment.class_mass(VehicleClass.EV) > cut)[0]
    used_gv = np.nonzero(assignment.class_mass(VehicleClass.GV) > cut)[0]
    if used_ev.size == 0 or used_gv.size == 0:
        return False
    centers = assignment.centers
    inside = used_gv[(used_gv > used_ev[0]) & (used_gv < used_ev[-1])]
    return bool(
        np.all(np.diff(used_ev) == 1)
        and centers[used_ev[0]] < sc.t_star < centers[used_ev[-1]]
        and inside.size == 0
        and used_gv.min() < used_ev[0]
        and used_gv.max() > used_ev[-1]
    )


def check(sc, numerics, eta: float) -> tuple[int, float, str | None]:
    """One run: its days, its peak-relative deviation, and why it fails (None if it passes)."""
    assignment, report = run_until_converged(
        sc, bin_width=numerics.bin_width, eta=eta, gap_tol=numerics.gap_tol, max_days=MAX_DAYS
    )
    reference = solution_delay(solve_mixed(sc), assignment.centers)
    used = assignment.masses.sum(axis=0) > 1e-3 * sc.n_total
    deviation = float(np.max(np.abs(assignment.delays(sc) - reference)[used]) / np.max(reference))
    if not report.converged:
        return report.days, deviation, f"not converged in {report.days} days"
    if deviation > MAX_DEVIATION:
        return report.days, deviation, f"deviation {deviation:.3%}"
    if 0.0 < sc.mpr < 1.0:
        for cut in (3.0, 1e-3 * sc.n_total):
            if not _shape_holds(assignment, sc, cut):
                return report.days, deviation, f"no GV-EV-GV shape at a {cut:.3g}-vehicle cut"
    return report.days, deviation, None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--eta", type=float, nargs="+", default=[0.25, 0.5, 0.75, 0.9, 1.0])
    parser.add_argument("--verbose", action="store_true", help="print every draw's days")
    args = parser.parse_args(argv)
    config = load_config(bundled_scenario_path(), env={})
    scenarios = draws(config.scenario)
    any_failed = False
    for eta in args.eta:
        failures, days, deviations = [], [], []
        # a near-empty bin's b*T*T underflows in the analytic profile too; zero is right
        with np.errstate(under="ignore"):
            for label, sc in scenarios:
                n_days, deviation, why = check(sc, config.numerics, eta)
                days.append(n_days)
                deviations.append(deviation)
                if why is not None:
                    failures.append(f"{label}: {why}")
                if args.verbose:
                    print(f"  eta {eta:g} {label}: {n_days} days, deviation {deviation:.3%}")
        print(f"eta {eta:g}: {len(failures)} failing draws of {len(scenarios)}, worst deviation "
              f"{max(deviations):.3%}, most days {max(days)}, sum of days {sum(days)}")
        for line in failures:
            print(f"  FAIL {line}")
        any_failed = any_failed or bool(failures)
    return 1 if any_failed else 0


if __name__ == "__main__":
    sys.exit(main())
