"""Seeded op lists for the three workloads and the check of each op's outputs.

An op is one ``commuteq`` command line with its own generated scenario file.
Every workload starts with pinned ops on the bundled scenario, which are the
same for every seed, and continues with seeded rounds.  A round covers a
fixed set of cases (mpr values, grid spacings) in seeded order with seeded
physical parameters, and runs complete whole rounds, so the mix of op kinds
in a run does not depend on the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterator

WORKLOADS = ("solve", "oracle", "toll_fine")

#: The mpr grid of ``commuteq sweep`` (default ``--mpr 0.0:0.1:1.0``).
SWEEP_GRID = tuple(round(0.1 * k, 1) for k in range(11))

#: toll_fine grid spacings in minutes: 0.6, 1.2 and 3 seconds.
TOLL_DT_MINUTES = (0.01, 0.02, 0.05)

# Acceptance-suite bounds reused by the output checks.
COUNT_RTOL = 1e-6
TOLL_RESIDUAL_RTOL = 1e-6
ORACLE_MAX_DEVIATION = 0.02


@dataclass(frozen=True)
class Op:
    command: str
    config: object  # commuteq.scenario_io.ScenarioConfig
    extra: tuple[str, ...]
    pinned: bool

    @property
    def mpr(self) -> float:
        return self.config.scenario.mpr

    @property
    def label(self) -> str:
        text = f"{self.command} mpr={self.mpr:g}"
        if "--dt" in self.extra:
            text += f" dt={self.extra[self.extra.index('--dt') + 1]}min"
        return text + (" pinned" if self.pinned else "")


#: Ranges of the wide draws around the bundled corridor.
WIDE_RANGES = {
    "n_total": (1500.0, 6000.0),
    "capacity_r": (5000.0, 12000.0),
    "nu": (3.0, 5.0),
    "trip_km": (10.0, 35.0),
    "alpha": (6.0, 12.0),
    "beta": (2.5, 5.5),
    "gamma": (10.0, 25.0),
    "gv_c1": (3.0, 5.0),
    "gv_c2": (12.0, 22.0),
    "ev_c1": (0.3, 0.8),
    "ev_c2": (2.0, 4.0),
}


def _wide_draws(base, rng: random.Random, mprs: list[float]) -> list:
    """One config per mpr, the parameters a Latin hypercube over ``WIDE_RANGES``.

    Each parameter's range is cut into ``len(mprs)`` strata and every stratum
    is used once per round, so a run's parameter mix varies less by seed.
    """
    n = len(mprs)
    columns = {}
    for name, (lo, hi) in WIDE_RANGES.items():
        strata = list(range(n))
        rng.shuffle(strata)
        columns[name] = [lo + (hi - lo) * (k + rng.random()) / n for k in strata]
    sc = base.scenario
    configs = []
    for i, mpr in enumerate(mprs):
        p = {name: column[i] for name, column in columns.items()}
        scenario = replace(
            sc,
            n_total=p["n_total"],
            capacity_r=p["capacity_r"],
            nu=p["nu"],
            trip_km=p["trip_km"],
            alpha=p["alpha"],
            beta=p["beta"],
            gamma=p["gamma"],
            gv_energy=replace(sc.gv_energy, c1=p["gv_c1"], c2=p["gv_c2"]),
            ev_energy=replace(sc.ev_energy, c1=p["ev_c1"], c2=p["ev_c2"]),
            mpr=mpr,
        )
        configs.append(replace(base, scenario=scenario))
    return configs


def _rescaled(base, rng: random.Random, mpr: float):
    """The bundled corridor with demand and capacity scaled together and t* moved.

    The oracle's days are erratic in every other input: within 3% of the
    bundled parameters, single-class runs take 1.2k to 10.4k days.  A common
    scale of demand and capacity and a shift of t* leave every delay and cost
    unchanged, so the oracle does the work of the bundled corridor, while the
    input files and outputs differ from seed to seed.  Over-capacity
    corridors are left out on purpose: there ``init_assignment`` builds
    thousands of bins and each day step allocates n-by-n temporaries of
    about a gigabyte, which is a program defect, not a workload.
    """
    sc = base.scenario
    scale = rng.uniform(0.5, 2.0)
    scenario = replace(
        sc,
        n_total=scale * sc.n_total,
        capacity_r=scale * sc.capacity_r,
        t_star=rng.uniform(6.5, 9.5),
        mpr=mpr,
    )
    return replace(base, scenario=scenario)


def _with_mpr(base, mpr: float):
    return replace(base, scenario=replace(base.scenario, mpr=mpr))


def _toll_extra(dt_minutes: float) -> tuple[str, ...]:
    return ("--incentive", "--dt", repr(dt_minutes))


def pinned(workload: str, base) -> list[Op]:
    """The leading ops on ``base`` (the bundled config); the same for every seed."""
    if workload == "toll_fine":
        return [Op("toll", _with_mpr(base, mpr), _toll_extra(TOLL_DT_MINUTES[0]), True)
                for mpr in (0.0, 1.0)]
    command = {"solve": "solve", "oracle": "oracle"}[workload]
    return [Op(command, _with_mpr(base, mpr), (), True) for mpr in (0.0, 0.5, 1.0)]


def rounds(workload: str, seed: int, base) -> Iterator[list[Op]]:
    """Seeded rounds of ops, endless.  Each round covers a fixed set of cases."""
    rng = random.Random(f"{workload}:{seed}")
    while True:
        if workload == "solve":
            cases = list(SWEEP_GRID)
            rng.shuffle(cases)
            yield [Op("solve", config, (), False) for config in _wide_draws(base, rng, cases)]
        elif workload == "oracle":
            cases = [0.0, 0.0, 0.5, 1.0, 1.0]
            rng.shuffle(cases)
            yield [Op("oracle", _rescaled(base, rng, mpr), (), False) for mpr in cases]
        elif workload == "toll_fine":
            cases = [(mpr, dt) for mpr in (0.0, 1.0) for dt in TOLL_DT_MINUTES]
            rng.shuffle(cases)
            configs = _wide_draws(base, rng, [mpr for mpr, _ in cases])
            yield [Op("toll", config, _toll_extra(dt), False)
                   for config, (_, dt) in zip(configs, cases)]
        else:
            raise ValueError(f"unknown workload {workload!r}")


def read_summary(out_dir: Path) -> dict[str, str]:
    items = {}
    for line in (out_dir / "summary.txt").read_text(encoding="utf-8").splitlines():
        key, _, value = line.partition(" = ")
        items[key] = value
    return items


def check_outputs(op: Op, out_dir: Path) -> str | None:
    """None when the op's outputs meet the acceptance-suite bounds, else why not."""
    try:
        summary = read_summary(out_dir)
        if op.command == "solve":
            sc = op.config.scenario
            for cls, population in (("gv", (1.0 - sc.mpr) * sc.n_total), ("ev", sc.mpr * sc.n_total)):
                if population <= 0.0:
                    continue
                count = float(summary[f"count_{cls}"])
                if abs(count - population) > COUNT_RTOL * population:
                    return f"count_{cls} {count!r} vs population {population!r}"
            if not (out_dir / "profile.csv").is_file():
                return "profile.csv missing"
        elif op.command == "toll":
            residual = float(summary["tolled_equilibrium_residual"])
            multiplier = float(summary["multiplier"])
            if not residual <= TOLL_RESIDUAL_RTOL * multiplier:
                return f"tolled residual {residual!r} above 1e-6 * {multiplier!r}"
            if not (out_dir / "toll.csv").is_file():
                return "toll.csv missing"
        elif op.command == "oracle":
            if summary["converged"] != "true":
                return "oracle did not converge"
            deviation = float(summary["max_delay_deviation_vs_analytic"])
            if not deviation <= ORACLE_MAX_DEVIATION:
                return f"oracle deviation {deviation!r} above {ORACLE_MAX_DEVIATION}"
    except (OSError, KeyError, ValueError) as exc:
        return f"unreadable outputs: {exc!r}"
    return None
