"""Scenario file loading, validation, emission, and environment overrides.

The on-disk format is a sectioned key-value text file (a TOML subset kept
deliberately small: ``[section]`` headers, ``key = number`` lines, ``#``
comments).  Every solver input lives in one of five sections::

    [corridor]   trip_km, capacity_r, nu, s_max
    [demand]     n_total, t_star, alpha, beta, gamma, mpr
    [energy.gv]  c1, c2
    [energy.ev]  c1, c2
    [numerics]   dt_minutes, bin_minutes, eta, gap_tol, max_days,
                 root_rtol, mixed_rtol

``[numerics]`` keys all have defaults.  ``root_rtol`` bounds the last
Newton step of every conservation root, relative to the root's delay;
``mixed_rtol`` is the largest miss, as a fraction of ``n_total``, allowed
between a class's absorbed count and its population in every solve (exit 3
beyond it).  No solver runs a
quadrature, so the retired ``quad_rtol`` key loads (finite) and is ignored.
``s_max`` defaults to 60 km/h; ``[energy.ev]`` may be omitted only when
mpr = 0 (the EV record then copies the GV coefficients, making the classes
indistinguishable).  Unknown sections or keys are rejected by name.  Any key
can be overridden through the environment as ``CEQ_<SECTION>_<KEY>``, e.g.
``CEQ_DEMAND_MPR=0.3``.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields, replace
from importlib import resources
from pathlib import Path

from .errors import ScenarioError
from .model import EnergyModel, Scenario, VehicleClass

ENV_PREFIX = "CEQ_"

_REQUIRED = {
    "corridor": ("trip_km", "capacity_r", "nu"),
    "demand": ("n_total", "t_star", "alpha", "beta", "gamma", "mpr"),
    "energy.gv": ("c1", "c2"),
    "energy.ev": ("c1", "c2"),
}
_OPTIONAL = {
    "corridor": ("s_max",),
    "numerics": (
        "dt_minutes",
        "bin_minutes",
        "eta",
        "gap_tol",
        "max_days",
        "quad_rtol",  # retired: loads and is ignored
        "root_rtol",
        "mixed_rtol",
    ),
}
_SECTIONS = tuple(sorted(set(_REQUIRED) | set(_OPTIONAL)))


@dataclass(frozen=True)
class Numerics:
    """Numerical settings shared by the solvers and the day-to-day oracle."""

    dt_minutes: float = 1.0
    bin_minutes: float = 1.0
    eta: float = 0.05
    gap_tol: float = 1e-3
    max_days: int = 10000
    root_rtol: float = 1e-10
    mixed_rtol: float = 1e-8

    def __post_init__(self):
        for fld in fields(self):
            value = getattr(self, fld.name)
            if not math.isfinite(value):
                raise ScenarioError(f"{fld.name} must be finite, got {value}")
        if self.dt_minutes <= 0.0 or self.bin_minutes <= 0.0:
            raise ScenarioError("dt_minutes and bin_minutes must be positive")
        if not 0.0 < self.eta <= 1.0:
            raise ScenarioError(f"eta must lie in (0,1], got {self.eta}")
        if min(self.gap_tol, self.root_rtol, self.mixed_rtol) <= 0.0:
            raise ScenarioError("tolerances must be positive")
        if self.max_days < 0:
            raise ScenarioError(f"max_days must be nonnegative, got {self.max_days}")

    @property
    def dt(self) -> float:
        """Profile grid spacing in hours."""
        return self.dt_minutes / 60.0

    @property
    def bin_width(self) -> float:
        """Oracle bin width in hours."""
        return self.bin_minutes / 60.0


@dataclass(frozen=True)
class ScenarioConfig:
    """A fully resolved scenario file: physical scenario plus numerics."""

    scenario: Scenario
    numerics: Numerics


def _parse_number(token: str, where: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ScenarioError(f"{where}: expected a number, got {token!r}") from None
    if not math.isfinite(value):
        raise ScenarioError(f"{where}: expected a finite number, got {token!r}")
    return value


def parse_config_text(text: str, source: str = "<string>") -> dict[str, dict[str, float]]:
    """Parse the sectioned key-value format into ``{section: {key: value}}``.

    Errors carry the source name, line, and column of the offending token.
    """
    sections: dict[str, dict[str, float]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        col = raw.index(stripped[0]) + 1
        where = f"{source}: line {lineno}, column {col}"
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ScenarioError(f"{where}: unterminated section header {stripped!r}")
            name = stripped[1:-1].strip()
            if name not in _SECTIONS:
                raise ScenarioError(
                    f"{where}: unknown section [{name}]; expected one of "
                    + ", ".join(f"[{s}]" for s in _SECTIONS)
                )
            if name in sections:
                raise ScenarioError(f"{where}: duplicate section [{name}]")
            sections[name] = {}
            current = name
            continue
        if "=" not in stripped:
            raise ScenarioError(f"{where}: expected 'key = value', got {stripped!r}")
        if current is None:
            raise ScenarioError(f"{where}: key outside of any [section]")
        key, _, value = stripped.partition("=")
        key = key.strip()
        allowed = _REQUIRED.get(current, ()) + _OPTIONAL.get(current, ())
        if key not in allowed:
            raise ScenarioError(
                f"{where}: unknown key {key!r} in [{current}]; expected one of "
                + ", ".join(sorted(allowed))
            )
        if key in sections[current]:
            raise ScenarioError(f"{where}: duplicate key {key!r} in [{current}]")
        sections[current][key] = _parse_number(value.strip(), where)
    return sections


def _apply_env_overrides(
    sections: dict[str, dict[str, float]], env: dict[str, str]
) -> dict[str, dict[str, float]]:
    for var, raw in sorted(env.items()):
        if not var.startswith(ENV_PREFIX):
            continue
        tail = var[len(ENV_PREFIX) :].lower()
        for section in _SECTIONS:
            prefix = section.replace(".", "_") + "_"
            if tail.startswith(prefix):
                key = tail[len(prefix) :]
                allowed = _REQUIRED.get(section, ()) + _OPTIONAL.get(section, ())
                if key not in allowed:
                    raise ScenarioError(f"{var}: unknown key {key!r} for [{section}]")
                sections.setdefault(section, {})[key] = _parse_number(raw, var)
                break
        else:
            raise ScenarioError(f"{var}: does not name any scenario section")
    return sections


def _build_config(sections: dict[str, dict[str, float]], source: str) -> ScenarioConfig:
    for name in ("corridor", "demand", "energy.gv"):
        if name not in sections:
            raise ScenarioError(f"{source}: missing required section [{name}]")
    for name, keys in _REQUIRED.items():
        if name == "energy.ev":
            continue
        for key in keys:
            if key not in sections.get(name, {}):
                raise ScenarioError(f"{source}: missing required key {key!r} in [{name}]")

    demand = sections["demand"]
    corridor = sections["corridor"]
    gv_raw = sections["energy.gv"]
    mpr = demand["mpr"]
    if "energy.ev" in sections:
        for key in _REQUIRED["energy.ev"]:
            if key not in sections["energy.ev"]:
                raise ScenarioError(f"{source}: missing required key {key!r} in [energy.ev]")
        ev_raw = sections["energy.ev"]
    elif mpr == 0.0:
        ev_raw = dict(gv_raw)  # no EVs on the road: coefficients are inert
    else:
        raise ScenarioError(
            f"{source}: [energy.ev] is required when mpr > 0 (mpr={mpr})"
        )

    numerics_raw = dict(sections.get("numerics", {}))
    numerics_raw.pop("quad_rtol", None)
    if "max_days" in numerics_raw:
        max_days = numerics_raw["max_days"]
        if max_days != int(max_days):
            raise ScenarioError(f"{source}: max_days must be an integer, got {max_days}")
        numerics_raw["max_days"] = int(max_days)
    numerics = Numerics(**numerics_raw)

    scenario = Scenario(
        alpha=demand["alpha"],
        beta=demand["beta"],
        gamma=demand["gamma"],
        t_star=demand["t_star"],
        nu=corridor["nu"],
        n_total=demand["n_total"],
        capacity_r=corridor["capacity_r"],
        trip_km=corridor["trip_km"],
        s_max=corridor.get("s_max", 60.0),
        mpr=mpr,
        gv_energy=EnergyModel(VehicleClass.GV, gv_raw["c1"], gv_raw["c2"]),
        ev_energy=EnergyModel(VehicleClass.EV, ev_raw["c1"], ev_raw["c2"]),
    )
    return ScenarioConfig(scenario=scenario, numerics=numerics)


def load_config(
    path: str | Path, env: dict[str, str] | None = None
) -> ScenarioConfig:
    """Load, override from the environment, and validate a scenario file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ScenarioError(f"scenario file not found: {path}") from None
    sections = parse_config_text(text, source=str(path))
    sections = _apply_env_overrides(sections, dict(os.environ) if env is None else env)
    return _build_config(sections, source=str(path))


def load_scenario(path: str | Path, env: dict[str, str] | None = None) -> Scenario:
    """Load just the physical scenario from a file (numerics discarded)."""
    return load_config(path, env=env).scenario


def emit_config(config: ScenarioConfig) -> str:
    """Render a config back to file text; load(emit(c)) reproduces c exactly."""
    sc = config.scenario
    nm = config.numerics
    lines = ["[corridor]"]
    for key, value in (
        ("trip_km", sc.trip_km),
        ("capacity_r", sc.capacity_r),
        ("nu", sc.nu),
        ("s_max", sc.s_max),
    ):
        lines.append(f"{key} = {value!r}")
    lines += ["", "[demand]"]
    for key, value in (
        ("n_total", sc.n_total),
        ("t_star", sc.t_star),
        ("alpha", sc.alpha),
        ("beta", sc.beta),
        ("gamma", sc.gamma),
        ("mpr", sc.mpr),
    ):
        lines.append(f"{key} = {value!r}")
    lines += ["", "[energy.gv]", f"c1 = {sc.gv_energy.c1!r}", f"c2 = {sc.gv_energy.c2!r}"]
    lines += ["", "[energy.ev]", f"c1 = {sc.ev_energy.c1!r}", f"c2 = {sc.ev_energy.c2!r}"]
    lines += ["", "[numerics]"]
    for fld in fields(Numerics):
        lines.append(f"{fld.name} = {getattr(nm, fld.name)!r}")
    return "\n".join(lines) + "\n"


def bundled_scenario_path() -> Path:
    """Path of the packaged default scenario file."""
    return Path(resources.files("commuteq").joinpath("scenarios/basic.toml"))


def scenario_with(config: ScenarioConfig, **changes) -> ScenarioConfig:
    """Copy of ``config`` with scenario fields replaced (e.g. mpr=0.5)."""
    return ScenarioConfig(
        scenario=replace(config.scenario, **changes), numerics=config.numerics
    )
