"""Scenario file loading, validation, emission, and environment overrides.

The on-disk format is a sectioned key-value text file (a TOML subset kept
deliberately small: ``[section]`` headers, ``key = number`` lines, ``#``
comments).  Every solver input lives in one of five sections, ``[corridor]``,
``[demand]``, ``[energy.gv]``, ``[energy.ev]`` and ``[numerics]``; ``_KEYS``
is the one list of their keys, in file order, and each key is named after
the ``Scenario``, ``EnergyModel`` or ``Numerics`` field it sets.

``[numerics]`` keys all have defaults, :data:`numerics.DEFAULTS`.
``gap_tol`` (3e-5) stops the day-to-day oracle once every class's
mass-weighted relative gap ``sum m (c - c_min) / sum m c_min`` is below
it; it used to bound the relative gap over bins holding more than 1e-3 of
the class, at 1e-3, and a file that still sets ``gap_tol = 0.001`` now
stops far earlier and looser (393 days and 1.33% of the peak delay at
mpr 0 on the bundled corridor).  ``root_rtol`` bounds the last Newton step
of every conservation root, relative to the root's delay; ``mixed_rtol`` is
the largest miss, as a fraction of ``n_total``, allowed between a class's
absorbed count and its population in every solve (exit 3 beyond it).  No
solver runs a quadrature, so the retired ``quad_rtol`` key loads (finite)
and is ignored.
``s_max`` defaults to 60 km/h; ``[energy.ev]`` may be omitted only when
mpr = 0 (the EV record then copies the GV coefficients, making the classes
indistinguishable).  Unknown sections or keys are rejected by name.  Any key
can be overridden through the environment as ``CEQ_<SECTION>_<KEY>``, e.g.
``CEQ_DEMAND_MPR=0.3``.
"""

from __future__ import annotations

import math
import os
from collections.abc import Mapping
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .errors import ScenarioError
from .model import EnergyModel, Scenario, VehicleClass
from .numerics import Numerics

ENV_PREFIX = "CEQ_"

#: Each section's keys in file order, each the name of the field it sets.
#: ``s_max`` and the ``[numerics]`` keys are optional; ``quad_rtol`` is retired.
_KEYS = {
    "corridor": ("trip_km", "capacity_r", "nu", "s_max"),
    "demand": ("n_total", "t_star", "alpha", "beta", "gamma", "mpr"),
    "energy.gv": ("c1", "c2"),
    "energy.ev": ("c1", "c2"),
    "numerics": ("dt_minutes", "bin_minutes", "eta", "gap_tol", "max_days", "quad_rtol",
                 "root_rtol", "mixed_rtol"),
}
_SECTIONS = tuple(sorted(_KEYS))


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


def parse_config_text(text: str, source: str) -> dict[str, dict[str, float]]:
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
        allowed = _KEYS[current]
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
    sections: dict[str, dict[str, float]], env: Mapping[str, str]
) -> dict[str, dict[str, float]]:
    """Apply every ``CEQ_<SECTION>_<KEY>`` variable in ``env`` to ``sections``.

    Only the names of ``env`` are scanned; values are read for ``CEQ_*``
    names alone.  Those names are applied in sorted order, so the first bad
    one reported does not depend on the order of the mapping.
    """
    for var in sorted(name for name in env if name.startswith(ENV_PREFIX)):
        raw = env[var]
        tail = var[len(ENV_PREFIX) :].lower()
        for section in _SECTIONS:
            prefix = section.replace(".", "_") + "_"
            if tail.startswith(prefix):
                key = tail[len(prefix) :]
                if key not in _KEYS[section]:
                    raise ScenarioError(f"{var}: unknown key {key!r} for [{section}]")
                sections.setdefault(section, {})[key] = _parse_number(raw, var)
                break
        else:
            raise ScenarioError(f"{var}: does not name any scenario section")
    return sections


def _build_config(sections: dict[str, dict[str, float]], source: str) -> ScenarioConfig:
    # every missing section is reported before any missing key
    for name in ("corridor", "demand", "energy.gv"):
        if name not in sections:
            raise ScenarioError(f"{source}: missing required section [{name}]")
    for name in ("corridor", "demand", "energy.gv", "energy.ev"):
        for key in _KEYS[name]:
            if name in sections and key not in sections[name] and key != "s_max":
                raise ScenarioError(f"{source}: missing required key {key!r} in [{name}]")

    mpr = sections["demand"]["mpr"]
    gv = sections["energy.gv"]
    ev = sections.get("energy.ev")
    if ev is None:
        if mpr != 0.0:
            raise ScenarioError(f"{source}: [energy.ev] is required when mpr > 0 (mpr={mpr})")
        ev = gv  # no EVs on the road: coefficients are inert

    numerics_raw = dict(sections.get("numerics", {}))
    numerics_raw.pop("quad_rtol", None)
    if "max_days" in numerics_raw:
        max_days = numerics_raw["max_days"]
        if max_days != int(max_days):
            raise ScenarioError(f"{source}: max_days must be an integer, got {max_days}")
        numerics_raw["max_days"] = int(max_days)
    numerics = Numerics(**numerics_raw)

    scenario = Scenario(
        **sections["corridor"],
        **sections["demand"],
        gv_energy=EnergyModel(VehicleClass.GV, **gv),
        ev_energy=EnergyModel(VehicleClass.EV, **ev),
    )
    return ScenarioConfig(scenario=scenario, numerics=numerics)


def load_config(
    path: str | Path, env: Mapping[str, str] | None = None
) -> ScenarioConfig:
    """Load, override from the environment, and validate a scenario file.

    ``env`` defaults to ``os.environ``, read afresh on every call.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ScenarioError(f"scenario file not found: {path}") from None
    sections = parse_config_text(text, source=str(path))
    sections = _apply_env_overrides(sections, os.environ if env is None else env)
    return _build_config(sections, source=str(path))


def emit_config(config: ScenarioConfig) -> str:
    """Render a config back to file text; load(emit(c)) reproduces c exactly."""
    sc = config.scenario
    records = {"energy.gv": sc.gv_energy, "energy.ev": sc.ev_energy, "numerics": config.numerics}
    lines = []
    for section, keys in _KEYS.items():
        record = records.get(section, sc)  # corridor and demand keys are Scenario fields
        lines += ["", f"[{section}]"]
        lines += [f"{key} = {getattr(record, key)!r}" for key in keys if key != "quad_rtol"]
    return "\n".join(lines[1:]) + "\n"


def bundled_scenario_path() -> Path:
    """Path of the packaged default scenario file."""
    return Path(resources.files("commuteq").joinpath("scenarios/basic.toml"))

