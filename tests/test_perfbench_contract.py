"""The benchmark's per-layer metrics name functions that commuteq must keep.

``perfbench/layers.py`` reads a metric as "absent" when the layer function it
wraps is gone, and a traced benchmark run then reports a string where a
number belongs.  This test reads the metric table and the layer list from
the benchmark's source, without importing it or installing its tracer, and
checks each named function is still bound where the tracer looks for it.
"""

import ast
import importlib
import inspect
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from commuteq import bundled_scenario_path, load_config, sample_profiles, solve_mixed
from commuteq.numerics import DEFAULTS

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _assigned_literal(path: Path, name: str):
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == name for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} is not assigned in {path}")


LAYERS = _assigned_literal(PERFBENCH / "tracer.py", "LAYERS")
PER_LAYER = _assigned_literal(PERFBENCH / "layers.py", "PER_LAYER")
NEEDED = sorted({row[3] for row in PER_LAYER if row[3] is not None})


def test_metric_table_names_functions():
    assert NEEDED, "PER_LAYER names no wrapped function"


@pytest.mark.parametrize("name", NEEDED)
def test_named_function_is_bound_in_a_layer(name):
    assert not name.startswith("_")
    binders = [
        layer
        for layer in LAYERS
        if inspect.isfunction(getattr(importlib.import_module(f"commuteq.{layer}"), name, None))
    ]
    assert binders, f"no commuteq layer module in {LAYERS} binds a function {name!r}"


def test_resampler_reads_the_solution_profile_dt():
    # the Resampler re-samples each solution at ``solution.profile.dt``
    solution = solve_mixed(load_config(bundled_scenario_path(), env={}).scenario)
    profile = solution.profile
    assert profile.dt == DEFAULTS.dt
    resampled = sample_profiles(solution, profile.dt)
    for field in fields(profile):
        assert np.array_equal(getattr(resampled, field.name), getattr(profile, field.name)), field.name
