"""The README's "Library" example runs as written."""

from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_example() -> str:
    text = README.read_text(encoding="utf-8")
    after = text[text.index("\n## Library\n") :]
    start = after.index("```python\n") + len("```python\n")
    return after[start : after.index("```", start)]


def test_library_example_runs():
    namespace: dict = {}
    exec(compile(_library_example(), str(README), "exec"), namespace)
    cq, so = namespace["cq"], namespace["so"]
    assert cq.verify_tolled_equilibrium(so, namespace["profile"]) <= 1e-12 * so.multiplier
    assert namespace["gap"].converged
    ue, report = namespace["ue"], namespace["report"]
    assert report.ecp > 0.0
    assert ue.costs.social == pytest.approx(
        sum(ue.class_costs[c] * ue.class_counts[c] for c in ue.class_costs), rel=1e-12
    )
