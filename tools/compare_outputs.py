"""Run the CLI in two checkouts and report every difference in what it writes.

Usage, from anywhere (standard library only):

    python3 tools/compare_outputs.py PARENT_DIR CHANGE_DIR

Each case (``solve``, ``sweep``, ``toll``, ``toll --incentive``,
``toll --dt 0.01``, ``toll --incentive --dt 0.01`` and ``oracle``, each at
mpr 0, 0.5 and 1 through ``CEQ_DEMAND_MPR``, then ``sweep --mpr`` 0, 0.5 and
1 on the bundled file) runs as ``python -m commuteq.cli`` on the checkout's
``src``, in a fresh working directory per side and with the same relative
``--out`` path, so both sides print the same paths.  Then ``solve`` runs on
scenario files the tool writes (as ``scenario.toml`` in the working
directory): a minimal mpr-0 file with no ``s_max``, ``[numerics]`` or
``[energy.ev]``, which must solve, and broken files and a bad ``CEQ_*``
override, which must exit 2.  Other ``CEQ_*`` variables are dropped from the
environment.  Every file under ``--out``, stdout, stderr and the exit code
are compared byte for byte, and an exit code other than a scenario case's
expected one is a difference too.  One line is printed per difference; the
exit status is 1 if there is any, else 0.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

COMMANDS = (
    ("solve",),
    ("sweep",),
    ("toll",),
    ("toll", "--incentive"),
    ("toll", "--dt", "0.01"),
    ("toll", "--incentive", "--dt", "0.01"),  # the toll_fine op: ~10k rows, many row blocks
    ("oracle",),
)
MPRS = ("0", "0.5", "1")

# one-row sweeps; at mpr 0 and 1 a cost column is all empty cells
SWEEPS = tuple(("sweep", "--mpr", mpr) for mpr in MPRS)

MINIMAL = """\
[corridor]
trip_km = 20.0
capacity_r = 8000.0
nu = 4.1

[demand]
n_total = 3000.0
t_star = 8.0
alpha = 8.4
beta = 4.2
gamma = 16.8
mpr = 0.0

[energy.gv]
c1 = 4.0
c2 = 16.8
"""

# label, scenario file text, CEQ_* variables, the exit code ``solve`` must give
SCENARIO_CASES = (
    ("minimal mpr-0 file", MINIMAL, {}, 0),
    ("missing section", MINIMAL.split("[energy.gv]")[0], {}, 2),
    ("missing key", MINIMAL.replace("gamma = 16.8\n", ""), {}, 2),
    ("missing section and key",
     MINIMAL.split("[energy.gv]")[0].replace("trip_km = 20.0\n", ""), {}, 2),
    ("partial [energy.ev]", MINIMAL + "\n[energy.ev]\nc1 = 0.5\n", {}, 2),
    ("no [energy.ev] at mpr 0.5", MINIMAL.replace("mpr = 0.0", "mpr = 0.5"), {}, 2),
    ("non-integer max_days", MINIMAL + "\n[numerics]\nmax_days = 10.5\n", {}, 2),
    ("bad CEQ_* override", MINIMAL, {"CEQ_DEMAND_WIBBLE": "1", "CEQ_CORRIDOR_NU": "fast"}, 2),
)


def run_case(checkout: Path, workdir: Path, command: tuple[str, ...], variables: dict,
             scenario: str | None = None) -> dict:
    """Run one case in ``workdir``, on ``scenario`` text if given, else the bundled file;
    its exit code, stdout, stderr and output files."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("CEQ_")}
    env.update(PYTHONPATH=str(checkout / "src"), **variables)
    if scenario is not None:
        (workdir / "scenario.toml").write_text(scenario, encoding="utf-8")
        command += ("--scenario", "scenario.toml")
    out = Path("out")
    done = subprocess.run(
        [sys.executable, "-m", "commuteq.cli", *command, "--out", str(out)],
        cwd=workdir, env=env, capture_output=True,
    )
    files = {
        str(path.relative_to(workdir / out)): path.read_bytes()
        for path in sorted((workdir / out).rglob("*")) if path.is_file()
    }
    return {"exit code": done.returncode, "stdout": done.stdout, "stderr": done.stderr,
            "files": files}


def _first_line_apart(a: bytes, b: bytes) -> int:
    lines_a, lines_b = a.splitlines(), b.splitlines()
    for number, (x, y) in enumerate(zip(lines_a, lines_b), start=1):
        if x != y:
            return number
    return min(len(lines_a), len(lines_b)) + 1


def differences(parent: dict, change: dict) -> list[str]:
    """Human-readable differences between two runs of one case."""
    found = []
    if parent["exit code"] != change["exit code"]:
        found.append(f"exit code {parent['exit code']} != {change['exit code']}")
    for stream in ("stdout", "stderr"):
        if parent[stream] != change[stream]:
            found.append(f"{stream} differs from line "
                         f"{_first_line_apart(parent[stream], change[stream])}")
    for name in sorted(set(parent["files"]) | set(change["files"])):
        if name not in change["files"]:
            found.append(f"{name} only in the parent")
        elif name not in parent["files"]:
            found.append(f"{name} only in the change")
        elif parent["files"][name] != change["files"][name]:
            found.append(f"{name} differs from line "
                         f"{_first_line_apart(parent['files'][name], change['files'][name])}")
    return found


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: compare_outputs.py PARENT_DIR CHANGE_DIR", file=sys.stderr)
        return 2
    checkouts = [Path(arg).resolve() for arg in argv]
    cases = [(f"{' '.join(command)} @ mpr {mpr}", command, {"CEQ_DEMAND_MPR": mpr}, None, None)
             for command in COMMANDS for mpr in MPRS]
    cases += [(" ".join(command), command, {}, None, None) for command in SWEEPS]
    cases += [(f"scenario file: {label}", ("solve",), variables, text, expected)
              for label, text, variables, expected in SCENARIO_CASES]
    n_files = n_bad = 0
    for label, command, variables, text, expected in cases:
        with tempfile.TemporaryDirectory() as parent_dir, \
                tempfile.TemporaryDirectory() as change_dir:
            parent, change = (
                run_case(checkout, Path(workdir), command, variables, text)
                for checkout, workdir in zip(checkouts, (parent_dir, change_dir))
            )
        found = differences(parent, change)
        if expected is not None:
            found += [f"{side} exit code {run['exit code']}, expected {expected}"
                      for side, run in (("parent", parent), ("change", change))
                      if run["exit code"] != expected]
        n_files += len(parent["files"])
        n_bad += bool(found)
        for line in found:
            print(f"DIFF {label} (exit {parent['exit code']}): {line}")
    print(f"{len(cases)} cases, {n_files} parent output files: "
          + (f"{n_bad} cases differ" if n_bad else "all identical, stdout, stderr and exit codes included"))
    return 1 if n_bad else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
