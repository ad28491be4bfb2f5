"""Run the CLI in two checkouts and report every difference in what it writes.

Usage, from anywhere (standard library only):

    python3 tools/compare_outputs.py PARENT_DIR CHANGE_DIR

Each case (``solve``, ``sweep``, ``toll``, ``toll --incentive``,
``toll --dt 0.01`` and ``oracle``, each at mpr 0, 0.5 and 1 through
``CEQ_DEMAND_MPR``) runs as ``python -m commuteq.cli`` on the checkout's
``src``, in a fresh working directory per side and with the same relative
``--out`` path, so both sides print the same paths.  Other ``CEQ_*``
variables are dropped from the environment.  Every file under ``--out``,
stdout, stderr and the exit code are compared byte for byte.  One line is
printed per difference; the exit status is 1 if there is any, else 0.
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
    ("oracle",),
)
MPRS = ("0", "0.5", "1")


def run_case(checkout: Path, workdir: Path, command: tuple[str, ...], mpr: str) -> dict:
    """Run one case in ``workdir``; its exit code, stdout, stderr and output files."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("CEQ_")}
    env.update(PYTHONPATH=str(checkout / "src"), CEQ_DEMAND_MPR=mpr)
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
    n_cases = n_files = n_bad = 0
    for command in COMMANDS:
        for mpr in MPRS:
            with tempfile.TemporaryDirectory() as parent_dir, \
                    tempfile.TemporaryDirectory() as change_dir:
                parent, change = (
                    run_case(checkout, Path(workdir), command, mpr)
                    for checkout, workdir in zip(checkouts, (parent_dir, change_dir))
                )
            found = differences(parent, change)
            n_cases += 1
            n_files += len(parent["files"])
            n_bad += bool(found)
            label = f"{' '.join(command)} @ mpr {mpr} (exit {parent['exit code']})"
            for line in found:
                print(f"DIFF {label}: {line}")
    print(f"{n_cases} cases, {n_files} parent output files: "
          + (f"{n_bad} cases differ" if n_bad else "all identical, stdout, stderr and exit codes included"))
    return 1 if n_bad else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
