"""Run the CLI in two checkouts and report every difference in what it writes.

Usage, from anywhere (standard library only):

    python3 tools/compare_outputs.py PARENT_DIR CHANGE_DIR

Each case (``solve``, ``solve --dt 0.1``, ``sweep``, ``toll``,
``toll --incentive``, ``toll --dt 0.01``, ``toll --incentive --dt 0.01``,
``oracle`` and ``oracle --dt 0.1``, each at mpr 0, 0.5 and 1 through
``CEQ_DEMAND_MPR``, then ``sweep --mpr`` 0, 0.5 and 1 and ``sweep --dt 0.1``
on the bundled file) runs as ``python -m commuteq.cli`` on the checkout's
``src``, in a fresh working directory per side and with the same relative
``--out`` path, so both sides print the same paths.  Then ``solve`` runs on
scenario files the tool writes (as ``scenario.toml`` in the working
directory): a minimal mpr-0 file with no ``s_max``, ``[numerics]`` or
``[energy.ev]``, a wide mpr-0.8 draw and the minimal file at mpr 0.5 with
the retired keys ``root_rtol = 1e-17`` and ``mixed_rtol = 1e-16``, which
must solve; broken files, a bad ``CEQ_*`` override and the minimal file
with ``--dt 1e-320``, too fine to sample, which must exit 2; and the
minimal file at mpr 0.5 with EV energy models (c1, c2) of (8, 1), (6, 20)
and (0.5, 40), whose GV-EV-GV walk fails its no-deviation check and must
exit 3.  Then the bundled file runs with one key overridden: ``n_total =
0.0`` through every command, and the GV ``c2 = 0``, a linear energy model,
through ``oracle``, which must exit 0; ``nu = 1e-6``, ``n_total = 1e300``
and ``capacity_r = 1e-300`` through every command, whose numbers leave the
float range; ``n_total = 1e150`` and ``capacity_r = 1e-150`` through every
command, a fleet whose rush is too long for ``solve`` and ``toll`` to sample
and for the oracle's start grid, while ``sweep``, which samples no grid, must
exit 0; ``nu = 1e150`` through every command, which ``solve``, ``sweep`` and
``toll`` must solve (exit 0) and whose oracle, started in range, overflows a
bin delay on its first day and must exit 2; and ``bin_minutes`` of 1e-12 and
1e-320 through ``oracle``, a start grid of more than 1,000,000 bins, which
must exit 2.  Last come 6 seeded wide draws, a Latin hypercube over
``perfbench/workloads.py`` ``WIDE_RANGES`` from
``random.Random("compare_outputs:wide")`` (built as in
``tools/oracle_eta_scan.py``) at mpr 0, 0.2, ..., 1; each runs ``solve``,
``toll --incentive --dt 0.05`` at mpr 0 and 1, and ``oracle``.  Other
``CEQ_*`` variables are dropped from the environment.  Every file under
``--out``, stdout, stderr and the exit code are compared byte for byte, and
an exit code other than a scenario case's expected one is a difference too.
One line is printed per difference: for a ``summary.txt``, one per
``key = value`` line that differs, with both values; for any other output,
the first line that differs.  The exit status is 1 if there is any, else 0.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.workloads import WIDE_RANGES  # noqa: E402

COMMANDS = (
    ("solve",),
    ("solve", "--dt", "0.1"),  # a fine-grid profile.csv; the summary does not depend on dt
    ("sweep",),
    ("toll",),
    ("toll", "--incentive"),
    ("toll", "--dt", "0.01"),
    ("toll", "--incentive", "--dt", "0.01"),  # the toll_fine op: ~10k rows, many row blocks
    ("oracle",),
    ("oracle", "--dt", "0.1"),  # the oracle samples no grid, so --dt changes no byte
)
MPRS = ("0", "0.5", "1")

# one-row sweeps, where at mpr 0 and 1 a cost column is all empty cells, and a fine-grid sweep
SWEEPS = tuple(("sweep", "--mpr", mpr) for mpr in MPRS) + (("sweep", "--dt", "0.1"),)

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

# A wide draw of the benchmark's solve workload (seed 2401, op 1437). On it,
# the energy cost c2*T*T taken as (c2*T)*T instead of c2*(T*T) changes one
# profile.csv cell: a last-bit difference that no bundled case shows.
WIDE_DRAW = """\
[corridor]
trip_km = 10.88852693259517
capacity_r = 7527.59035091865
nu = 4.674414748675243
s_max = 60.0

[demand]
n_total = 5145.293392437876
t_star = 8.0
alpha = 10.886340900440342
beta = 3.672816541956932
gamma = 16.718723314574085
mpr = 0.8

[energy.gv]
c1 = 4.711751044875757
c2 = 15.199403914667503

[energy.ev]
c1 = 0.6537444752944165
c2 = 3.683399045984123

[numerics]
dt_minutes = 1.0
bin_minutes = 1.0
eta = 0.5
gap_tol = 3e-05
max_days = 20000
root_rtol = 1e-10
mixed_rtol = 1e-08
"""

# the minimal file at mpr 0.5, open for an [energy.ev] model
MIXED = MINIMAL.replace("mpr = 0.0", "mpr = 0.5") + "\n[energy.ev]\n"

# label, scenario file text, CEQ_* variables, the exit code ``solve`` must give, and
# any flags ``solve`` takes
SCENARIO_CASES = (
    ("minimal mpr-0 file", MINIMAL, {}, 0),
    ("wide mpr-0.8 draw", WIDE_DRAW, {}, 0),
    # retired tolerances, ignored: a sub-ulp Newton step and a count check below rounding
    ("retired tolerances at mpr 0.5",
     MIXED + "c1 = 0.5\nc2 = 3.0\n\n[numerics]\nroot_rtol = 1e-17\nmixed_rtol = 1e-16\n", {}, 0),
    ("missing section", MINIMAL.split("[energy.gv]")[0], {}, 2),
    ("missing key", MINIMAL.replace("gamma = 16.8\n", ""), {}, 2),
    ("missing section and key",
     MINIMAL.split("[energy.gv]")[0].replace("trip_km = 20.0\n", ""), {}, 2),
    ("partial [energy.ev]", MINIMAL + "\n[energy.ev]\nc1 = 0.5\n", {}, 2),
    ("no [energy.ev] at mpr 0.5", MINIMAL.replace("mpr = 0.0", "mpr = 0.5"), {}, 2),
    ("non-integer max_days", MINIMAL + "\n[numerics]\nmax_days = 10.5\n", {}, 2),
    ("bad CEQ_* override", MINIMAL, {"CEQ_DEMAND_WIBBLE": "1", "CEQ_CORRIDOR_NU": "fast"}, 2),
    # a grid of about 1e323 rows, rejected before a row is built
    ("--dt 1e-320", MINIMAL, {}, 2, "--dt", "1e-320"),
    # EV models past the Scenario warning: the topology message on stderr
    *((f"EV ({c1}, {c2}) at mpr 0.5", MIXED + f"c1 = {c1}\nc2 = {c2}\n", {}, 3)
      for c1, c2 in (("8", "1"), ("6", "20"), ("0.5", "40"))),
)

# the bundled file with one key overridden, the commands run on it and the exit code each
# must give: an empty fleet, which every command solves, and a linear GV energy model, from
# which the oracle builds its start spread; then numbers past the float range and a bin
# width too fine for the oracle's start grid, which must fail as input errors
OVERRIDE_CASES = (
    ({"CEQ_DEMAND_N_TOTAL": "0.0"}, ("solve", "sweep", "toll", "oracle"), 0),
    ({"CEQ_ENERGY_GV_C2": "0"}, ("oracle",), 0),
    ({"CEQ_CORRIDOR_NU": "1e-6"}, ("solve", "sweep", "toll", "oracle"), 2),
    ({"CEQ_DEMAND_N_TOTAL": "1e300"}, ("solve", "sweep", "toll", "oracle"), 2),
    ({"CEQ_CORRIDOR_CAPACITY_R": "1e-300"}, ("solve", "sweep", "toll", "oracle"), 2),
    # a huge fleet, in range: solve, toll and the oracle's start grid fail, sweep samples no grid
    ({"CEQ_DEMAND_N_TOTAL": "1e150"}, ("solve", "toll", "oracle"), 2),
    ({"CEQ_DEMAND_N_TOTAL": "1e150"}, ("sweep",), 0),
    ({"CEQ_CORRIDOR_CAPACITY_R": "1e-150"}, ("solve", "toll", "oracle"), 2),
    ({"CEQ_CORRIDOR_CAPACITY_R": "1e-150"}, ("sweep",), 0),
    # a start in range whose first day overflows a bin delay: the oracle stops, the solves solve
    ({"CEQ_CORRIDOR_NU": "1e150"}, ("solve", "sweep", "toll"), 0),
    ({"CEQ_CORRIDOR_NU": "1e150"}, ("oracle",), 2),
    # about 1.3e14 bins, and an inf ratio; no width between 1e-9 and 1e-3 minutes, which
    # an unchecked oracle would try to allocate
    ({"CEQ_NUMERICS_BIN_MINUTES": "1e-12"}, ("oracle",), 2),
    ({"CEQ_NUMERICS_BIN_MINUTES": "1e-320"}, ("oracle",), 2),
)

# each wide draw's commands, with their CEQ_* variables
WIDE_COMMANDS = (
    (("solve",), {}),
    (("toll", "--incentive", "--dt", "0.05"), {"CEQ_DEMAND_MPR": "0"}),
    (("toll", "--incentive", "--dt", "0.05"), {"CEQ_DEMAND_MPR": "1"}),
    (("oracle",), {}),
)


def wide_draws() -> list[str]:
    """6 scenario files, each ``WIDE_RANGES`` column cut into 6 strata, at mpr k / 5."""
    n = 6
    rng = random.Random("compare_outputs:wide")
    columns = {}
    for name, (lo, hi) in WIDE_RANGES.items():
        strata = list(range(n))
        rng.shuffle(strata)
        columns[name] = [lo + (hi - lo) * (k + rng.random()) / n for k in strata]
    texts = []
    for i in range(n):
        p = {name: column[i] for name, column in columns.items()}
        texts.append(
            f"[corridor]\ntrip_km = {p['trip_km']!r}\ncapacity_r = {p['capacity_r']!r}\n"
            f"nu = {p['nu']!r}\n\n[demand]\nn_total = {p['n_total']!r}\nt_star = 8.0\n"
            f"alpha = {p['alpha']!r}\nbeta = {p['beta']!r}\ngamma = {p['gamma']!r}\n"
            f"mpr = {i / (n - 1)!r}\n\n[energy.gv]\nc1 = {p['gv_c1']!r}\nc2 = {p['gv_c2']!r}\n\n"
            f"[energy.ev]\nc1 = {p['ev_c1']!r}\nc2 = {p['ev_c2']!r}\n"
        )
    return texts


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


def _keys_apart(a: bytes, b: bytes) -> list[str]:
    """Each ``key = value`` line of two summaries that differs, as
    ``key: parent value != change value``, in the order the keys first appear."""
    parent, change = ({key: value for key, _, value in
                       (line.decode().partition(" = ") for line in text.splitlines())}
                      for text in (a, b))
    return [f"{key}: {parent.get(key, '(absent)')} != {change.get(key, '(absent)')}"
            for key in {**parent, **change} if parent.get(key) != change.get(key)]


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
            a, b = parent["files"][name], change["files"][name]
            keys = _keys_apart(a, b) if Path(name).name == "summary.txt" else []
            found += ([f"{name} {line}" for line in keys]
                      or [f"{name} differs from line {_first_line_apart(a, b)}"])
    return found


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: compare_outputs.py PARENT_DIR CHANGE_DIR", file=sys.stderr)
        return 2
    checkouts = [Path(arg).resolve() for arg in argv]
    cases = [(f"{' '.join(command)} @ mpr {mpr}", command, {"CEQ_DEMAND_MPR": mpr}, None, None)
             for command in COMMANDS for mpr in MPRS]
    cases += [(" ".join(command), command, {}, None, None) for command in SWEEPS]
    cases += [(f"scenario file: {label}", ("solve", *flags), variables, text, expected)
              for label, text, variables, expected, *flags in SCENARIO_CASES]
    cases += [(f"{command} @ {' '.join(f'{k}={v}' for k, v in variables.items())}",
               (command,), variables, None, expected)
              for variables, commands, expected in OVERRIDE_CASES for command in commands]
    cases += [(f"wide draw {k}: {' '.join(command)}"
               + "".join(f" @ mpr {mpr}" for mpr in variables.values()),
               command, variables, text, None)
              for k, text in enumerate(wide_draws()) for command, variables in WIDE_COMMANDS]
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
