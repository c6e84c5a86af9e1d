"""Digests of the CLI's output over a fixed grid of commands.

    PYTHONPATH=src python tests/command_grid.py > grid.txt
    PYTHONPATH=src python tests/command_grid.py --full > grid.jsonl
    PYTHONPATH=src python tests/command_grid.py --diff base.jsonl head.jsonl

Each line holds the sha256 of a command's stdout, the sha256 of its stderr,
its exit code and the command.  Running it on two checkouts and diffing the
files shows every command whose output changed.  With `--full` each line is
instead one JSON object holding the command, its exit code and its whole
stdout and stderr.  `--diff` reads two such files, prints each command
whose record differs with its exit codes and the first changed lines of
each changed output, and exits 1 if any differs.  The grid covers `teleport`
and `swap` at thermal cutoffs 1-3 in both scattering models, with and
without renormalized weights, at six occupations up to 1e308; 37-point JSON
sweeps, 61- and 601-point CSV sweeps and 601-point JSON sweeps of both
protocols, and sweeps of both protocols in both formats over ranges where
`%.12g` and JSON's float text are laid out differently (from 0 to 1e300,
from 1e-20 to 1e-10, from 123456789 to 1e13, and one point); `readout` at
cutoffs 1-4 x five occupations x both models x renormalized weights on and
off x three qubit flag sets (the default qubit, `--alpha`/`--beta` and
`--theta`/`--phi`), and at cutoff 8 in both models; `run` on both shipped circuits; and a
few large cutoffs and refusals.  Among these, `readout --n-bar 0` runs at
cutoffs 9, 20, 43, 44, 60, 254 (the largest side under MAX_DIMENSION) and
255, `readout --n-bar 0.1` at cutoffs 9, 21 and 22, `swap --n-bar 0.2` at
cutoffs 40, 254 and 255, `teleport --n-bar 0.2` at cutoff 254, and a
cutoff-12 swap sweep just inside and just past MAX_SWEEP_WEIGHTS.  The
commands run in this one process through `cli.main`, so most of them reuse
a side that an earlier command built and `protocols._sides` kept: the
digests of a checkout that builds every side cold, compared with those of
one that keeps them, compare cold output against warm output.
"""

from __future__ import annotations

import contextlib
import difflib
import hashlib
import io
import itertools
import json
import sys
from pathlib import Path

from omxsim import cli
from omxsim.constants import MAX_SWEEP_WEIGHTS

CIRCUITS = Path(__file__).resolve().parent.parent / "circuits"
MODELS = ("paper", "bosonic")
RENORMALIZE = ("--renormalize", "--no-renormalize")
OCCUPATIONS = ("0", "0.05", "0.2", "0.45", "3", "1e308")
QUBITS = ([], ["--alpha", "0.6,0", "--beta", "0,0.8"],
          ["--theta", "1.1", "--phi", "0.4"])
WIDE_RANGES = (("0", "1e300", "7"), ("1e-20", "1e-10", "7"),
               ("123456789", "1e13", "7"), ("0.2", "0.2", "1"))


def commands() -> list[list[str]]:
    grid = []
    for command in ("teleport", "swap"):
        for cutoff in (1, 2, 3):
            for model in MODELS:
                for renormalize in RENORMALIZE:
                    grid += [[command, "--n-bar", n_bar, "--cutoff", str(cutoff),
                              "--model", model, renormalize] for n_bar in OCCUPATIONS]
    for protocol in ("teleport", "swap"):
        for cutoff in (1, 2, 3):
            for model in MODELS:
                grid.append(["sweep", "--protocol", protocol, "--from", "0", "--to", "3",
                             "--steps", "37", "--cutoff", str(cutoff), "--model", model,
                             "--format", "json"])
        grid.append(["sweep", "--protocol", protocol, "--from", "0", "--to", "0.5",
                     "--steps", "61", "--cutoff", "3"])
        grid.append(["sweep", "--protocol", protocol, "--from", "0", "--to", "0.5",
                     "--steps", "601"])
        grid.append(["sweep", "--protocol", protocol, "--from", "0", "--to", "0.5",
                     "--steps", "601", "--format", "json"])
        # ends where %.12g and JSON's float text differ: a bare 0 (0.0 in
        # JSON), exponents from 1e12 (repr waits until 1e16), one point
        for fmt in ("csv", "json"):
            grid += [["sweep", "--protocol", protocol, "--from", start, "--to", stop,
                      "--steps", steps, "--format", fmt]
                     for start, stop, steps in WIDE_RANGES]
    grid += [["readout", "--n-bar", "0.2", "--cutoff", "8", "--model", model]
             + QUBITS[1] for model in MODELS]
    for cutoff in (1, 2, 3, 4):
        for n_bar in OCCUPATIONS[:-1]:
            for model in MODELS:
                for renormalize in RENORMALIZE:
                    grid += [["readout", "--n-bar", n_bar, "--cutoff", str(cutoff),
                              "--model", model, renormalize] + qubit for qubit in QUBITS]
    grid += [["run", str(CIRCUITS / name)] for name in ("teleport.omx", "swap.omx")]
    grid += [["swap", "--n-bar", "0.2", "--cutoff", "6"],
             ["teleport", "--n-bar", "0.2", "--cutoff", "12"],
             ["swap", "--n-bar", "0.2", "--cutoff", "22"]]
    grid += [["swap", "--n-bar", "0.2", "--cutoff", str(cutoff)] for cutoff in (40, 254, 255)]
    grid.append(["teleport", "--n-bar", "0.2", "--cutoff", "254"])
    # a cutoff-12 swap point weights 2 x 13**2 thermal components
    steps = MAX_SWEEP_WEIGHTS // (2 * 13 ** 2)
    grid += [["sweep", "--protocol", "swap", "--from", "0", "--to", "0.3", "--steps",
              str(points), "--cutoff", "12"] for points in (steps, steps + 1)]
    grid += [["readout", "--n-bar", "0", "--cutoff", str(cutoff)]
             for cutoff in (9, 20, 43, 44, 60, 254, 255)]
    grid += [["readout", "--n-bar", "0.1", "--cutoff", str(cutoff)]
             for cutoff in (9, 21, 22)]
    return grid


def _run(argv: list[str]) -> tuple[int, str, str, list[str]]:
    """Exit code, stdout and stderr of one command, and the command with
    its circuit paths, which differ between checkouts, shown by name."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    shown = [Path(a).name if a.endswith(".omx") else a for a in argv]
    return code, out.getvalue(), err.getvalue(), shown


def digest(argv: list[str]) -> str:
    code, out, err, shown = _run(argv)
    sha = [hashlib.sha256(s.encode()).hexdigest() for s in (out, err)]
    return f"{sha[0]} {sha[1]} {code} {' '.join(shown)}"


def full(argv: list[str]) -> str:
    code, out, err, shown = _run(argv)
    return json.dumps({"argv": shown, "code": code, "stdout": out, "stderr": err})


def differences(base: list[str], head: list[str]) -> list[str]:
    """The records of two `--full` runs that differ: each command with its
    exit codes, and the first changed lines of each changed output."""
    report = []
    if len(base) != len(head):
        report.append(f"{len(base)} base records against {len(head)} head records")
    for old, new in zip(map(json.loads, base), map(json.loads, head)):
        if old == new:
            continue
        report.append(f"{' '.join(new['argv'])}: exit {old['code']} -> {new['code']}")
        for field in ("stdout", "stderr"):
            if old[field] != new[field]:
                lines = difflib.unified_diff(old[field].splitlines(),
                                             new[field].splitlines(),
                                             f"base {field}", f"head {field}", lineterm="")
                report += ["    " + line for line in itertools.islice(lines, 12)]
    return report


if __name__ == "__main__":
    if sys.argv[1:2] == ["--diff"]:
        base, head = (Path(name).read_text().splitlines() for name in sys.argv[2:4])
        report = differences(base, head)
        print("\n".join(report) if report else "no record differs")
        sys.exit(1 if report else 0)
    line = full if sys.argv[1:] == ["--full"] else digest
    for argv in commands():
        sys.stdout.write(line(argv) + "\n")
