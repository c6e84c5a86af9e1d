"""Digests of the CLI's output over a fixed grid of commands.

    PYTHONPATH=src python tests/command_grid.py > grid.txt
    PYTHONPATH=src python tests/command_grid.py --full > grid.jsonl

Each line holds the sha256 of a command's stdout, the sha256 of its stderr,
its exit code and the command.  Running it on two checkouts and diffing the
files shows every command whose output changed.  With `--full` each line is
instead one JSON object holding the command, its exit code and its whole
stdout and stderr, so that the fields that changed can be listed from the
same two runs.  The grid covers `teleport`
and `swap` at thermal cutoffs 1-3 in both scattering models, with and
without renormalized weights, at six occupations up to 1e308; 37-point JSON
sweeps and 61- and 601-point CSV sweeps of both protocols; `readout` at
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
import hashlib
import io
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


if __name__ == "__main__":
    line = full if sys.argv[1:] == ["--full"] else digest
    for argv in commands():
        sys.stdout.write(line(argv) + "\n")
