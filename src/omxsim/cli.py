"""Command-line interface: protocol runs, sweeps, threshold solving, and
execution of `.omx` circuit files.

Exit codes: 0 success, 1 usage error (including a circuit file that cannot
be read or an output file that cannot be written), 2 simulation error, 3
parse or semantic error in a circuit file.  Identical invocations produce
byte-identical output; the only nondeterminism is behind an explicit
--sample/--seed pair, and the seed pins it.  `main(argv)` may be called
repeatedly in one process: it builds its parser on the first call, reading
`constants.DEFAULT_THERMAL_CUTOFF` then, and each call only parses.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import constants, dsl, measurement, plans, protocols
from .elements import ScatterModel
from .fock import OmxError
from .protocols import InputQubit, ThermalConfig


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise _UsageError(message)


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _parse_complex(text: str) -> complex:
    if "," in text:
        re_part, im_part = text.split(",", 1)
        return complex(float(re_part), float(im_part))
    return complex(text)


def _add_thermal_args(p: argparse.ArgumentParser):
    p.add_argument("--n-bar", type=float, default=0.0,
                   help="mean thermal magnon occupation (default 0)")
    _add_model_args(p)


def _add_model_args(p: argparse.ArgumentParser):
    cutoff = constants.DEFAULT_THERMAL_CUTOFF
    p.add_argument("--cutoff", type=int, default=cutoff,
                   help=f"thermal truncation level (default {cutoff})")
    p.add_argument("--renormalize", action=argparse.BooleanOptionalAction,
                   default=True, help="renormalize the truncated thermal weights")
    p.add_argument("--model", choices=[m.value for m in ScatterModel],
                   default="paper", help="scattering weight model")


def _add_qubit_args(p: argparse.ArgumentParser):
    p.add_argument("--alpha", type=_parse_complex, default=None,
                   help="H amplitude, as RE,IM or a complex literal")
    p.add_argument("--beta", type=_parse_complex, default=None,
                   help="V amplitude, as RE,IM or a complex literal")
    p.add_argument("--theta", type=float, default=None,
                   help="sphere polar angle (alternative to --alpha/--beta)")
    p.add_argument("--phi", type=float, default=None,
                   help="sphere azimuth (with --theta, default 0)")


def _add_sample_args(p: argparse.ArgumentParser):
    p.add_argument("--sample", type=int, default=None,
                   help="also draw this many demonstration heralds")
    p.add_argument("--seed", type=int, default=0, help="RNG seed for --sample")


def _add_output_args(p: argparse.ArgumentParser):
    p.add_argument("--output", type=Path, default=None,
                   help="write to this path instead of stdout")


def _qubit_from(args) -> InputQubit:
    amplitudes = args.alpha is not None or args.beta is not None
    if amplitudes and args.theta is not None:
        raise _UsageError("--theta cannot be combined with --alpha/--beta")
    if args.phi is not None and args.theta is None:
        raise _UsageError("--phi needs --theta")
    if amplitudes:
        if args.alpha is None or args.beta is None:
            raise _UsageError("--alpha and --beta must be given together")
        return InputQubit(args.alpha, args.beta)
    if args.theta is not None:
        return InputQubit.from_angles(args.theta, 0.0 if args.phi is None else args.phi)
    return InputQubit.from_angles(np.pi / 2, 0.0)


def _thermal_from(args) -> ThermalConfig:
    return ThermalConfig(args.n_bar, args.cutoff, args.renormalize)


def _emit(text: str, output: Path | None):
    if output is None:
        sys.stdout.write(text)
        return
    try:
        output.write_text(text)
    except OSError as exc:
        raise _UsageError(f"cannot write {output}: {exc.strerror}") from None


def _read_circuit(path: Path) -> str:
    try:
        return path.read_text()
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise _UsageError(f"cannot read {path}: not a text file") from None


def _check_sample(args):
    """Refuse --sample/--seed values that cannot be drawn, before any work."""
    if args.sample is not None and not 0 <= args.sample <= constants.MAX_SAMPLES:
        raise _UsageError(f"--sample must lie in [0, {constants.MAX_SAMPLES}]")
    if args.seed < 0:
        raise _UsageError("--seed must be >= 0")


def _report_json(report, sample: int | None, seed: int | None) -> str:
    payload = report.to_dict()
    if sample:
        outs = [(o.outcome.value, o.probability) for o in report.outcomes]
        outs.append((measurement.BellId.NO_HERALD.value, report.no_herald_probability))
        payload["sampled_heralds"] = measurement.sample_outcomes(outs, sample, seed)
    return json.dumps(payload, indent=2) + "\n"


@functools.cache
def build_parser() -> _Parser:
    parser = _Parser(prog="omxsim",
                     description="Truncated-Fock-space optomagnonic protocol simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("teleport", help="single teleportation run (JSON report)")
    _add_thermal_args(p)
    _add_qubit_args(p)
    _add_output_args(p)
    _add_sample_args(p)

    p = sub.add_parser("swap", help="entanglement swapping run (JSON report)")
    _add_thermal_args(p)
    _add_output_args(p)
    _add_sample_args(p)

    p = sub.add_parser("readout", help="teleport, then retrieve the magnon qubit")
    _add_thermal_args(p)
    _add_qubit_args(p)
    _add_output_args(p)

    p = sub.add_parser("sweep", help="fidelity vs thermal occupation (CSV/JSON)")
    p.add_argument("--protocol", choices=plans.PROTOCOLS, required=True)
    p.add_argument("--from", dest="start", type=float, required=True)
    p.add_argument("--to", dest="stop", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    _add_model_args(p)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    _add_output_args(p)

    p = sub.add_parser("threshold", help="solve closed-form fidelity = target")
    p.add_argument("--target", type=float, default=2.0 / 3.0)
    _add_output_args(p)

    p = sub.add_parser("run", help="execute a .omx circuit file")
    p.add_argument("file", type=Path)
    _add_output_args(p)

    p = sub.add_parser("validate", help="parse and check a .omx circuit file")
    p.add_argument("file", type=Path)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError:
        return 1
    try:
        return _dispatch(args)
    except _UsageError as exc:
        print(f"omxsim: error: {exc}", file=sys.stderr)
        return 1
    except (dsl.ParseError, dsl.DslSemanticError) as exc:
        print(f"omxsim: circuit error: {exc}", file=sys.stderr)
        return 3
    except OmxError as exc:
        print(f"omxsim: simulation error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.command in ("teleport", "swap"):
        _check_sample(args)
        if args.command == "teleport":
            report = protocols.teleport(_qubit_from(args), _thermal_from(args),
                                        ScatterModel(args.model))
        else:
            report = protocols.entanglement_swap(_thermal_from(args),
                                                 ScatterModel(args.model))
        _emit(_report_json(report, args.sample, args.seed), args.output)
        return 0

    if args.command == "readout":
        return _run_readout(args)

    if args.command == "sweep":
        return _run_sweep(args)

    if args.command == "threshold":
        value = protocols.genuine_threshold(args.target)
        _emit(f"target_fidelity = {_fmt(args.target)}\n"
              f"n_bar_threshold = {_fmt(value)}\n", args.output)
        return 0

    if args.command in ("run", "validate"):
        plan = dsl.compile_source(_read_circuit(args.file))
        if args.command == "run":
            report = protocols.execute_plan(plan)
            _emit(report.to_json() + "\n", args.output)
            return 0
        n_modes = 2 * len(plan.photon_decls()) + len(plan.magnon_decls())
        print(f"OK: {args.file} ({n_modes} modes, {len(plan.steps)} elements, "
              f"protocol {plan.settings.protocol})")
        return 0

    raise _UsageError(f"unknown command {args.command!r}")


def _run_readout(args) -> int:
    q = _qubit_from(args)
    report = protocols.teleport(q, _thermal_from(args), ScatterModel(args.model))
    retrieved = {}
    for bell_id, correct in ((measurement.BellId.PHI_PLUS, False),
                             (measurement.BellId.PHI_MINUS, True)):
        outcome = report.outcome(bell_id)
        result = protocols.readout(outcome, apply_correction=correct)
        retrieved[bell_id.value] = {
            "probability": float(_fmt(outcome.probability)),
            "correction_applied": correct,
            "fidelity": float(_fmt(protocols.retrieved_qubit_fidelity(result, q))),
            "qubit_sector_weight": float(_fmt(result.qubit_sector_weight)),
            "partial_readout": result.partial_readout,
        }
    payload = {
        "protocol": "readout",
        "config": report.config,
        "retrieved": retrieved,
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.output)
    return 0


class _Linspace:
    """`steps` occupations evenly spaced from `start` to `stop`, formed only
    when read: `sweep_fidelity` checks the sweep's size on its length first.
    Its ends are checked before they are spaced: `np.linspace` warns on a
    non-finite end, and on a span that overflows, which needs a negative
    end.  Either puts a value outside the grid's range, so both are refused
    with `sweep_fidelity`'s message."""

    def __init__(self, start: float, stop: float, steps: int):
        self.start, self.stop, self.steps = start, stop, steps

    def __len__(self) -> int:
        return self.steps

    def __iter__(self):
        if not (math.isfinite(self.start) and math.isfinite(self.stop) and self.start >= 0):
            raise protocols.ProtocolError("sweep grid values must be finite and >= 0")
        return iter(np.linspace(self.start, self.stop, self.steps))


# the 16 layouts of a JSON sweep row: bit k of the index marks value k as
# text already written (%s), and the other values are written with %.12g
_JSON_ROW = ('    {\n      "n_bar": %s,\n      "simulated": %s,\n'
             '      "closed_form": %s,\n      "abs_diff": %s\n    },\n')
_JSON_ROWS = tuple(_JSON_ROW % tuple("%s" if mask >> k & 1 else "%.12g" for k in range(4))
                   for mask in range(16))


def _json_rows(flat) -> str:
    """The rows of a JSON sweep from its finite values, four to a row, as
    `json.dumps` writes `float(_fmt(v))`.  That text is `_fmt`'s `%.12g`
    except for three kinds of value, and only those are parsed back and
    written by `repr`: integers below 1e12 (`%.12g` drops the ".0"), values
    from 1e12 to 1e16 (`%.12g` takes an exponent first) and subnormals
    (fewer digits name the same float).  A value that `%.12g` rounds to an
    integer lies within a relative 5e-12 of it, so the mask takes every
    value within a relative 1e-11 of an integer; the few it takes beyond
    those print the same either way."""
    v = np.fromiter(flat, float, len(flat))
    a = np.abs(v)
    text = (a < sys.float_info.min) | ((a < 1e16) & (np.abs(v - np.rint(v)) <= 1e-11 * a))
    values = list(flat)
    for i in np.flatnonzero(text).tolist():
        values[i] = repr(float(_fmt(values[i])))
    masks = text.reshape(-1, 4) @ (1, 2, 4, 8)
    return ("".join(map(_JSON_ROWS.__getitem__, masks.tolist())) % tuple(values))[:-2]


def _run_sweep(args) -> int:
    """Print a sweep's table as CSV or JSON.  Its values come from one
    `protocols.sweep_fidelity` call over a `_Linspace` grid and are written
    with one format call over all of them; JSON rows take `_json_rows`."""
    if args.steps < 1:
        raise _UsageError("--steps must be >= 1")
    if args.stop < args.start:
        raise _UsageError("--to must be >= --from")
    cfg = ThermalConfig(0.0, args.cutoff, args.renormalize)
    rows = protocols.sweep_fidelity(args.protocol, _Linspace(args.start, args.stop, args.steps),
                                    cfg, ScatterModel(args.model))
    # each value as _fmt writes it (%.12g), the whole table in one format call
    flat = tuple(itertools.chain.from_iterable(rows))
    if args.format == "json":
        config = {"thermal_cutoff": args.cutoff, "renormalize": args.renormalize,
                  "model": args.model, "from": float(_fmt(args.start)),
                  "to": float(_fmt(args.stop)), "steps": args.steps}
        head = json.dumps({"protocol": args.protocol, "config": config}, indent=2)
        text = f'{head[:-2]},\n  "rows": [\n{_json_rows(flat)}\n  ]\n}}\n'
    else:
        text = "\n".join([
            "# omxsim sweep",
            f"# protocol = {args.protocol}",
            f"# from = {_fmt(args.start)}",
            f"# to = {_fmt(args.stop)}",
            f"# steps = {args.steps}",
            f"# thermal_cutoff = {args.cutoff}",
            f"# renormalize = {str(args.renormalize).lower()}",
            f"# model = {args.model}",
            "n_bar,simulated,closed_form,abs_diff\n",
        ]) + "%.12g,%.12g,%.12g,%.12g\n" * len(rows) % flat
    _emit(text, args.output)
    return 0


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
