"""One workload in one process: set-up, timed rounds of CLI commands, checks.

Started by `run.py` with the thread pools pinned to one thread and `src/`
on the import path.  Every command goes through `omxsim.cli.main`
with stdout captured; only that call is timed, and its output is checked
against `reference` afterwards.  Prints one JSON line with the raw figures.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
CIRCUITS = ("circuits/teleport.omx", "circuits/swap.omx")

# Inputs alternate the scattering model and renormalization in this order.
COMBOS = (("paper", True), ("bosonic", False), ("paper", False), ("bosonic", True))


@dataclass(frozen=True)
class Workload:
    cutoff: int
    sweep_steps: int
    swaps: int              # swap runs per round
    short_sets: int         # sets of short commands per round (SHORT_SET each)
    round_s: float          # seconds one round takes on the reference machine
    run_circuits: bool

    def rounds(self, seconds: float) -> int:
        """Rounds in a run of about `seconds`: fixed by `seconds` alone, so
        every run does the same operations whatever the host's speed."""
        return max(1, round(seconds / self.round_s))


WORKLOADS = {
    # the paper's operating range: swap is dense propagation through a
    # 65,536-dim vector; a 601-point sweep is dominated by reweighting
    "paper": Workload(cutoff=2, sweep_steps=601, swaps=2, short_sets=1, round_s=8.0,
                      run_circuits=True),
    # 160,000-dim swap with 256 thermal components: propagation and memory
    # dominate, reweighting is minor.  A swap and a swap sweep take about
    # 14 s each, so a round has only three gaps for the short commands; more
    # of them per gap make their estimates sample several seconds of the host.
    "deep_truncation": Workload(cutoff=3, sweep_steps=61, swaps=1, short_sets=4,
                                round_s=38.0, run_circuits=False),
}

# One set of short commands: (teleports, readouts, teleport sweeps).
SHORT_SET = (24, 16, 4)
N_BAR_MAX = 0.3


@dataclass
class Op:
    """One CLI invocation and the check its output must pass."""

    kind: str                     # metric family: teleport, swap, readout, sweep_*
    argv: list[str]
    check: object                 # callable(stdout) -> None, raises CheckError
    points: int = 0               # grid points, for sweeps


def _thermal_argv(cutoff: int, model: str, renormalize: bool) -> list[str]:
    return ["--cutoff", str(cutoff), "--model", model,
            "--renormalize" if renormalize else "--no-renormalize"]


def _random_qubit(rng: random.Random) -> tuple[float, float, complex, complex]:
    """Uniform point on the Bloch sphere: (theta, phi, alpha, beta)."""
    theta = math.acos(1.0 - 2.0 * rng.random())
    phi = 2.0 * math.pi * rng.random()
    alpha = complex(math.cos(theta / 2))
    beta = complex(math.cos(phi), math.sin(phi)) * math.sin(theta / 2)
    return theta, phi, alpha, beta


def teleport_op(ref, validator, n_bar, cutoff, model, renormalize, qubit, by_angles):
    theta, phi, alpha, beta = qubit
    if by_angles:
        q_argv = ["--theta", repr(theta), "--phi", repr(phi)]
    else:
        q_argv = [f"--alpha={alpha.real!r},{alpha.imag!r}",
                  f"--beta={beta.real!r},{beta.imag!r}"]
    argv = ["teleport", "--n-bar", repr(n_bar)] + \
        _thermal_argv(cutoff, model, renormalize) + q_argv
    return Op("teleport", argv, lambda out: ref.check_report(
        out, validator, "teleport", n_bar, cutoff, model, renormalize, alpha, beta))


def readout_op(ref, n_bar, cutoff, model, renormalize, qubit):
    theta, phi, _, _ = qubit
    argv = ["readout", "--n-bar", repr(n_bar), "--theta", repr(theta), "--phi",
            repr(phi)] + _thermal_argv(cutoff, model, renormalize)
    return Op("readout", argv, lambda out: ref.check_readout(
        out, n_bar, cutoff, model, renormalize))


def swap_op(ref, validator, n_bar, cutoff, model, renormalize):
    argv = ["swap", "--n-bar", repr(n_bar)] + _thermal_argv(cutoff, model, renormalize)
    return Op("swap", argv, lambda out: ref.check_report(
        out, validator, "swap", n_bar, cutoff, model, renormalize))


def sweep_op(ref, protocol, start, stop, steps, cutoff, model, renormalize, fmt):
    argv = ["sweep", "--protocol", protocol, "--from", repr(start), "--to", repr(stop),
            "--steps", str(steps), "--format", fmt] + \
        _thermal_argv(cutoff, model, renormalize)
    return Op(f"sweep_{protocol}", argv, lambda out: ref.check_sweep(
        out, fmt, protocol, start, stop, steps, cutoff, model, renormalize),
        points=steps)


def _spread(*kinds: list[Op]) -> list[Op]:
    """Merge the lists so that each one is spread evenly over the result."""
    keyed = [((i + 0.5) / len(ops), k, op) for k, ops in enumerate(kinds)
             for i, op in enumerate(ops)]
    return [op for _, _, op in sorted(keyed, key=lambda t: t[:2])]


def round_ops(ref, validator, wl: Workload, rng: random.Random) -> list[Op]:
    """One round: the same commands every round, input values drawn from `rng`.

    The first teleport of a round runs at n_bar = 0, so its readout checks
    perfect retrieval; readouts reuse the inputs of the first teleports.
    The long commands (swaps, one swap sweep) alternate, and the short ones
    (teleports, readouts, teleport sweeps) are spread evenly over the gaps
    before, between and after them, so every metric samples the whole round
    rather than one moment of it.
    """
    c = wl.cutoff
    n_teleports, n_readouts, n_sweeps = (wl.short_sets * n for n in SHORT_SET)
    teleports, inputs = [], []
    for i in range(n_teleports):
        model, ren = COMBOS[i % len(COMBOS)]
        n_bar = 0.0 if i == 0 else rng.uniform(0.0, N_BAR_MAX)
        qubit = _random_qubit(rng)
        inputs.append((n_bar, model, ren, qubit))
        teleports.append(teleport_op(ref, validator, n_bar, c, model, ren, qubit,
                                     i % 2 == 0))
    readouts = [readout_op(ref, n_bar, c, model, ren, qubit)
                for n_bar, model, ren, qubit in inputs[:n_readouts]]
    sweeps = [sweep_op(ref, "teleport", rng.uniform(0.0, 0.05),
                       rng.uniform(0.25, N_BAR_MAX), wl.sweep_steps, c, *COMBOS[j % len(COMBOS)],
                       ("json", "csv")[j % 2])
              for j in range(n_sweeps)]
    swaps = [swap_op(ref, validator, rng.uniform(0.0, N_BAR_MAX), c, *COMBOS[j])
             for j in range(wl.swaps)]
    swap_sweep = sweep_op(ref, "swap", rng.uniform(0.0, 0.05),
                          rng.uniform(0.25, N_BAR_MAX), wl.sweep_steps, c, *COMBOS[2],
                          "json")
    long = [swaps[0], swap_sweep, *swaps[1:]]
    short = _spread(teleports, readouts, sweeps)
    ops = []
    gaps = len(long) + 1
    for j in range(gaps):
        ops += short[j * len(short) // gaps:(j + 1) * len(short) // gaps]
        ops += long[j:j + 1]
    return ops


def warmup_ops(ref, validator) -> list[Op]:
    """One small run of each command kind: loads lazy code paths, not sized
    like the workload, so set-up time tracks imports and compiling."""
    qubit = _random_qubit(random.Random(0))
    return [
        teleport_op(ref, validator, 0.1, 1, "paper", True, qubit, True),
        readout_op(ref, 0.1, 1, "bosonic", False, qubit),
        swap_op(ref, validator, 0.1, 1, "paper", True),
        sweep_op(ref, "teleport", 0.0, 0.3, 3, 1, "paper", True, "csv"),
        sweep_op(ref, "swap", 0.0, 0.3, 3, 1, "bosonic", True, "json"),
    ]


def first_touch_ops(ref, validator, cutoff: int) -> list[Op]:
    """Untimed commands at the workload's cutoff, run just before the timed
    rounds.  At n_bar = 0 only the vacuum component has weight, so this swap
    propagates one thermal component instead of all of them: it takes a
    fraction of a second, yet allocates every array size a full swap does.
    Without it the first timed swap of a run also pays for growing the heap
    (160,000 page faults at cutoff 3, against 7,500 for a later swap), a cost
    that swings with the load on the host."""
    qubit = _random_qubit(random.Random(0))
    return [
        swap_op(ref, validator, 0.0, cutoff, "paper", True),
        teleport_op(ref, validator, 0.0, cutoff, "bosonic", False, qubit, False),
        readout_op(ref, 0.0, cutoff, "paper", True, qubit),
    ]


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    wrong: list = field(default_factory=list)
    latency: dict = field(default_factory=dict)     # kind -> [seconds]
    points: dict = field(default_factory=dict)      # kind -> grid points

    def run(self, cli, op: Op, ref) -> str | None:
        """Run one command, timing only the CLI call; then check its output."""
        out, err = io.StringIO(), io.StringIO()
        self.attempted += 1
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(op.argv)
        elapsed = time.perf_counter() - t0
        if code != 0:
            self.failed += 1
            self.wrong.append(f"exit {code}: omxsim {' '.join(op.argv)}: "
                              f"{err.getvalue().strip()}")
            return None
        try:
            op.check(out.getvalue())
        except (ref.CheckError, KeyError, TypeError, ValueError) as exc:
            self.wrong.append(f"omxsim {' '.join(op.argv)}: {type(exc).__name__}: {exc}")
        self.latency.setdefault(op.kind, []).append(elapsed)
        self.points[op.kind] = self.points.get(op.kind, 0) + op.points
        return out.getvalue()


def setup(t0: float, tally: Tally):
    """Imports, compiling the shipped circuits, one warm-up per command kind.

    Returns (cli, ref, validator, setup seconds since `t0`)."""
    import reference as ref
    from omxsim import cli

    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"omxsim imported from {cli.__file__}, not from {ROOT / 'src'}")
    validator = ref.load_validator(ROOT)
    for path in CIRCUITS:
        source = (ROOT / path).read_text()
        tally.run(cli, Op("validate", ["validate", str(ROOT / path)],
                          lambda out, p=str(ROOT / path), s=source:
                          ref.check_validate(out, p, s)), ref)
    for op in warmup_ops(ref, validator):
        tally.run(cli, op, ref)
    return cli, ref, validator, time.monotonic() - t0


def circuit_ops(ref, validator, tally: Tally, cli):
    """Run each shipped circuit; its report must equal the built-in command's."""
    for path in CIRCUITS:
        source = (ROOT / path).read_text()
        s = ref.circuit_settings(source)
        protocol = s.get("protocol", "teleport")
        n_bar, cutoff = float(s.get("n_bar", "0")), int(s.get("thermal_cutoff", "2"))
        model, ren = s.get("model", "paper"), s.get("renormalize", "true") == "true"
        if protocol == "teleport":
            alpha, beta = complex(s.get("alpha", "1")), complex(s.get("beta", "0"))
            builtin = Op("circuit", ["teleport", "--n-bar", repr(n_bar),
                                     f"--alpha={alpha.real!r},{alpha.imag!r}",
                                     f"--beta={beta.real!r},{beta.imag!r}"]
                         + _thermal_argv(cutoff, model, ren),
                         lambda out: ref.check_report(out, validator, "teleport", n_bar,
                                                      cutoff, model, ren, alpha, beta))
        else:
            builtin = Op("circuit", ["swap", "--n-bar", repr(n_bar)]
                         + _thermal_argv(cutoff, model, ren),
                         lambda out: ref.check_report(out, validator, "swap", n_bar,
                                                      cutoff, model, ren))
        want = tally.run(cli, builtin, ref)
        tally.run(cli, Op("circuit", ["run", str(ROOT / path)], lambda out, w=want:
                          ref.expect_equal(f"{path} report", ref.parse_json(out),
                                           ref.parse_json(w or "null"))), ref)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="run length; sets the number of rounds (Workload.rounds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--t0", type=float, required=True,
                   help="time.monotonic() when the parent started this process")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    wl = WORKLOADS[args.workload]

    tally = Tally()
    tracer = None
    if args.trace:
        import omxsim.cli  # noqa: F401 - the hooks need the modules loaded
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    setup_start = time.perf_counter()
    cli, ref, validator, setup_s = setup(args.t0, tally)
    setup_end = time.perf_counter()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "attempted": tally.attempted,
                          "failed": tally.failed, "wrong": tally.wrong}))
        return 0
    if wl.run_circuits:
        circuit_ops(ref, validator, tally, cli)
    for op in first_touch_ops(ref, validator, wl.cutoff):
        tally.run(cli, op, ref)

    tally.latency.clear()
    tally.points.clear()
    rng = random.Random(f"{args.workload}:{args.seed}")
    rounds = wl.rounds(args.seconds)
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for _ in range(rounds):
        for op in round_ops(ref, validator, wl, rng):
            tally.run(cli, op, ref)
    wall = time.perf_counter() - wall0
    cpu_per_wall = (time.process_time() - cpu0) / wall

    lat = tally.latency

    # Means, not medians: the host's speed switches between two states, and
    # a median jumps with the slow share of the run (see README.md).
    def mean_ms(kind):
        return statistics.fmean(lat[kind]) * 1e3

    def rate(kind):
        return tally.points[kind] / sum(lat[kind])

    result = {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "wrong": tally.wrong,
        "setup_s": setup_s,
        "rounds": rounds,
        "wall_s": wall,
        "cpu_per_wall": cpu_per_wall,
        "samples": {kind: len(v) for kind, v in lat.items()},
        "median_s": {kind: statistics.median(v) for kind, v in lat.items()},
        "end_to_end": {
            "teleport_ms": mean_ms("teleport"),
            "swap_ms": mean_ms("swap"),
            "readout_ms": mean_ms("readout"),
            "sweep_teleport_points_per_s": rate("sweep_teleport"),
            "sweep_swap_points_per_s": rate("sweep_swap"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
    }
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.layer_metrics(wall0, rounds, (setup_start, setup_end))
        layers["run.cpu_per_wall"] = cpu_per_wall
        result["per_layer"] = layers
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.csv.gz"
        tracer.write(trace_path)
        result["trace_file"] = str(trace_path.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
