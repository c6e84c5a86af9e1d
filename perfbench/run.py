"""Benchmark entry point: runs omxsim CLI workloads and prints their metrics.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --seconds 40            # every workload, one table
    python3 perfbench/run.py --seconds 40 --trace 1  # plus per-layer table and
                                                     # tracing overhead

Each workload runs in a fresh process whose environment pins the BLAS and
OpenMP pools and omxsim's sweep pool to one thread before numpy loads (see
README.md).  Set-up time
is sampled in SETUP_SAMPLES fresh processes and reported as their median.
The last line of standard output is one JSON object: correct, attempted,
failed and metrics (end-to-end with --trace 0, per-layer with --trace 1).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"
# set-up samples: the workload process itself, and set-up-only processes
# half before it and half after, so that they span the run
SETUP_SAMPLES = 7
DEADLINE_S = 175.0
# BLAS/OpenMP pools, and omxsim's own sweep thread pool (protocols.sweep_fidelity)
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "OMX_THREADS")


class BenchError(Exception):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in PINNED:
        env[var] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_child(args: list[str], deadline: float) -> dict:
    """Run workload.py with `args`; return its JSON line."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a workload process")
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "workload.py"), "--t0", repr(t0)] + args
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"workload process exceeded {remaining:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"workload process exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()[-2000:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise BenchError(f"workload process printed no result:\n{proc.stdout[-2000:]}"
                         ) from None


def run_workload(spec: dict, workload: str, seed: int, seconds: float, trace: int,
                 deadline: float) -> dict:
    """One workload: the timed (or traced) process between set-up samples."""
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]

    def setup_only() -> list[dict]:
        return [] if trace else [run_child(base + ["--setup-only"], deadline)
                                 for _ in range(SETUP_SAMPLES // 2)]

    before = setup_only()
    main = run_child(base + ["--trace", str(trace)], deadline)
    extra = before + setup_only()
    wrong = main["wrong"] + [w for e in extra for w in e["wrong"]]
    for line in wrong[:20]:
        print(f"WRONG {workload}: {line}", file=sys.stderr)
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if trace else "end_to_end"]}
    values = dict(main["per_layer"] if trace else main["end_to_end"])
    if not trace:
        values["setup_s"] = statistics.median(
            [main["setup_s"]] + [e["setup_s"] for e in extra])
    missing = set(units) - set(values)
    if missing:
        raise BenchError(f"no value for {sorted(missing)}")
    return {
        "correct": not wrong,
        "attempted": main["attempted"] + sum(e["attempted"] for e in extra),
        "failed": main["failed"] + sum(e["failed"] for e in extra),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
        "detail": {k: main[k] for k in ("rounds", "wall_s", "cpu_per_wall", "samples",
                                         "median_s")
                   } | ({"end_to_end_traced": main["end_to_end"],
                         "trace_file": main["trace_file"]} if trace else
                        {"setup_samples_s": [main["setup_s"]]
                         + [e["setup_s"] for e in extra]}),
    }


def write_result(name: str, payload: dict):
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / name).write_text(json.dumps(payload, indent=2) + "\n")


def all_workloads(spec: dict, seed: int, seconds: float, trace: int) -> dict:
    """Every workload; with trace, also the traced run and its overhead."""
    results, lines = {}, []
    for w in spec["workloads"]:
        name = w["name"]
        deadline = time.monotonic() + DEADLINE_S
        res = run_workload(spec, name, seed, seconds, 0, deadline)
        results[name] = res
        for metric, m in res["metrics"].items():
            lines.append(f"{name:16s} {metric:32s} {m['value']:14.6g} {m['unit']}")
        if trace:
            traced = run_workload(spec, name, seed, seconds, 1,
                                  time.monotonic() + DEADLINE_S)
            results[name + ":trace"] = traced
            for metric, m in traced["metrics"].items():
                lines.append(f"{name:16s} {metric:48s} {m['value']:14.6g} {m['unit']}")
            lower = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
            for metric, value in traced["detail"]["end_to_end_traced"].items():
                base = res["metrics"][metric]["value"]
                slower = value / base if lower[metric] else base / value
                lines.append(f"{name:16s} overhead {metric:32s} traced {value:12.6g} "
                             f"untraced {base:12.6g} ({slower - 1:+.1%} worse)")
    print("\n".join(lines))
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{wl}.{metric}": m for wl, r in results.items()
                    if not wl.endswith(":trace") for metric, m in r["metrics"].items()},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", default=None,
                   help="one workload of BENCHMARK.json (default: all of them)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="measured seconds per workload (default: run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        if not (ROOT / "src" / "omxsim" / "cli.py").is_file():
            raise BenchError(f"no omxsim sources under {ROOT / 'src'}")
        spec = json.loads(SPEC.read_text())
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        if args.workload is None:
            result = all_workloads(spec, args.seed, seconds, args.trace)
        else:
            if args.workload not in {w["name"] for w in spec["workloads"]}:
                raise BenchError(f"unknown workload {args.workload!r}")
            result = run_workload(spec, args.workload, args.seed, seconds, args.trace,
                                  time.monotonic() + DEADLINE_S)
            detail = result.pop("detail")
            print(json.dumps({"detail": detail}))
            write_result(f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
                         result | {"detail": detail})
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
