"""Steadiness check: every workload N times, twice over, against the bounds.

    python3 perfbench/steady.py --runs 10            # two sets of 10 per workload
    python3 perfbench/steady.py --runs 5 --workload deep_truncation

Each run is `run.py --workload W --seed S --trace 0` with its own seed,
counting up from FIRST_SEED across both sets.  Per end-to-end metric and
set it prints the median and quartiles (`statistics.quantiles(n=4)`) and
the spread (q3 - q1) / median, then the drift of the second set's median
from the first's, each against the metric's bound in BENCHMARK.json.  A
spread above its bound, a drift of either sign above its bound, or a
failed share that differs between the sets marks the benchmark as
unsteady.  A run whose `cpu_per_wall` exceeds CPU_PER_WALL_LIMIT is
flagged: single-threaded work reads 1.0, so more means a thread pool
leaked past the pinning.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CPU_PER_WALL_LIMIT = 1.2
SETS = 2
FIRST_SEED = 1


def one_run(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = [json.loads(line) for line in proc.stdout.splitlines()
             if line.startswith("{")]
    detail = next(line["detail"] for line in lines if "detail" in line)
    return lines[-1] | {"detail": detail, "seed": seed}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def summarize(spec: dict, runs: dict) -> tuple[list[str], bool]:
    """Report lines and whether every check held; `runs[workload]` is a list
    of sets, each a list of run results."""
    lines, steady = [], True
    for workload, sets in runs.items():
        shares = [sum(r["failed"] for r in s) / sum(r["attempted"] for r in s)
                  for s in sets]
        lines.append(f"== {workload}: failed share per set {shares}")
        if len(set(shares)) > 1:
            steady = False
            lines.append("   UNSTEADY: failed share differs between sets")
        for s in sets:
            for r in s:
                if not r["correct"]:
                    steady = False
                    lines.append(f"   WRONG output in seed {r['seed']}")
                cpw = r["detail"]["cpu_per_wall"]
                if cpw > CPU_PER_WALL_LIMIT:
                    lines.append(f"   LEAK seed {r['seed']}: cpu_per_wall {cpw:.2f}")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            medians, row = [], f"   {name:28s}"
            for s in sets:
                q1, med, q3 = quartiles([r["metrics"][name]["value"] for r in s])
                spread = (q3 - q1) / med
                medians.append(med)
                row += f" | med {med:11.5g} q1 {q1:11.5g} q3 {q3:11.5g} " \
                       f"spread {spread:6.3f}"
                if spread > bound:
                    steady = False
                    row += " UNSTEADY"
                elif spread > bound / 3:
                    row += " (> bound/3)"
            sign = 1.0 if m["better"] == "lower" else -1.0
            drift = sign * (medians[-1] - medians[0]) / medians[0]
            row += f" | drift {drift:+.3f} (+ is worse) of bound {bound}"
            if abs(drift) > bound:
                steady = False
                row += " UNSTEADY"
            lines.append(row)
            q1, med, q3 = quartiles([r["metrics"][name]["value"] for s in sets for r in s])
            lines.append(f"   {'':28s}   all runs: spread "
                         f"{(q3 - q1) / med:6.3f} of bound {bound}")
    return lines, steady


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--runs", type=int, default=10, help="runs per workload per set")
    p.add_argument("--workload", action="append", default=None)
    args = p.parse_args(argv)
    if args.runs < 2:
        p.error("--runs must be at least 2 to give quartiles")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    runs = {w: [[] for _ in range(SETS)] for w in workloads}
    seed = FIRST_SEED
    for k in range(SETS):
        for _ in range(args.runs):
            for w in workloads:            # interleaved, so drifts hit both alike
                t0 = time.monotonic()
                r = one_run(w, seed, seconds)
                runs[w][k].append(r)
                print(f"set {k + 1} {w} seed {seed}: {time.monotonic() - t0:.1f} s, "
                      f"rounds {r['detail']['rounds']}, cpu/wall "
                      f"{r['detail']['cpu_per_wall']:.2f}", flush=True)
            seed += 1
    lines, steady = summarize(spec, runs)
    print("\n".join(lines))
    print("STEADY" if steady else "NOT STEADY")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"steady-{int(time.time())}.json").write_text(
        json.dumps({"seconds": seconds, "runs": runs, "steady": steady}, indent=1))
    return 0 if steady else 1


if __name__ == "__main__":
    raise SystemExit(main())
