"""Steadiness report: run workloads repeatedly and compare spreads with bounds.

Run from the root of a checkout:

    python3 perfbench/steady.py [--workload NAME|all] [--runs 10] [--first-seed 1]

Each run uses the next seed. For every end-to-end metric it prints the median,
the quartiles and the quartile spread (q3 - q1) / median against the metric's
bound from BENCHMARK.json, plus failed_frac (failed / attempted ops) and the
wall time of one run. A spread above a third of its bound is flagged WIDE and
makes the exit code 1. With ``--runs 1`` it is a one-command report of every
end-to-end metric of every workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, float]:
    """One run's result line and its wall seconds."""
    t0 = time.perf_counter()
    res = subprocess.run([sys.executable, str(Path(__file__).with_name("run.py")),
                          "--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", "0"],
                         capture_output=True, text=True, check=True)
    return json.loads(res.stdout.strip().splitlines()[-1]), time.perf_counter() - t0


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text())
    names = ([w["name"] for w in spec["workloads"]] if args.workload == "all"
             else [args.workload])
    steady = True
    for workload in names:
        runs, walls = zip(*(run_once(workload, args.first_seed + k, spec["run_seconds"])
                            for k in range(args.runs)))
        print(f"{workload}: {args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}")
        print(f"  {'metric':<14} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med
            flag = "" if spread <= m["bound"] / 3 else "  WIDE"
            steady &= flag == ""
            print(f"  {m['name']:<14} {m['unit']:<6} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f} {m['bound']:6.3f}{flag}")
        fracs = [r["failed"] / r["attempted"] for r in runs]
        print(f"  {'failed_frac':<14} {'1':<6} {statistics.median(fracs):12.6g} "
              f"(max {max(fracs):.6g}; correct in {sum(r['correct'] for r in runs)}"
              f"/{len(runs)} runs)")
        print(f"  wall per run   s      {statistics.median(walls):12.6g} (max {max(walls):.6g})")
        steady &= all(r["correct"] for r in runs)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
