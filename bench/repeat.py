"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/repeat.py --runs 10 --seconds 25 [--first-seed 1] [--trace 1]

For every workload and metric it prints the median, the first and third
quartiles (statistics.quantiles, n=4) and the spread (Q3 - Q1) / median,
plus the share of failed operations.  These are the figures recorded in
bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for workload in WORKLOADS:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                capture_output=True, text=True, cwd=HERE.parent, check=False)
            if proc.returncode:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                return 1
            results.append(json.loads(proc.stdout.splitlines()[-1]))
        shares = {f"{r['failed']}/{r['attempted']}" for r in results}
        fractions = {r["failed"] / r["attempted"] for r in results}
        print(f"{workload}: {len(results)} runs, correct {all(r['correct'] for r in results)}, "
              f"failed share {sorted(fractions)} ({', '.join(sorted(shares))})")
        for name in sorted(results[0]["metrics"]):
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            spread = (q3 - q1) / median if median else float("nan")
            print(f"  {name:42s} median {median:14.4f}  q1 {q1:14.4f}  q3 {q3:14.4f}"
                  f"  spread {spread:6.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
