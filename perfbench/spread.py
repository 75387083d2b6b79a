#!/usr/bin/env python3
"""Measures the run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload table3 --seeds 10

Runs perfbench/run.py once per seed 1..N for BENCHMARK.json's run_seconds
and prints, per end-to-end metric, the median and the spread: the distance
between the first and third quartiles (statistics.quantiles(values, n=4))
as a share of the median, next to the metric's bound. A metric whose spread
is at or above a third of its bound is marked "WIDE". Run it twice to see
whether two sets of runs of the same code agree within the bounds. Run
from the checkout root.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, default=10)
    args = ap.parse_args()

    root = Path(__file__).resolve().parent.parent
    bench = json.loads((root / "BENCHMARK.json").read_text())
    values = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in range(1, args.seeds + 1):
        proc = subprocess.run(
            [sys.executable, str(root / "perfbench" / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(bench["run_seconds"]), "--trace", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            cwd=root)
        if proc.returncode != 0:
            print(f"seed {seed}: run failed ({proc.returncode})")
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} " +
              " ".join(f"{k}={v['value']:.4g}"
                       for k, v in result["metrics"].items()), flush=True)
        for name in values:
            values[name].append(result["metrics"][name]["value"])
    for m in bench["end_to_end"]:
        v = values[m["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        flag = "WIDE" if spread >= m["bound"] / 3 else "ok"
        print(f"{m['name']:>16}: median {med:.5g} spread {spread:.4f} "
              f"bound {m['bound']} {flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
