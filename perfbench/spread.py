#!/usr/bin/env python3
"""Run the benchmark once per seed and summarize every metric across seeds.

    python3 perfbench/spread.py --workloads series_corpus orbit_audit --seeds 1 2 3 4 5

For each workload and metric it prints the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median. Runs are made one
after another, each in its own process and each measuring BENCHMARK.json's
``run_seconds``; the summary is printed as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
SPEC = HERE.parent / "BENCHMARK.json"


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    args = parser.parse_args(argv)
    seconds = json.loads(SPEC.read_text())["run_seconds"]
    summary = {}
    for workload in args.workloads:
        results = []
        for seed in args.seeds:
            command = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", "0"]
            child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            result = json.loads(child.stdout.splitlines()[-1])
            results.append(result)
            print(f"{workload} seed {seed}: exit {child.returncode}, correct {result['correct']}",
                  file=sys.stderr)
        summary[workload] = {
            "seeds": args.seeds,
            "correct": all(r["correct"] for r in results),
            "metrics": {
                name: summarize([r["metrics"][name]["value"] for r in results])
                for name in results[0]["metrics"]
            },
        }
    print(json.dumps(summary, indent=1))
    return 0 if all(s["correct"] for s in summary.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
