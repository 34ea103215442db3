"""Run-to-run spread of the end-to-end metrics over a series of seeds.

Runs the benchmark once per seed (seeds ``0..N-1``) for each named
workload, back to back, and prints for every end-to-end metric its
median, the quartile distance as a share of the median (Python's
``statistics.quantiles(values, n=4)``), and the medians of the series'
first and second halves::

    python3 perfbench/spread.py --runs 10 campaign-dense serve-mixed

The spread must stay below each metric's ``bound`` in ``BENCHMARK.json``
(``setup_s`` is exempt from the spread, not from the halves check).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    for line in completed.stderr.splitlines():
        if line.startswith(("TIME_WAIT", f"{workload} seed")):
            print(f"    {line}", flush=True)
    return json.loads(completed.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="+")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--verbose", action="store_true",
                        help="also print every run's value")
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}

    worst = 0.0
    for workload in args.workloads:
        results = []
        for seed in range(args.runs):
            result = run_once(workload, seed, benchmark["run_seconds"])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: failed {result}")
                return 1
            results.append(result)
        print(f"{workload}: {args.runs} runs")
        half = args.runs // 2
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            mid = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / mid
            first = statistics.median(values[:half])
            second = statistics.median(values[half:])
            if name != "setup_s":
                worst = max(worst, spread / bound)
            print(
                f"  {name:<14} median {mid:<14.6g} spread {spread:7.2%} "
                f"(bound {bound:.0%})  halves {first:.6g} / {second:.6g}"
            )
            if args.verbose:
                print("    " + " ".join(f"{v:.6g}" for v in values))
    print(f"worst spread / bound: {worst:.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
