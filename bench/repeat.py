"""Run the benchmark on several seeds and print each end-to-end metric's
median, quartiles and spread (interquartile distance over the median).

    python3 bench/repeat.py --workload montecarlo --seeds 1-10
    python3 bench/repeat.py --workload all --seeds 101-110

Run from the repository root. Each seed is one untraced run of
``bench/run.py`` in its own process, one after another, for the
``run_seconds`` that BENCHMARK.json states; the quartiles are those of
``statistics.quantiles(values, n=4)``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))


def declared() -> tuple[list[str], int]:
    """Workloads and run length from BENCHMARK.json. Not imported from
    run.py: importing it sets the harness's BLAS thread count, which the
    runs started here would then inherit."""
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    return [w["name"] for w in benchmark["workloads"]], benchmark["run_seconds"]


def seed_list(text: str) -> list[int]:
    """"1-10" or "3,5,8" into a list of seeds."""
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    workloads, seconds = declared()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*workloads, "all"], default="all")
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    args = parser.parse_args()
    names = workloads if args.workload == "all" else [args.workload]
    status = 0
    for name in names:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        attempted = failed = 0
        for seed in args.seeds:
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH, "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                capture_output=True, text=True, check=False,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                status = 1
                continue
            result = json.loads(lines[-1])
            attempted += result["attempted"]
            failed += result["failed"]
            if not result["correct"]:
                status = 1
                print(lines[-2] if len(lines) > 1 else lines[-1])
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
                units[metric] = entry["unit"]
            print(f"{name} seed {seed} ({time.perf_counter() - start:.1f} s): " + ", ".join(
                f"{m} {e['value']:.6g}" for m, e in result["metrics"].items()
            ), flush=True)
        print(f"{name}: {len(args.seeds)} runs, attempted {attempted} failed {failed}")
        for metric, vals in values.items():
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            spread = (q3 - q1) / median if median else float("nan")
            print(f"  {metric}: median {median:.6g} {units[metric]}, "
                  f"q1 {q1:.6g}, q3 {q3:.6g}, spread {spread:.4f}")
    return status


if __name__ == "__main__":
    sys.exit(main())
