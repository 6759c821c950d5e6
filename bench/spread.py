#!/usr/bin/env python3
"""Run the benchmark once per seed and report each metric's spread.

    python3 bench/spread.py --seeds 1-10 [--workloads betti cli] \\
        [--seconds 15] [--out FILE]

Runs ``run.py --trace 0`` sequentially (one run at a time, so runs do not
compete for the CPUs), then prints, per workload and metric, the median, the quartiles
from ``statistics.quantiles(values, n=4)`` and the spread (q3 - q1) / median
that the benchmark's bounds are judged against.  ``--out`` writes the same
figures, every run's values and the provenance of the last run as JSON; the
files under ``bench/trajectory/`` were written this way.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent


def seed_range(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--workloads", nargs="+", default=list(workloads.WORKLOADS),
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    report = {"seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            done = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"],
                capture_output=True, text=True, check=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            runs.append(result)
            print(f"{workload} seed {seed}: correct {result['correct']}, "
                  + ", ".join(f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()),
                  flush=True)
        names = runs[0]["metrics"]
        report["workloads"][workload] = {
            "all_correct": all(r["correct"] for r in runs),
            "metrics": {name: {"unit": names[name]["unit"],
                               **summarize([r["metrics"][name]["value"] for r in runs])}
                        for name in names},
        }
        for name, stats in report["workloads"][workload]["metrics"].items():
            print(f"  {workload:10s} {name:28s} median {stats['median']:.6g} "
                  f"q1 {stats['q1']:.6g} q3 {stats['q3']:.6g} "
                  f"spread {stats['spread']:.4f}", flush=True)
    last = BENCH_DIR / "runs" / f"{args.workloads[-1]}-seed{args.seeds[-1]}-trace0.json"
    with open(last, encoding="utf-8") as handle:
        report["provenance"] = json.load(handle)["provenance"]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
