"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/suite.py [--workloads W ...] [--seeds N ...] [--seconds S] [--trace 0|1]

Runs perfbench/run.py once per workload and seed, one after another, and
prints for every metric of every workload the median, the quartiles and the
spread (interquartile distance over median) over the runs, the sample
count, and fail_frac with its counts. The full table goes to
perfbench/out/suite-trace<0|1>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from run import OUT, WORKLOADS  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", default=list(WORKLOADS), choices=WORKLOADS)
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(10)))
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    table = {}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=HERE.parent, capture_output=True, text=True, timeout=200)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                print(f"{workload} seed {seed}: exit {proc.returncode}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                             if args.trace == 0), flush=True)
        if not runs:
            continue
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        summary = {"runs": len(runs), "correct": all(r["correct"] for r in runs),
                   "attempted": attempted, "failed": failed, "metrics": {}}
        for key, first in runs[0]["metrics"].items():
            values = [r["metrics"][key]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            summary["metrics"][key] = {
                "unit": first["unit"], "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med if med else 0.0, "values": values}
        table[workload] = summary

    for workload, summary in table.items():
        print(f"\n{workload}: {summary['runs']} runs, correct={summary['correct']}, "
              f"fail_frac={summary['failed'] / summary['attempted']:.3g} "
              f"({summary['failed']} failed / {summary['attempted']} attempted)")
        for key, s in summary["metrics"].items():
            print(f"  {key:40s} median {s['median']:.6g} {s['unit']:6s} "
                  f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.4f}")
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"suite-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump({"seeds": args.seeds, "seconds": args.seconds, "workloads": table}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
