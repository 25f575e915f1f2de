"""hypflow benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; hypflow is imported from its
``src`` directory. Workloads: relax_both24 and sweep_full96, which
BENCHMARK.json gates, and the two halves of relax_both24 on their own,
relax_full24 and relax_axisym_n4 (see perfbench/README.md for why each
exists and what it should move).

With --trace 0 the last stdout line is a JSON object whose metrics are the
end-to-end numbers: wall_s and cpu_s of the timed solve (median over the
operations of the run), setup_s (median over several fresh processes) and
peak_rss_mb. With --trace 1 they are the per-layer numbers of a traced
repetition, and trace.overhead_frac. Earlier lines give the same numbers
for a reader, with fail_frac, the artifact hashes and the run environment;
the full record goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("relax_both24", "sweep_full96", "relax_full24", "relax_axisym_n4")  # workloads.py
DEFAULT_SEED = 0
HELD_OUT_SEED = 17
SETUP_PROBES = 4          # extra fresh processes that only time the set-up
CHILD_TIMEOUT_S = 170.0

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
PER_LAYER_UNITS = {"calls": "count", "total_s": "s", "self_s": "s", "ms_p50": "ms",
                   "ms_p99": "ms", "rhs_evals": "count", "rhs_evals_per_t": "count/t",
                   "halvings": "count", "accept_ratio": "ratio", "gap_evals_per_fit": "count",
                   "csv_s": "s", "flow_svg_s": "s", "overhead_frac": "ratio"}


def child_env() -> dict:
    env = dict(os.environ)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=str(ROOT / "src"))
    env.pop("HYPFLOW_THREADS", None)   # the sweep pins its worker count itself
    return env


def run_worker(args: list) -> dict:
    """Run perfbench/worker.py in a fresh interpreter; return its JSON record."""
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                          cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return ""


def environment(seed: int, versions: dict) -> dict:
    model = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor() or "unknown")
    caches = {}
    for index in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}"
        level, size = _read(f"{base}/level"), _read(f"{base}/size")
        if level in ("2", "3") and size:
            caches[f"L{level}"] = size
    return {
        "nproc": os.cpu_count(), "cpu_model": model, "l2": caches.get("L2", "unknown"),
        "l3": caches.get("L3", "unknown"), "python": platform.python_version(),
        "numpy": versions["numpy"], "scipy": versions["scipy"],
        "seed": seed, "held_out_seed": HELD_OUT_SEED, "sweep_workers": 2,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "hypflow" / "__init__.py").is_file():
        print(f"error: no hypflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    t0 = time.perf_counter()
    rec = run_worker(common + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                               "--spans", str(OUT / f"{tag}-spans.csv")])
    if Path(rec["hypflow"]).resolve() != (ROOT / "src" / "hypflow").resolve():
        print(f"error: imported hypflow from {rec['hypflow']}, not this checkout", file=sys.stderr)
        return 2
    setups = [rec["setup_s"]]
    if not args.trace:
        setups += [run_worker(common + ["--setup-only"])["setup_s"] for _ in range(SETUP_PROBES)]

    ops = rec["ops"]
    untraced = [o for o in ops if not o.get("traced")]
    attempted = sum(o["attempted"] for o in ops)
    failed = sum(o.get("failed", 0) for o in ops)
    problems = [f for o in ops for f in o.get("failures", [])] + rec["hash_mismatches"]
    correct = not problems

    if args.trace:
        layers = rec["layers"]
        metrics = {key: statistics.median(layer[key] for layer in layers) for key in layers[0]}
        metrics["trace.overhead_frac"] = statistics.median(rec["overhead_frac"])
        units = {key: PER_LAYER_UNITS[key.rpartition(".")[2]] for key in metrics}
    else:
        metrics = {
            "wall_s": statistics.median(o["wall_s"] for o in untraced),
            "cpu_s": statistics.median(o["cpu_s"] for o in untraced),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": rec["peak_rss_mb"],
        }
        units = dict(END_TO_END)

    env = environment(args.seed, rec["versions"])
    hashes = {k: sorted({o[k] for o in ops if k in o}) for k in ("csv_sha256", "svg_sha256")}
    full = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "environment": env, "setup_samples_s": setups,
            "metrics": metrics, "attempted": attempted, "failed": failed,
            "problems": problems, "hashes": hashes, "worker": rec,
            "elapsed_s": time.perf_counter() - t0}
    with open(OUT / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(full, fh, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"operations {len(ops)}")
    print("environment " + "  ".join(f"{k}={v}" for k, v in env.items()))
    for key, value in metrics.items():
        print(f"{key} = {value:.6g} {units[key]}")
    print(f"fail_frac = {failed / attempted:.6g} ({failed} failed / {attempted} attempted)")
    for key, values in hashes.items():
        if values:
            print(f"{key} = {' '.join(values)}")
    for problem in problems:
        print(f"problem: {problem}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
