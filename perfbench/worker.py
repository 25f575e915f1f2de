"""One fresh benchmark process for one workload and seed.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --setup-only

Prints one JSON record as its last stdout line. The set-up clock starts
before hypflow (and with it NumPy and SciPy) is imported and stops at the
start of the timed solve. Operations then repeat on the same input while
the next one is expected to end inside the window. With --trace 1 each
repetition is a pair: an untraced operation, then a traced one that also
redoes the set-up under the tracer, so that the pair gives the tracing
overhead and the trace's artifact hashes can be compared with the
untraced ones. Correctness checks run outside both the clock and the
trace.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from contextlib import nullcontext


def _cpu() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _no_span(name, via=""):
    return nullcontext()


def run_op(W, wl, data, span) -> tuple[dict, object]:
    """One timed operation on set-up `data`; returns its record and output.
    Each relaxation of a flow workload, and each sweep family, counts as
    one attempted operation."""
    solve = W.solve_flows if wl.kind == "flow" else W.solve_sweep
    c0, w0 = _cpu(), time.perf_counter()
    try:
        out = solve(data)
    except W.NUMERICAL_ERRORS as exc:
        out, error = None, f"{type(exc).__name__}: {exc}"
    wall, cpu = time.perf_counter() - w0, _cpu() - c0
    rec = {"wall_s": wall, "cpu_s": cpu, "attempted": len(data)}
    if out is None:
        rec.update(failed=len(data), failures=[error])
    elif wl.kind == "flow":
        hashes = [W.flow_artifacts(trace, state.m, span) for state, (_, trace) in zip(data, out)]
        rec.update(steps=[len(trace.rows) - 1 for _, trace in out],
                   halvings=[trace.rejections for _, trace in out],
                   t_end=[final.t for final, _ in out],
                   stop_reason=[trace.stop_reason for _, trace in out],
                   csv_sha256=" ".join(h[0] for h in hashes),
                   svg_sha256=" ".join(h[1] for h in hashes))
    else:
        rec.update(members=sum(len(res.records) for res, _ in out),
                   rejected_members=sum(len(res.rejections) for res, _ in out),
                   csv_sha256=W.sha256(W.sweep_csv(out)))
    return rec, out


def check_op(W, wl, data, rec: dict, out) -> dict:
    """Acceptance checks of one operation's output, recorded in `rec`."""
    if out is None:
        return rec
    if wl.kind == "flow":
        bad = [W.check_flow(state, final, trace) for state, (final, trace) in zip(data, out)]
    else:
        bad = [W.check_family(fam, res, fit) for fam, (res, fit) in zip(data, out)]
    rec.update(failed=sum(1 for b in bad if b), failures=[m for b in bad for m in b])
    return rec


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", default="", help="write the trace spans to this CSV")
    args = ap.parse_args()

    t_setup = time.perf_counter()
    import workloads as W
    wl = W.WORKLOADS[args.workload]
    data = W.setup(wl, args.seed)
    setup_s = time.perf_counter() - t_setup
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import tracer as T

    tr = T.Tracer() if args.trace else None
    ops, layers, overheads = [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rec = check_op(W, wl, data, *run_op(W, wl, data, _no_span))
        ops.append(rec)
        if tr is not None:
            first = len(tr.spans)
            with tr.installed():
                with tr.span("perfbench.setup"):
                    traced_data = W.setup(wl, args.seed)
                trec, tout = run_op(W, wl, traced_data, tr.span)
            check_op(W, wl, traced_data, trec, tout)
            trec["traced"] = True
            ops.append(trec)
            layers.append(T.layer_metrics(
                tr.spans[first:], flow_steps=sum(trec.get("steps", [])),
                flow_halvings=sum(trec.get("halvings", [])), flow_t=sum(trec.get("t_end", []))))
            overheads.append((trec["wall_s"] - rec["wall_s"]) / rec["wall_s"])
        last = time.perf_counter() - t0
        if time.perf_counter() - start + last > args.seconds:
            break

    # every repetition of a seed, traced or not, must emit the same bytes
    mismatches = []
    for key in ("csv_sha256", "svg_sha256"):
        values = sorted({o[key] for o in ops if key in o})
        if len(values) > 1:
            mismatches.append(f"{key} differs between repetitions of seed {args.seed}: {values}")
    if tr is not None and args.spans:
        tr.write_csv(args.spans)
    print(json.dumps({
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": ops,
        "hash_mismatches": mismatches,
        "layers": layers,
        "overhead_frac": overheads,
        "hypflow": os.path.dirname(sys.modules["hypflow"].__file__),
        "versions": {name: sys.modules[name].__version__ for name in ("numpy", "scipy")},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
