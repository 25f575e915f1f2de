"""Span tracing of hypflow's public entry points, installed from outside.

The benchmark never edits the program. Instead it replaces each traced
function by a wrapper in every hypflow module namespace that holds it
(``geometry_fields`` is imported into ``flow``, ``stability``, ``cli`` and
others, so each of those names is rebound), and replaces traced grid
methods on the grid classes. A wrapper records one span per call: name,
the namespace the call went through, start, end, parent span and thread.
Spans stay in memory and are written out when the benchmark ends.

Self time is a span's duration minus the time its child spans cover.
Children run in the caller's thread, one after another, so the covered
time is the sum of their durations. Work that ``stability_sweep`` fans
out to its thread pool has no parent span: the pool threads start with
an empty stack.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from contextlib import contextmanager

import numpy as np

#: traced functions, by defining module
FUNCTIONS = {
    "symfunc": ("esym_all", "esym_grad", "quotient_eval"),
    "hypersurface": ("geometry_fields", "quermassintegrals", "geodesic_distances",
                     "inradius", "generate_shape"),
    "flow": ("step", "run"),
    "stability": ("sphere_fit", "deficit", "stability_sweep", "exponent_fit"),
    "svgplot": ("flow_svg",),
}

#: traced grid methods, by class
METHODS = {
    "FullSphereGrid": ("d_theta", "d_theta2", "d_phi", "d_phi2", "d_theta_phi",
                       "pole_filter"),
    "AxisymGrid": ("d_theta", "d_theta2"),
}

STENCILS = frozenset({"d_theta", "d_theta2", "d_phi", "d_phi2", "d_theta_phi"})


class Tracer:
    """In-memory span store. Each span is a tuple
    (id, parent_id or -1, name, via, start_s, end_s, thread_ident)."""

    def __init__(self):
        self.spans: list = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, via: str = "perfbench"):
        """Record one span around the body of a with-statement."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else -1
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, via, t0, t1, threading.get_ident()))

    def wrap(self, fn, name: str, via: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, via):
                return fn(*args, **kwargs)
        return traced

    @contextmanager
    def installed(self):
        """Install wrappers on every hypflow namespace for the with-body,
        then restore the original objects."""
        from hypflow import grids

        modules = {name: mod for name, mod in sys.modules.items()
                   if mod is not None and (name == "hypflow" or name.startswith("hypflow."))}
        originals = []
        for home, names in FUNCTIONS.items():
            home_mod = sys.modules[f"hypflow.{home}"]
            for fname in names:
                fn = getattr(home_mod, fname)
                for mod_name, mod in modules.items():
                    if mod.__dict__.get(fname) is fn:
                        via = mod_name.rpartition(".")[2] if "." in mod_name else "hypflow"
                        originals.append((mod, fname, fn))
                        setattr(mod, fname, self.wrap(fn, f"{home}.{fname}", via))
        for cls_name, names in METHODS.items():
            cls = getattr(grids, cls_name)
            for mname in names:
                fn = cls.__dict__[mname]
                originals.append((cls, mname, fn))
                setattr(cls, mname, self.wrap(fn, f"grids.{mname}", "grids"))
        try:
            yield self
        finally:
            for owner, attr, fn in reversed(originals):
                setattr(owner, attr, fn)

    def write_csv(self, path: str):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("id,parent,name,via,start_s,end_s,thread\n")
            for sid, parent, name, via, t0, t1, tid in sorted(self.spans):
                fh.write(f"{sid},{parent},{name},{via},{t0:.9f},{t1:.9f},{tid}\n")


def _category(name: str) -> str:
    if name.startswith("grids.") and name[6:] in STENCILS:
        return "grids.stencil"
    return name


def layer_metrics(spans: list, *, flow_steps: int, flow_halvings: int,
                  flow_t: float) -> dict:
    """Per-layer numbers from the spans of one traced operation.

    `calls` and `total_s` count only the outermost span of each layer, so a
    stencil that calls another stencil, or a layer entered recursively,
    is counted once. `self_s` sums own time over all spans of the layer.
    """
    by_id = {s[0]: s for s in spans}
    child_time: dict = {}
    for sid, parent, _, _, t0, t1, _ in spans:
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)

    def ancestors(span):
        parent = span[1]
        while parent >= 0 and parent in by_id:
            yield by_id[parent]
            parent = by_id[parent][1]

    calls: dict = {}
    total: dict = {}
    self_s: dict = {}
    durations: dict = {}
    under_run = 0
    gap_evals = 0
    for span in spans:
        sid, _, name, via, t0, t1, _ = span
        cat = _category(name)
        dur = t1 - t0
        self_s[cat] = self_s.get(cat, 0.0) + dur - child_time.get(sid, 0.0)
        anc = list(ancestors(span))
        if all(_category(a[2]) != cat for a in anc):
            calls[cat] = calls.get(cat, 0) + 1
            total[cat] = total.get(cat, 0.0) + dur
            durations.setdefault(cat, []).append(dur)
        if name == "hypersurface.geometry_fields" and any(a[2] == "flow.run" for a in anc):
            under_run += 1
        if name == "hypersurface.geodesic_distances" and via == "stability":
            gap_evals += 1

    def pct(cat, q):
        vals = durations.get(cat)
        return float(np.percentile(vals, q)) * 1e3 if vals else 0.0

    out = {}
    for cat, fields in (
        ("hypersurface.geometry_fields", ("calls", "total_s", "self_s")),
        ("symfunc.quotient_eval", ("calls", "total_s")),
        ("symfunc.esym_all", ("calls", "total_s")),
        ("symfunc.esym_grad", ("calls", "total_s")),
        ("grids.stencil", ("calls", "total_s")),
        ("grids.pole_filter", ("calls", "total_s")),
        ("flow.step", ("calls", "self_s")),
        ("hypersurface.quermassintegrals", ("calls", "total_s")),
        ("hypersurface.geodesic_distances", ("calls", "total_s")),
        ("hypersurface.inradius", ("calls", "total_s")),
        ("stability.sphere_fit", ("calls", "total_s", "self_s")),
        ("stability.deficit", ("calls", "total_s")),
    ):
        for field in fields:
            if field == "calls":
                out[f"{cat}.calls"] = calls.get(cat, 0)
            elif field == "total_s":
                out[f"{cat}.total_s"] = total.get(cat, 0.0)
            else:
                out[f"{cat}.self_s"] = self_s.get(cat, 0.0)
    out["flow.step.ms_p50"] = pct("flow.step", 50)
    out["flow.step.ms_p99"] = pct("flow.step", 99)
    out["flow.run.self_s"] = self_s.get("flow.run", 0.0)
    out["flow.rhs_evals"] = under_run
    out["flow.rhs_evals_per_t"] = under_run / flow_t if flow_t > 0.0 else 0.0
    out["flow.halvings"] = flow_halvings
    attempts = flow_steps + flow_halvings
    out["flow.accept_ratio"] = flow_steps / attempts if attempts else 0.0
    out["stability.sphere_fit.ms_p50"] = pct("stability.sphere_fit", 50)
    fits = calls.get("stability.sphere_fit", 0)
    out["stability.gap_evals_per_fit"] = gap_evals / fits if fits else 0.0
    out["svgplot.flow_svg_s"] = total.get("svgplot.flow_svg", 0.0)
    out["cli.csv_s"] = total.get("cli.csv", 0.0)
    return out
