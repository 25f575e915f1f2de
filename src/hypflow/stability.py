"""Stability experiment: how far a shape sits from the nearest geodesic
sphere, measured against its quermassintegral deficit.

For an h-convex domain the (m+1)-st quermassintegral exceeds the value it
would take on the geodesic ball with the same W_m; the excess ("deficit")
vanishes exactly on balls, and the distance to the best-fit geodesic sphere
is controlled by deficit^(1/(m+2)). This module computes both sides of that
relation: the deficit through the ball profile functions, the distance through
a Chebyshev radial-gap fit (which upper-bounds the Hausdorff distance to the
fitted sphere for star-shaped bodies), epsilon-sweeps over shape families, a
log-log exponent fit, and a line-by-line check of the integral identity that
links the time-accumulated flow dissipation to the initial deficit.
"""

from __future__ import annotations

import concurrent.futures
import os
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .flow import FlowState, FlowTrace
from .hypersurface import (
    RadialGraph,
    ShapeRejectionError,
    ball_profile,
    ball_profile_inverse,
)

__all__ = [
    "DeficitResult",
    "deficit",
    "SphereFit",
    "sphere_fit",
    "SweepRecord",
    "SweepResult",
    "stability_sweep",
    "InsufficientDataError",
    "exponent_fit",
    "ProofTraceReport",
    "proof_trace_check",
    "sweep_worker_count",
]

#: negative deficits larger than this (in magnitude, relative) indicate a
#: resolution problem rather than rounding and are not silently clamped
_CLAMP_REL = 1e-6


class InsufficientDataError(ValueError):
    """Too few (or degenerate) data points for a requested fit."""


@dataclass(frozen=True)
class DeficitResult:
    """Quermassintegral deficit; `value` clamps rounding-level negatives to 0,
    `raw` keeps the signed number for logging."""

    value: float
    raw: float
    W_m: float
    W_m1: float
    ball_radius: float


def deficit(graph: RadialGraph, m: int) -> DeficitResult:
    """W_{m+1}(Omega) minus its value on the ball with the same W_m."""
    n = graph.n
    if not 0 <= m <= n - 1:
        raise ValueError(f"m={m} out of range 0..{n - 1}")
    W = graph.W
    r_hat = ball_profile_inverse(n, m, float(W[m]))
    raw = float(W[m + 1] - ball_profile(n, m + 1, r_hat))
    value = raw if raw > 0.0 else 0.0
    return DeficitResult(value=value, raw=raw, W_m=float(W[m]),
                         W_m1=float(W[m + 1]), ball_radius=r_hat)


@dataclass(frozen=True)
class SphereFit:
    """Best-fit geodesic sphere: minimizes the radial gap
    (max_x d(c,x) - min_x d(c,x))/2 over centers c; radius is the midrange."""

    center: np.ndarray        # exponential-chart vector, shape grid.xyz.shape[-1:]
    radius: float
    cheb: float

    def center_norm(self) -> float:
        return float(np.linalg.norm(self.center))


def sphere_fit(graph: RadialGraph) -> SphereFit:
    """The center search of the graph's distance evaluator for the least radial
    gap (NodeDistances.search), from the origin and from the inball center."""
    center = graph.inball.center
    best, (lo, hi) = graph.extremes.search([np.zeros_like(center), center], two_sided=True)
    return SphereFit(center=np.array(best, dtype=float), radius=0.5 * (hi + lo),
                     cheb=0.5 * (hi - lo))


@dataclass(frozen=True)
class SweepRecord:
    """One stability-experiment sample; `ratio` tests the sharp exponent
    1/(m+2), `ratio3` the weaker 1/3 law, both zero by convention when the
    deficit vanishes."""

    eps: float
    deficit: float
    dist: float
    ratio: float
    ratio3: float
    minF: float
    maxF: float
    maxH: float
    rho_minus: float

    def csv_row(self) -> str:
        vals = (self.eps, self.deficit, self.dist, self.ratio, self.ratio3,
                self.minF, self.maxF, self.maxH, self.rho_minus)
        return ",".join(f"{x:.17g}" for x in vals)

    @staticmethod
    def csv_header() -> str:
        return "eps,deficit,dist,ratio_m2,ratio_3,minF,maxF,maxH,rhoMinus"


@dataclass
class SweepResult:
    records: list          # list[SweepRecord], sorted by eps
    rejections: list       # list[(eps, reason)]
    m: int
    n: int

    def max_ratio(self) -> float:
        vals = [rec.ratio for rec in self.records if rec.ratio > 0.0]
        return max(vals) if vals else 0.0

    def csv_lines(self):
        yield SweepRecord.csv_header()
        for rec in self.records:
            yield rec.csv_row()


def sweep_worker_count(n_jobs: int, configured: Optional[int] = None) -> int:
    """Pool size for sweep fan-out: the configured value, else the CPU
    count; never more workers than jobs."""
    workers = configured if configured is not None else os.cpu_count() or 1
    return max(1, min(workers, n_jobs))


def _sweep_one(family: Callable[[float], RadialGraph], m: int, eps: float):
    try:
        graph = family(eps)
    except ShapeRejectionError as exc:
        return ("rejected", eps, str(exc))
    F = FlowState.create(graph, m).F
    defres = deficit(graph, m)
    if defres.raw < -_CLAMP_REL * max(abs(defres.W_m1), 1.0):
        return ("rejected", eps, f"deficit {defres.raw:.3e} below clamp window")
    if eps == 0.0:
        dist = ratio = ratio3 = 0.0
    else:
        dist = sphere_fit(graph).cheb
        d = defres.value
        ratio = dist / d ** (1.0 / (m + 2)) if d > 0.0 else 0.0
        ratio3 = dist / d ** (1.0 / 3.0) if d > 0.0 else 0.0
    rec = SweepRecord(
        eps=eps, deficit=defres.value, dist=dist,
        ratio=ratio, ratio3=ratio3, minF=float(F.min()), maxF=float(F.max()),
        maxH=float(graph.fields.H.max()), rho_minus=graph.inball.rho,
    )
    return ("ok", eps, rec)


#: (family, m) of the sweep a worker process serves; only _init_member sets
#: it, in the worker, so the parent's copy stays None
_member: Optional[tuple] = None


def _init_member(family: Callable[[float], RadialGraph], m: int) -> None:
    global _member
    _member = (family, m)


def _run_member(eps: float):
    family, m = _member
    return _sweep_one(family, m, eps)


def stability_sweep(family: Callable[[float], RadialGraph], m: int,
                    eps_list: Sequence[float], *, n: int,
                    workers: Optional[int] = None) -> SweepResult:
    """Static sweep over perturbation amplitudes of shapes in H^{n+1};
    members run in `workers` processes (see sweep_worker_count) and results
    come back sorted by eps. The processes are forked, which needs a platform
    with `fork` such as Linux, and inherit `family` and `m`, so `family` may
    be a closure. Only eps values and member outcomes are pickled, and a
    member's error is raised here with its type and message."""
    eps_sorted = sorted(float(e) for e in eps_list)
    if not eps_sorted:
        raise ValueError("eps_list must be nonempty")
    # imported here, not at module level, to keep multiprocessing off `import hypflow`
    from multiprocessing import get_context
    with concurrent.futures.ProcessPoolExecutor(
            max_workers=sweep_worker_count(len(eps_sorted), workers),
            mp_context=get_context("fork"), initializer=_init_member,
            initargs=(family, m)) as pool:
        outcomes = list(pool.map(_run_member, eps_sorted))
    records, rejections = [], []
    for status, eps, payload in outcomes:
        if status == "ok":
            records.append(payload)
        else:
            rejections.append((eps, payload))
    return SweepResult(records=records, rejections=rejections, m=m, n=n)


def exponent_fit(records: Sequence[SweepRecord]) -> tuple[float, float, float]:
    """Least-squares slope of log(dist) against log(deficit); returns
    (slope, intercept, r_squared)."""
    pts = [(rec.deficit, rec.dist) for rec in records
           if rec.deficit > 0.0 and rec.dist > 0.0]
    if len(pts) < 3:
        raise InsufficientDataError(
            f"exponent fit needs >= 3 records with positive deficit and dist, got {len(pts)}")
    x = np.log(np.array([p[0] for p in pts]))
    y = np.log(np.array([p[1] for p in pts]))
    if np.ptp(x) < 1e-12:
        raise InsufficientDataError("degenerate fit: deficits are identical")
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - float((resid ** 2).sum()) / ss_tot if ss_tot > 0.0 else 1.0
    return float(slope), float(intercept), r2


@dataclass
class ProofTraceReport:
    """Comparison of the flow's accumulated dissipation integral with the
    initial deficit (they agree exactly in the continuum), plus the windowed
    traceless-curvature mass over t in [delta, 2*delta], delta = deficit^(1/(m+2))."""

    cum_integral: float
    target: float
    relative_residual: float
    initial_deficit: DeficitResult
    delta: float
    window_mass: float
    window_constant: float
    stop_reason: str
    converged: bool


def proof_trace_check(graph: RadialGraph, m: int, trace: FlowTrace) -> ProofTraceReport:
    """Check int_0^stop int lam'(E_m - E_{m+1}E_{m-1}/E_m) dmu dt, the last
    cumDeficitIntegral of the flow trace started at graph, against
    ((n+1)/(n-m)) * deficit of graph."""
    n = graph.n
    defres = deficit(graph, m)
    cum = float(trace.column("cumDeficitIntegral")[-1])
    target = (n + 1) / (n - m) * defres.value
    if abs(target) < 1e-12:
        residual = abs(cum - target)
    else:
        residual = abs(cum - target) / abs(target)
    converged = trace.stop_reason in ("traceless_small", "stationary")

    delta = defres.value ** (1.0 / (m + 2)) if defres.value > 0.0 else 0.0
    window_mass = 0.0
    if delta > 0.0 and len(trace.rows) > 1:
        t = trace.column("t")
        y = trace.column("AtrL2") ** 2
        lo, hi = delta, min(2.0 * delta, float(t[-1]))
        if hi > lo:
            ts = np.unique(np.concatenate([[lo], t[(t > lo) & (t < hi)], [hi]]))
            window_mass = float(np.trapezoid(np.interp(ts, t, y), ts))
    window_constant = (window_mass * delta ** (m - 1) / defres.value
                       if defres.value > 0.0 else 0.0)
    return ProofTraceReport(
        cum_integral=cum, target=target, relative_residual=residual,
        initial_deficit=defres, delta=delta, window_mass=window_mass,
        window_constant=window_constant, stop_reason=trace.stop_reason,
        converged=converged,
    )
