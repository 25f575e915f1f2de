"""Workload inputs, the timed operations, and their correctness checks.

Every call into hypflow goes through a module attribute (``hflow.run``,
``stability.sphere_fit``, ...) so that the tracer's wrappers, when
installed, see it.

Inputs come from the seed only. Each seed draws a shape of a fixed
difficulty class, because a free draw moves the work itself by more than
any bound worth gating on: with ``random_hconvex_shape`` the base radius
sets the CFL step and the drawn degree-2 amplitude sets how long the
relaxation to tolerance takes, and on six seeds the step count of one
flow ranged from 7.3k to 9.9k. So the flows fix the base radius and the
L2 size of each harmonic degree, and the seed draws the direction within
the degree-2 harmonics and the mix of degrees 3 and 4; the step count
then stays within 3% across seeds. The sweep runs two fixed families and
the seed scales each family's amplitudes by a factor within 2% of 1,
well inside the 8% that separates their nearest listed amplitude from an
h-convexity limit, so no member changes between admitted and rejected.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

import hypflow
from hypflow import flow as hflow
from hypflow import hypersurface, stability, svgplot
from hypflow.grids import AxisymGrid, FullSphereGrid

#: every typed error hypflow raises for a numerical problem
NUMERICAL_ERRORS = (
    hypflow.StepFailureError,
    hypflow.DiscretizationError,
    hypflow.ConeViolationError,
    hypflow.ShapeRejectionError,
    hypflow.InsufficientDataError,
)

# flow parameters and the pinned acceptance tolerances of the test suite
T_MAX = 20.0
TOL_STOP = 1e-6
C_CFL = 0.2
DRIFT_TOL = 1e-4       # relative W_m drift along the run
MONO_TOL = 1e-10       # relative W_{m+1} increase per row
CHEB_TOL = 1e-4        # radial gap of the final sphere fit
PROFILE_TOL = 1e-3     # W_m of the fitted ball against the initial W_m

# flow input class
R0 = 1.0
DEG2_L2 = 0.05         # L2 size of the degree-2 part (the J=96 fixture's eps)
HIGH_L2 = 0.015        # L2 size of the degree-3 and -4 part
MARGIN_FLOOR = 0.05    # required h-convexity margin of the start shape

# sweep: families, amplitudes and the pinned exponent-fit tolerances
SWEEP_J = 96
SWEEP_M = 1
SWEEP_WORKERS = 2
SWEEP_FAMILIES = ((2, 0), (3, 1))
SWEEP_EPS = (0.0, 0.0125, 0.025, 0.0375, 0.05, 0.075, 0.1, 0.2)
SWEEP_JITTER = 0.02
SLOPE_SHARP = 0.5
SLOPE_TOL = 0.05
R2_MIN = 0.99


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _harmonic(grid, l: int, order: int, coef: float) -> np.ndarray:
    """coef * Y_l^order on the grid, through the public shape generator."""
    graph = hypersurface.generate_shape(grid, "perturbed_sphere", R0, eps=coef, l=l,
                                        order=order, hconvex_floor=-np.inf)
    return graph.r - R0


def _orders(grid, l: int) -> range:
    # the same (l, order) set random_hconvex_shape mixes
    return range(0, min(l, 2) + 1) if grid.backend == "full" else range(1)


def seeded_shape(grid, seed: int):
    """h-convex start shape: base radius R0, a degree-2 part of L2 size
    DEG2_L2 in a seeded direction with a positive zonal coefficient, and a
    seeded degree-3/4 part of L2 size HIGH_L2, shrunk by 0.7 until the
    h-convexity margin clears MARGIN_FLOOR."""
    rng = np.random.default_rng(seed)
    u2 = rng.standard_normal(len(_orders(grid, 2)))
    # a positive zonal coefficient: on the axisymmetric grid the sign alone
    # (prolate or oblate) moved the step count by 12%
    u2 *= np.sign(u2[0]) * DEG2_L2 / np.linalg.norm(u2)
    high = [(l, o) for l in (3, 4) for o in _orders(grid, l)]
    uh = rng.standard_normal(len(high))
    uh *= HIGH_L2 / np.linalg.norm(uh)
    base = R0 + sum(_harmonic(grid, 2, o, c) for o, c in zip(_orders(grid, 2), u2))
    bump = sum(_harmonic(grid, l, o, c) for (l, o), c in zip(high, uh))
    for _ in range(20):
        graph = hypersurface.RadialGraph(grid, base + bump)
        if hypersurface.hconvexity_margin(hypersurface.geometry_fields(graph)) >= MARGIN_FLOOR:
            return graph
        bump = 0.7 * bump
    raise hypflow.ShapeRejectionError("seeded shape never cleared the h-convexity margin")


@dataclass(frozen=True)
class Workload:
    kind: str                        # "flow" or "sweep"
    grids: tuple                     # flow: (make_grid, m) per relaxation


FULL24 = (lambda: FullSphereGrid(24), 1)
AXISYM24 = (lambda: AxisymGrid(24, 4), 2)

WORKLOADS = {
    "relax_both24": Workload("flow", (FULL24, AXISYM24)),
    "relax_full24": Workload("flow", (FULL24,)),
    "relax_axisym_n4": Workload("flow", (AXISYM24,)),
    "sweep_full96": Workload("sweep", ()),
}


# ---------------------------------------------------------------------------
# set-up: everything before the timed solve


def setup(wl: Workload, seed: int) -> list:
    """Flows: the initial FlowState of each relaxation, which runs inradius.
    Sweep: (grid, l, order, amplitudes) per family."""
    if wl.kind == "flow":
        return [hflow.FlowState.create(seeded_shape(make_grid(), seed), m)
                for make_grid, m in wl.grids]
    grid = FullSphereGrid(SWEEP_J)
    rng = np.random.default_rng(seed)
    scales = 1.0 + SWEEP_JITTER * rng.uniform(-1.0, 1.0, len(SWEEP_FAMILIES))
    return [(grid, l, order, tuple(float(e * s) for e in SWEEP_EPS))
            for (l, order), s in zip(SWEEP_FAMILIES, scales)]


# ---------------------------------------------------------------------------
# flows


def solve_flows(states) -> list:
    return [hflow.run(state, t_max=T_MAX, tol_stop=TOL_STOP, c_cfl=C_CFL)
            for state in states]


def flow_artifacts(trace, m: int, span) -> tuple[str, str]:
    """sha256 of flow_trace.csv and flow.svg, built as the CLI builds them."""
    with span("cli.csv", "cli"):
        csv = "\n".join(trace.csv_lines()) + "\n"
    svg = svgplot.flow_svg(trace, m)
    return sha256(csv), sha256(svg)


def check_flow(state0, final, trace) -> list:
    """Acceptance checks of one relaxation; returns the failed ones."""
    n, m = state0.graph.n, state0.m
    bad = []
    if trace.stop_reason != "traceless_small":
        bad.append(f"stop_reason {trace.stop_reason}")
    w = trace.column(f"W{m}")
    drift = float(np.abs(w - w[0]).max() / abs(w[0]))
    if not drift <= DRIFT_TOL:
        bad.append(f"W{m} drift {drift:.3e}")
    w1 = trace.column(f"W{m + 1}")
    if not np.all(np.diff(w1) <= MONO_TOL * np.abs(w1[:-1])):
        bad.append(f"W{m + 1} increased")
    if trace.flag_count:
        bad.append(f"{trace.flag_count} monitor flags")
    fit = stability.sphere_fit(final.graph)
    if not fit.cheb <= CHEB_TOL:
        bad.append(f"sphere_fit cheb {fit.cheb:.3e}")
    w_ball = hypersurface.ball_profile(n, m, fit.radius)
    w0 = float(state0.W_init[m])
    if not abs(w_ball - w0) / abs(w0) <= PROFILE_TOL:
        bad.append(f"ball W{m} off by {abs(w_ball - w0) / abs(w0):.3e}")
    return bad


# ---------------------------------------------------------------------------
# sweep


def _family(grid, l: int, order: int):
    def family(eps: float):
        return hypersurface.generate_shape(grid, "perturbed_sphere", R0, eps=eps,
                                           l=l, order=order)
    return family


def solve_sweep(families) -> list:
    """One stability sweep plus exponent fit per family; a fit error is kept
    as the family's outcome so the other families still run."""
    out = []
    for grid, l, order, eps in families:
        res = stability.stability_sweep(_family(grid, l, order), SWEEP_M, eps,
                                        n=grid.n, workers=SWEEP_WORKERS)
        try:
            fit: object = stability.exponent_fit(res.records)
        except NUMERICAL_ERRORS as exc:
            fit = exc
        out.append((res, fit))
    return out


def check_family(family, res, fit) -> list:
    grid, l, order, _ = family
    bad = []
    if isinstance(fit, Exception):
        return [f"l={l} order={order}: {type(fit).__name__}: {fit}"]
    for eps, reason in res.rejections:
        # a member may only be missing because its shape is not h-convex
        try:
            _family(grid, l, order)(eps)
        except hypflow.ShapeRejectionError:
            continue
        bad.append(f"l={l} order={order} eps={eps:g}: {reason}")
    slope, _, r2 = fit
    if not (abs(slope - SLOPE_SHARP) <= SLOPE_TOL and r2 > R2_MIN):
        bad.append(f"l={l} order={order}: slope {slope:.4f} r2 {r2:.6f}")
    return bad


def sweep_csv(results) -> str:
    return "".join("\n".join(res.csv_lines()) + "\n" for res, _ in results)
