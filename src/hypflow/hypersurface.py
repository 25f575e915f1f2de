"""Radial-graph hypersurfaces in hyperbolic (and model Euclidean) space.

A closed star-shaped hypersurface M in H^{n+1} is stored as a radial
graph r over S^n on one of the two grid backends. With warping factor
lam(r) (sinh r for hyperbolic space, s for the flat ball model) the
induced metric, support function and Weingarten map of the graph are

    g_ij = r_i r_j + lam^2 sigma_ij,        v^2 = 1 + |grad r|^2 / lam^2,
    u = lam / v,
    h_ij = (-r_;ij + lam lam' sigma_ij + (2 lam'/lam) r_i r_j) / v,

with r_;ij the covariant Hessian on the round sphere. Everything below
is straightforward evaluation of these formulas with 4th-order stencils,
plus the integral geometry built on them: quermassintegrals via the
curvature-integral recursion, geodesic-ball profiles, and the inball.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import cosh, factorial, hypot, pi, sinh, sqrt
from typing import Callable, NamedTuple, Optional

import numpy as np
from scipy.optimize import minimize, minimize_scalar
from scipy.special import eval_legendre, lpmv

from .grids import AxisymGrid, FullSphereGrid, sphere_area, theta_weights
from .symfunc import esym_all

__all__ = [
    "Warp",
    "HYPERBOLIC",
    "EUCLIDEAN",
    "RadialGraph",
    "GeometryFields",
    "DiscretizationError",
    "ShapeRejectionError",
    "InradiusResult",
    "geometry_fields",
    "integrate",
    "quermassintegrals",
    "ball_profile",
    "ball_profile_inverse",
    "generate_shape",
    "ShapeKind",
    "SHAPE_KINDS",
    "random_hconvex_shape",
    "geodesic_distances",
    "distance_range",
    "search_center",
    "inradius",
    "hconvexity_margin",
    "traceless_measures",
    "sinh_power_integral",
    "HCONVEX_TOL",
]

HCONVEX_TOL = 1e-8    # allowed dip of min kappa below 1, by rounding or per flow step


class DiscretizationError(RuntimeError):
    """Geometry evaluation produced a degenerate or non-finite field."""


class ShapeRejectionError(ValueError):
    """Requested shape violates a generator precondition (e.g. not h-convex)."""

    def __init__(self, message: str, margin: float | None = None):
        super().__init__(message)
        self.margin = margin


@dataclass(frozen=True)
class Warp:
    """Warped-product factor of the ambient metric dr^2 + lam(r)^2 dsigma^2."""

    name: str
    lam: Callable[[np.ndarray], np.ndarray]
    lam_prime: Callable[[np.ndarray], np.ndarray]


HYPERBOLIC = Warp("hyperbolic", np.sinh, np.cosh)
EUCLIDEAN = Warp("euclidean", lambda s: np.asarray(s, dtype=float), lambda s: np.ones_like(np.asarray(s, dtype=float)))


@dataclass(frozen=True)
class RadialGraph:
    """Positive radial sample vector over one of the angular grids."""

    grid: FullSphereGrid | AxisymGrid
    r: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.r, dtype=float)
        if arr.shape != self.grid.node_shape():
            raise ValueError(f"radial values have shape {arr.shape}, grid wants {self.grid.node_shape()}")
        if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
            raise ValueError("radial values must be finite and positive")
        object.__setattr__(self, "r", arr)

    @property
    def n(self) -> int:
        return self.grid.n

    @property
    def backend(self) -> str:
        return self.grid.backend

    def with_values(self, r: np.ndarray) -> "RadialGraph":
        return RadialGraph(self.grid, r)


@dataclass
class GeometryFields:
    """Pointwise geometry of a radial graph; axis layout follows the grid."""

    graph: RadialGraph
    warp: Warp
    r: np.ndarray
    lam: np.ndarray
    lamp: np.ndarray
    v: np.ndarray
    u: np.ndarray
    kappa: np.ndarray          # (..., n); axisym order is (radial, angular, ...)
    E: np.ndarray              # (..., n+1) normalized symmetric functions
    area_density: np.ndarray   # v * lam^n against the round measure
    Atr2: np.ndarray           # |A - (H/n) g|^2, clamped at 0
    H: np.ndarray
    rt: np.ndarray
    rtt: np.ndarray
    rp: Optional[np.ndarray] = None
    rtp: Optional[np.ndarray] = None
    rpp: Optional[np.ndarray] = None
    g_tt: Optional[np.ndarray] = None
    g_tp: Optional[np.ndarray] = None
    g_pp: Optional[np.ndarray] = None
    S_tt: Optional[np.ndarray] = None
    S_tp: Optional[np.ndarray] = None
    S_pt: Optional[np.ndarray] = None
    S_pp: Optional[np.ndarray] = None

    @property
    def n(self) -> int:
        return self.graph.n


def geometry_fields(graph: RadialGraph, warp: Warp = HYPERBOLIC) -> GeometryFields:
    """Evaluate first and second fundamental form data at every node."""
    grid, r = graph.grid, graph.r
    # an overflow leaves inf or nan behind, which the checks here report
    with np.errstate(over="ignore", invalid="ignore"):
        lam = warp.lam(r)
        lamp = warp.lam_prime(r)
        if not (np.isfinite(lam).all() and np.isfinite(lamp).all()):
            raise DiscretizationError(f"non-finite warp factor at radius {r.max():.17g}")
        if grid.backend == "full":
            fields = _geometry_full(graph, grid, r, lam, lamp, warp)
        else:
            fields = _geometry_axisym(graph, grid, r, lam, lamp, warp)
    if not np.isfinite(fields.kappa).all():
        bad = np.argwhere(~np.isfinite(fields.kappa))
        raise DiscretizationError(f"non-finite curvature at node index {bad[0].tolist()}")
    if not np.isfinite(fields.area_density).all():
        bad = np.argwhere(~np.isfinite(fields.area_density))
        raise DiscretizationError(f"non-finite area density at node index {bad[0].tolist()}")
    # lam^n underflows to 0 for a tiny radius at large n; a zero measure is no surface
    if fields.area_density.min() <= 0.0:
        bad = np.argwhere(fields.area_density <= 0.0)
        raise DiscretizationError(f"nonpositive area density at node index {bad[0].tolist()}")
    return fields


def _geometry_full(graph, grid: FullSphereGrid, r, lam, lamp, warp) -> GeometryFields:
    rt, rtt = grid.d_theta_pair(r)
    rp, rpp = grid.d_phi_pair(r)
    rtp = grid.d_phi(rt)  # = grid.d_theta_phi(r), reusing rt
    sin_t, cos_t, cot_t = grid.sin_t, grid.cos_t, grid.cot_t

    cov_tt = rtt
    cov_tp = rtp - cot_t * rp
    cov_pp = rpp + sin_t * cos_t * rt

    rt2 = rt * rt
    lam2 = lam * lam
    lam_lamp = lam * lamp
    inv_lam2 = 1.0 / lam2
    grad2 = rt2 + (rp / sin_t) ** 2
    v = np.sqrt(1.0 + grad2 * inv_lam2)
    u = lam / v

    g_tt = rt2 + lam2
    g_tp = rt * rp
    g_pp = rp * rp + (lam * sin_t) ** 2
    detg = g_tt * g_pp - g_tp * g_tp
    if np.any(detg <= 0.0):
        bad = np.argwhere(detg <= 0.0)
        raise DiscretizationError(f"induced metric degenerate at node index {bad[0].tolist()}")

    two_lp = 2.0 * lamp / lam
    # two_lp * rt * rt stays as written: reusing rt2 would reassociate it
    h_tt = (-cov_tt + lam_lamp + two_lp * rt * rt) / v
    h_tp = (-cov_tp + two_lp * rt * rp) / v
    h_pp = (-cov_pp + lam_lamp * sin_t ** 2 + two_lp * rp * rp) / v

    i_tt = g_pp / detg
    i_pp = g_tt / detg
    i_tp = -g_tp / detg
    S_tt = i_tt * h_tt + i_tp * h_tp
    S_tp = i_tt * h_tp + i_tp * h_pp
    S_pt = i_tp * h_tt + i_pp * h_tp
    S_pp = i_tp * h_tp + i_pp * h_pp

    tr = S_tt + S_pp
    # (tr^2 - 4 det) in cancellation-free form; exact umbilic input stays umbilic
    disc = np.maximum((S_tt - S_pp) ** 2 + 4.0 * S_tp * S_pt, 0.0)
    root = np.sqrt(disc)
    kappa = np.stack([(tr - root) / 2.0, (tr + root) / 2.0], axis=-1)

    E = esym_all(kappa)
    H = 2.0 * E[..., 1]
    Atr2 = disc / 2.0  # |A - (H/2)g|^2 = (kappa_1 - kappa_2)^2 / 2
    area_density = v * lam ** 2

    return GeometryFields(
        graph=graph, warp=warp, r=r, lam=lam, lamp=lamp, v=v, u=u,
        kappa=kappa, E=E, area_density=area_density, Atr2=Atr2, H=H,
        rt=rt, rtt=rtt, rp=rp, rtp=rtp, rpp=rpp,
        g_tt=g_tt, g_tp=g_tp, g_pp=g_pp,
        S_tt=S_tt, S_tp=S_tp, S_pt=S_pt, S_pp=S_pp,
    )


def _geometry_axisym(graph, grid: AxisymGrid, r, lam, lamp, warp) -> GeometryFields:
    n = grid.n
    rt, rtt = grid.d_theta_pair(r)

    v = np.sqrt(1.0 + (rt / lam) ** 2)
    u = lam / v
    g_tt = rt * rt + lam * lam

    # coordinate directions are principal: one radial and n-1 equal angular curvatures
    k_rad = (-rtt + lam * lamp + 2.0 * (lamp / lam) * rt * rt) / (v * g_tt)
    k_ang = (lam * lamp - grid.cot_t * rt) / (v * lam * lam)

    kappa = np.concatenate([k_rad[:, None], np.repeat(k_ang[:, None], n - 1, axis=1)], axis=1)
    E = esym_all(kappa)
    H = n * E[..., 1]
    # |A|^2 - H^2/n via the curvature split, free of large-term cancellation
    Atr2 = (n - 1) / n * (k_rad - k_ang) ** 2
    area_density = v * lam ** n

    return GeometryFields(
        graph=graph, warp=warp, r=r, lam=lam, lamp=lamp, v=v, u=u,
        kappa=kappa, E=E, area_density=area_density, Atr2=Atr2, H=H,
        rt=rt, rtt=rtt, g_tt=g_tt,
    )


def integrate(fields: GeometryFields, values) -> float:
    """Integral over M of a node scalar against the induced area measure."""
    values = np.asarray(values, dtype=float)
    if values.shape != fields.area_density.shape:
        raise ValueError("integrand shape does not match the grid")
    return fields.graph.grid.integrate_sigma(values * fields.area_density)


def sinh_power_integral(n: int, r: np.ndarray) -> np.ndarray:
    """integral_0^r sinh^n(s) ds via the standard reduction formula."""
    r = np.asarray(r, dtype=float)
    if n == 0:
        return r.copy()
    prev2 = r.copy()               # I_0
    prev = np.cosh(r) - 1.0        # I_1
    if n == 1:
        return prev
    sh, ch = np.sinh(r), np.cosh(r)
    for k in range(2, n + 1):
        cur = sh ** (k - 1) * ch / k - (k - 1) / k * prev2
        prev2, prev = prev, cur
    return prev


def quermassintegrals(graph: RadialGraph, fields: GeometryFields | None = None) -> np.ndarray:
    """W_0..W_n of the enclosed domain, via the curvature-integral recursion

        W_0 = |Omega|,  W_1 = |M|/(n+1),
        W_{k+1} = (1/(n+1)) int E_k dmu - k/(n+2-k) W_{k-1}.

    Raises DiscretizationError if any W_k is not finite (e.g. sinh^n
    overflowing on a large sphere), rather than returning it.
    """
    if fields is None:
        fields = geometry_fields(graph)
    if fields.warp.name != "hyperbolic":
        raise ValueError("quermassintegrals are defined for the hyperbolic warp")
    n = graph.n
    W = np.zeros(n + 1)
    W[0] = graph.grid.integrate_sigma(sinh_power_integral(n, graph.r))
    int_E = [integrate(fields, fields.E[..., k]) for k in range(n)]
    W[1] = int_E[0] / (n + 1)
    for k in range(1, n):
        W[k + 1] = int_E[k] / (n + 1) - k / (n + 2 - k) * W[k - 1]
    if not np.all(np.isfinite(W)):
        k = int(np.argmin(np.isfinite(W)))
        raise DiscretizationError(f"non-finite quermassintegral W_{k} = {W[k]}")
    return W


def ball_profile(n: int, m: int, r: float) -> float:
    """W_m of the geodesic ball of radius r in H^{n+1}."""
    if r <= 0.0:
        raise ValueError("ball radius must be positive")
    if not 0 <= m <= n:
        raise ValueError(f"order m={m} out of range [0, {n}]")
    omega = sphere_area(n)
    area = omega * np.sinh(r) ** n
    coth = np.cosh(r) / np.sinh(r)
    W = np.zeros(n + 1)
    W[0] = omega * float(sinh_power_integral(n, np.asarray(r)))
    if n >= 1:
        W[1] = area / (n + 1)
    for k in range(1, n):
        W[k + 1] = coth ** k * area / (n + 1) - k / (n + 2 - k) * W[k - 1]
    return float(W[m])


def _ball_profile_slope(n: int, m: int, r: float) -> float:
    # dW_m(B_r)/dr for unit normal speed
    omega = sphere_area(n)
    coth = np.cosh(r) / np.sinh(r)
    return (n + 1 - m) / (n + 1) * coth ** m * omega * np.sinh(r) ** n


def ball_profile_inverse(n: int, m: int, w: float) -> float:
    """Radius of the geodesic ball with W_m = w; bisection bracket, Newton polish."""
    if w <= 0.0:
        raise ValueError("profile value must be positive (W_m -> 0 as r -> 0)")
    lo, hi = 1e-9, 1.0
    while ball_profile(n, m, hi) < w:
        lo, hi = hi, hi * 2.0
        if hi > 500.0:
            raise ValueError("profile value out of representable range")
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if ball_profile(n, m, mid) < w:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-3 * max(1.0, hi):
            break
    r = 0.5 * (lo + hi)
    slack = 1e-9 * max(1.0, hi)  # root may sit on a bracket endpoint
    for _ in range(100):
        g = ball_profile(n, m, r) - w
        if g < 0.0:
            lo = max(lo, min(r, hi))
        else:
            hi = min(hi, max(r, lo))
        step = g / _ball_profile_slope(n, m, r)
        r_new = r - step
        if abs(step) <= 1e-12 * max(1.0, abs(r)):
            return float(min(max(r_new, lo), hi))
        if not lo - slack <= r_new <= hi + slack:
            r_new = 0.5 * (lo + hi)
        r = r_new
    return float(min(max(r, lo), hi))


# ---------------------------------------------------------------------------
# shape generation


def _harmonic(grid, l: int, order: int) -> np.ndarray:
    """Unit-L^2(S^n) harmonic of degree l: P_l(cos theta) on the axisymmetric
    grid, the real spherical harmonic of the given order on the full grid; at
    order 0 the two agree exactly for n = 2, so the backends cross-check."""
    if grid.backend == "axisym":
        Jq = 2 * l + 2
        wq = theta_weights(Jq, grid.n - 1) * sphere_area(grid.n - 1)
        tq = (np.arange(Jq) + 0.5) * pi / Jq
        norm2 = float(np.sum(eval_legendre(l, np.cos(tq)) ** 2 * wq))
        return eval_legendre(l, grid.cos_t) / np.sqrt(norm2)
    if not 0 <= order <= l:
        raise ValueError("harmonic order must lie in [0, l]")
    if order == 0:
        coef = np.sqrt((2 * l + 1) / (4.0 * pi))
        ang = np.ones(2 * grid.J)
    else:
        coef = np.sqrt(2.0) * np.sqrt(
            (2 * l + 1) * factorial(l - order) / (4.0 * pi * factorial(l + order))
        )
        ang = np.cos(order * grid.phi)
    return coef * lpmv(order, l, grid.cos_t) * ang[None, :]


def _offset_sphere(grid, r0: float, a: float) -> RadialGraph:
    """The geodesic sphere of radius r0 whose center sits at distance a along
    the axis; its distance-from-origin profile by safeguarded Newton on the
    hyperbolic law of cosines cosh(r0) = cosh(a)cosh(p) - sinh(a)sinh(p)cos(theta)."""
    if a < 0.0:
        raise ValueError("offset needs a >= 0")
    # with p <= r0 + a, no Newton term exceeds cosh(a + p) <= cosh(r0 + 2a)
    with np.errstate(over="ignore"):
        if not np.isfinite(np.cosh(r0 + 2.0 * a)):
            raise DiscretizationError(f"offset sphere overflows: cosh({r0 + 2.0 * a:.17g}) "
                                      "is not finite")
    ca, sa = np.cosh(a), np.sinh(a)
    ct = np.cos(grid.theta)
    target = np.cosh(r0)
    lo = np.full_like(ct, r0 - a)
    hi = np.full_like(ct, r0 + a)
    p = r0 + a * ct  # first-order profile, already close
    for _ in range(100):
        g = ca * np.cosh(p) - sa * np.sinh(p) * ct - target
        gp = ca * np.sinh(p) - sa * np.cosh(p) * ct
        step = g / gp
        p_new = p - step
        outside = (p_new < lo) | (p_new > hi)
        p_new = np.where(outside, 0.5 * (lo + hi), p_new)
        grew = ca * np.cosh(p_new) - sa * np.sinh(p_new) * ct - target
        lo = np.where(grew < 0.0, p_new, lo)
        hi = np.where(grew >= 0.0, p_new, hi)
        converged = np.max(np.abs(p_new - p)) <= 1e-13 * max(1.0, r0 + a)
        p = p_new
        if converged:
            break
    return RadialGraph(grid, np.repeat(p[:, None], 2 * grid.J, axis=1)
                       if grid.backend == "full" else p)


def _perturbed_sphere(grid, r0: float, eps: float, l: int, order: int) -> RadialGraph:
    if l < 2:
        raise ValueError("perturbation mode l must be >= 2 (l <= 1 moves the center)")
    r = r0 + eps * _harmonic(grid, l, order)
    if np.any(r <= 0.0):
        raise ShapeRejectionError("perturbation drives the radius nonpositive")
    return RadialGraph(grid, r)


def _offset_rule(backend, r0, a) -> list:
    bad = r0 is not None and a is not None and not a < r0
    return [f"shape.a: must be < r0 ({r0:g}), got {a:g}"] if bad else []


def _harmonic_rule(backend, l, order, **keys) -> list:
    if order > l:
        return [f"shape.order: must be <= l ({l}), got {order}"]
    if order and backend == "axisym":
        return [f"shape.order: backend 'axisym' is zonal and requires order 0, got {order}"]
    return []


class ShapeKind(NamedTuple):
    """One shape kind; the config reader passes its rule None for a refused key."""

    build: Callable[..., RadialGraph]   # (grid, r0, **keys) -> RadialGraph
    keys: dict                          # key -> default, in config order; None: required
    amplitude: Optional[str]            # the key a stability sweep sets per member
    rule: Callable[..., list]           # (backend, r0=, **keys) -> messages
    hconvex: bool                       # reject a graph below the h-convexity floor


#: every shape kind by name; a new kind is one row
SHAPE_KINDS = {
    "sphere": ShapeKind(lambda grid, r0: RadialGraph(grid, np.full(grid.node_shape(), float(r0))),
                        {}, None, lambda backend, **keys: [], False),
    "offset_sphere": ShapeKind(_offset_sphere, {"a": None}, None, _offset_rule, True),
    "perturbed_sphere": ShapeKind(_perturbed_sphere, {"eps": None, "l": 2, "order": 0},
                                  "eps", _harmonic_rule, True),
}


def generate_shape(grid, kind: str, r0: float, hconvex_floor: float = 1.0,
                   **params) -> RadialGraph:
    """A shape of a kind in SHAPE_KINDS from r0 and the kind's keys, an omitted
    key taking its default; ValueError with the rule's messages. A kind with
    `hconvex` set is rejected if a principal curvature on the grid drops below
    hconvex_floor by more than HCONVEX_TOL: on an offset sphere, unresolved."""
    if r0 <= 0.0:
        raise ValueError("r0 must be positive")
    if kind not in SHAPE_KINDS:
        raise ValueError(f"unknown shape kind {kind!r}")
    shape = SHAPE_KINDS[kind]
    params = {**{key: v for key, v in shape.keys.items() if v is not None}, **params}
    errors = shape.rule(grid.backend, r0=r0, **params)
    if errors:
        raise ValueError("\n".join(errors))
    graph = shape.build(grid, r0, **params)
    # a round shape sits on the floor up to rounding
    margin = hconvexity_margin(geometry_fields(graph)) if shape.hconvex else np.inf
    if margin < hconvex_floor - 1.0 - HCONVEX_TOL:
        raise ShapeRejectionError(f"{kind.replace('_', ' ')} not h-convex: "
                                  f"min kappa = {1.0 + margin:.6f}", margin=margin)
    return graph


def random_hconvex_shape(grid, rng: np.random.Generator) -> RadialGraph:
    """Random smooth h-convex graph: harmonic mix over 2 <= l <= 4, amplitude
    shrunk geometrically until the curvature margin clears 0.15."""
    margin_target = 0.15
    # keep the base sphere itself comfortably inside the margin (coth r0 - 1 >= target)
    r0_cap = 0.95 * np.arctanh(1.0 / (1.0 + margin_target + 0.05))
    r0 = min(float(rng.uniform(0.7, 1.5)), float(r0_cap))
    bump = np.zeros(grid.node_shape())
    for l in range(2, 5):
        for order in range(min(l, 2) + 1) if grid.backend == "full" else (0,):
            bump += rng.standard_normal() * _harmonic(grid, l, order)
    amp = 0.1 * r0
    scale = amp / max(1e-30, float(np.max(np.abs(bump))))
    for _ in range(60):
        r = r0 + scale * bump
        if np.all(r > 0.05):
            graph = RadialGraph(grid, r)
            if hconvexity_margin(geometry_fields(graph)) >= margin_target:
                return graph
        scale *= 0.7
    return RadialGraph(grid, np.full(grid.node_shape(), r0))


# ---------------------------------------------------------------------------
# distances, inball, convexity reporting


def _node_matrix(grid, r: np.ndarray) -> np.ndarray:
    """Hyperboloid-model rows [cosh r - 1, -sinh r * xhat] of the nodes, column-major;
    xhat is the node's unit vector on the full grid (N x 4) and cos theta on the
    axisym grid (N x 2). cosh r - 1 is formed as 2 sinh^2(r/2), so cosh d - 1 keeps
    its digits where cosh d rounds to 1."""
    xhat = np.reshape(grid.xyz if grid.backend == "full" else grid.cos_t, (r.size, -1))
    A = np.empty((r.size, 1 + xhat.shape[1]), order="F")
    A[:, 0] = 2.0 * np.sinh(0.5 * r.ravel()) ** 2
    A[:, 1:] = -np.sinh(r.reshape(-1, 1)) * xhat
    return A


def _center_point(center) -> tuple[np.ndarray, float]:
    """(C, cosh rho - 1), C = (cosh rho, sinh rho / rho * w) the hyperboloid point of
    the center exp_0(w), rho = |w|: cosh d(c, x) - 1 = A @ C + cosh rho - 1."""
    w = np.atleast_1d(np.asarray(center, dtype=float))
    rho = sqrt(float(w @ w))
    C = np.empty(1 + w.size)
    C[0] = cosh(rho)
    C[1:] = w * (sinh(rho) / rho) if rho > 0.0 else w
    return C, 2.0 * sinh(0.5 * rho) ** 2


def _arc(cosh_minus_one: np.ndarray) -> np.ndarray:
    """d = 2 asinh(sqrt((cosh d - 1)/2)); a rounding below 0 reads 0."""
    return 2.0 * np.arcsinh(np.sqrt(0.5 * np.maximum(cosh_minus_one, 0.0)))


def geodesic_distances(grid, r: np.ndarray, center) -> np.ndarray:
    """Hyperbolic distance from an interior point to every node of the graph.
    Axisym centers are signed positions on the axis, full-grid centers vectors in
    the exponential chart at the origin; a center search uses distance_range."""
    C, s = _center_point(center)
    return _arc(_node_matrix(grid, r) @ C + s).reshape(r.shape)


def distance_range(grid, r: np.ndarray) -> Callable[[object], tuple[float, float]]:
    """Evaluator c -> (min_x d(c, x), max_x d(c, x)) over the nodes of one graph,
    equal bit for bit to the min and max of geodesic_distances(grid, r, c): one
    matrix-vector product per center, then the shift by cosh rho - 1 and the map
    to d, both monotone also in rounding, on the two extremes only."""
    A = _node_matrix(grid, r)

    def extremes(center) -> tuple[float, float]:
        C, s = _center_point(center)
        y = A @ C
        lo, hi = _arc(np.array([y.min(), y.max()]) + s)
        return float(lo), float(hi)

    return extremes


@dataclass
class InradiusResult:
    rho: float
    center: object            # float (axisym) or ndarray shape (3,) (full)
    converged: bool

    def center_norm(self) -> float:
        return float(np.linalg.norm(np.atleast_1d(np.asarray(self.center, dtype=float))))


def search_center(graph: RadialGraph, objective: Callable[[object], float], starts):
    """Center of lowest objective value; returns (center, value, converged).

    Each start is scored as it stands, then searched from: on the axisym
    grid by one bounded scalar search over the axis segment [-max r, max r],
    on the full grid by Nelder-Mead from every start. The lowest value wins
    and a tie goes to the earlier candidate, the starts in the order given
    first; converged is true when any search reported success. A center
    farther than max r from the origin lies outside the star-shaped body
    and scores +inf.
    """
    span = float(graph.r.max())

    def bounded(center):
        return objective(center) if hypot(*np.ravel(center)) <= span else np.inf

    candidates = [(start, bounded(start)) for start in starts]
    if graph.backend == "axisym":
        results = [minimize_scalar(bounded, bounds=(-span, span), method="bounded",
                                   options={"xatol": 1e-11})]
    else:
        results = [minimize(bounded, start, method="Nelder-Mead",
                            options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 4000})
                   for start in starts]
    candidates += [(res.x, res.fun) for res in results]
    center, value = min(candidates, key=lambda cand: cand[1])
    return center, float(value), any(bool(res.success) for res in results)


def inradius(graph: RadialGraph) -> InradiusResult:
    """Largest rho so some center keeps every boundary node at distance >= rho.

    Max-min search through search_center, from the origin and, on the full
    grid, a center-of-mass proxy; the objective is nonsmooth, so the full
    grid uses a simplex search. Trial centers are scored through
    distance_range, one matrix-vector product each.
    """
    grid, r = graph.grid, graph.r
    extremes = distance_range(grid, r)

    def neg_min_distance(center):
        return -extremes(center)[0]

    if grid.backend == "axisym":
        center, value, ok = search_center(graph, neg_min_distance, [0.0])
        return InradiusResult(-value, float(center), ok)
    com = np.tensordot(grid.sigma_weights * r, grid.xyz, axes=([0, 1], [0, 1]))
    com_norm = np.linalg.norm(com)
    starts = [np.zeros(3)]
    if com_norm > 1e-12:
        starts.append(com / com_norm * min(0.3 * float(r.min()), com_norm))
    center, value, ok = search_center(graph, neg_min_distance, starts)
    return InradiusResult(-value, center, ok)


def hconvexity_margin(fields: GeometryFields) -> float:
    """min over nodes and directions of (kappa_i - 1); >= 0 means h-convex."""
    return float(fields.kappa.min() - 1.0)


def traceless_measures(fields: GeometryFields) -> tuple[float, float]:
    """(L^2 norm, sup norm) of the traceless second fundamental form."""
    l2 = float(np.sqrt(max(integrate(fields, fields.Atr2), 0.0)))
    sup = float(np.sqrt(fields.Atr2.max()))
    return l2, sup
