"""Radial-graph hypersurfaces in hyperbolic (and model Euclidean) space.

A closed star-shaped hypersurface M in H^{n+1} is stored as a radial
graph r over S^n on one of the two grid backends. With warping factor
lam(r) (sinh r for hyperbolic space, s for the flat ball model) the
induced metric, support function and Weingarten map of the graph are

    g_ij = r_i r_j + lam^2 sigma_ij,        v^2 = 1 + |grad r|^2 / lam^2,
    u = lam / v,
    h_ij = (-r_;ij + lam lam' sigma_ij + (2 lam'/lam) r_i r_j) / v,

with r_;ij the covariant Hessian on the round sphere. Everything below
is straightforward evaluation of these formulas with spectral derivatives,
plus the integral geometry built on them: quermassintegrals via the
curvature-integral recursion, geodesic-ball profiles, and the inball.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import cosh, exp, factorial, hypot, log, pi, sinh, sqrt
from typing import Callable, NamedTuple, Optional

import numpy as np
from scipy.special import eval_gegenbauer, gammaln, lpmv

from .grids import AxisymGrid, FullSphereGrid, sphere_area
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
    "NodeDistances",
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

    lam: Callable[[np.ndarray], np.ndarray]
    lam_prime: Callable[[np.ndarray], np.ndarray]


HYPERBOLIC = Warp(np.sinh, np.cosh)
EUCLIDEAN = Warp(lambda s: np.asarray(s, dtype=float), lambda s: np.ones_like(np.asarray(s, dtype=float)))


@dataclass(frozen=True)
class RadialGraph:
    """Positive radial sample vector over one of the angular grids.

    The graph holds a read-only copy of its radii, so each derived quantity
    below is evaluated once, on first use, by the module function named in
    it, and shared by every caller: the hyperbolic geometry, the
    quermassintegrals, the inball and the node distance evaluator.
    """

    grid: FullSphereGrid | AxisymGrid
    r: np.ndarray

    def __post_init__(self):
        arr = np.array(self.r, dtype=float)
        if arr.shape != self.grid.node_shape():
            raise ValueError(f"radial values have shape {arr.shape}, grid wants {self.grid.node_shape()}")
        if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
            raise ValueError("radial values must be finite and positive")
        arr.setflags(write=False)
        object.__setattr__(self, "r", arr)

    def __reduce__(self):
        # a copy is rebuilt from its radii: the caches stay behind, and
        # unpickled radii would be writable again
        return RadialGraph, (self.grid, self.r)

    @cached_property
    def fields(self) -> "GeometryFields":
        return geometry_fields(self)

    @cached_property
    def W(self) -> np.ndarray:
        return quermassintegrals(self)

    @cached_property
    def inball(self) -> "InradiusResult":
        return inradius(self)

    @cached_property
    def extremes(self) -> "NodeDistances":
        return distance_range(self.grid, self.r)

    @property
    def n(self) -> int:
        return self.grid.n

    def with_values(self, r: np.ndarray) -> "RadialGraph":
        return RadialGraph(self.grid, r)


@dataclass
class GeometryFields:
    """Pointwise geometry of a radial graph; axis layout follows the grid."""

    grid: FullSphereGrid | AxisymGrid
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
        return self.grid.n


def geometry_fields(graph: RadialGraph, warp: Warp = HYPERBOLIC) -> GeometryFields:
    """Evaluate first and second fundamental form data at every node."""
    grid, r = graph.grid, graph.r
    # an overflow or a division by an underflowed lam leaves inf or nan
    # behind, which the checks here report
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        lam = warp.lam(r)
        lamp = warp.lam_prime(r)
        if not (np.isfinite(lam).all() and np.isfinite(lamp).all()):
            raise DiscretizationError(f"non-finite warp factor at radius {r.max():.17g}")
        grid_fields = _geometry_full if grid.backend == "full" else _geometry_axisym
        v, kappa, Atr2, own = grid_fields(grid, r, lam, lamp)
        E = esym_all(kappa)
        fields = GeometryFields(
            grid=grid, r=r, lam=lam, lamp=lamp, v=v, u=lam / v,
            kappa=kappa, E=E, area_density=v * lam ** grid.n, Atr2=Atr2,
            H=grid.n * E[..., 1], **own)
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


def _geometry_full(grid: FullSphereGrid, r, lam, lamp):
    """(v, kappa, |A|^2 - H^2/2, the remaining fields by name) on the full grid."""
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
    # |A - (H/2)g|^2 = (kappa_1 - kappa_2)^2 / 2
    return v, kappa, disc / 2.0, dict(
        rt=rt, rtt=rtt, rp=rp, rtp=rtp, rpp=rpp, g_tt=g_tt, g_tp=g_tp, g_pp=g_pp,
        S_tt=S_tt, S_tp=S_tp, S_pt=S_pt, S_pp=S_pp)


def _geometry_axisym(grid: AxisymGrid, r, lam, lamp):
    """(v, kappa, |A|^2 - H^2/n, the remaining fields by name) on the axisym grid."""
    n = grid.n
    rt, rtt = grid.d_theta_pair(r)

    v = np.sqrt(1.0 + (rt / lam) ** 2)
    g_tt = rt * rt + lam * lam

    # coordinate directions are principal: one radial and n-1 equal angular curvatures
    k_rad = (-rtt + lam * lamp + 2.0 * (lamp / lam) * rt * rt) / (v * g_tt)
    k_ang = (lam * lamp - grid.cot_t * rt) / (v * lam * lam)

    kappa = np.concatenate([k_rad[:, None], np.repeat(k_ang[:, None], n - 1, axis=1)], axis=1)
    # |A|^2 - H^2/n via the curvature split, free of large-term cancellation
    Atr2 = (n - 1) / n * (k_rad - k_ang) ** 2
    return v, kappa, Atr2, dict(rt=rt, rtt=rtt, g_tt=g_tt)


def integrate(fields: GeometryFields, values) -> float:
    """Integral over M of a node scalar against the induced area measure."""
    values = np.asarray(values, dtype=float)
    if values.shape != fields.area_density.shape:
        raise ValueError("integrand shape does not match the grid")
    return fields.grid.integrate_sigma(values * fields.area_density)


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


def _quermass_recursion(n: int, W0: float, int_E) -> np.ndarray:
    """W_0..W_n from W_0 = |Omega| and int E_k dmu for k < n:

        W_1 = (1/(n+1)) int E_0 dmu = |M|/(n+1),
        W_{k+1} = (1/(n+1)) int E_k dmu - k/(n+2-k) W_{k-1}.
    """
    W = np.zeros(n + 1)
    W[0] = W0
    W[1] = int_E[0] / (n + 1)
    for k in range(1, n):
        W[k + 1] = int_E[k] / (n + 1) - k / (n + 2 - k) * W[k - 1]
    return W


def quermassintegrals(graph: RadialGraph) -> np.ndarray:
    """W_0..W_n of the enclosed domain, via the curvature-integral recursion
    (_quermass_recursion).

    Every W_k of an h-convex body is positive, so a W_k that is not positive
    and finite (sinh^n overflowing on a large sphere, or the recursion losing
    its precision at large n) raises DiscretizationError rather than being
    returned.
    """
    n, fields = graph.n, graph.fields
    W = _quermass_recursion(n, graph.grid.integrate_sigma(sinh_power_integral(n, graph.r)),
                            [integrate(fields, fields.E[..., k]) for k in range(n)])
    ok = (W > 0.0) & (W < np.inf)
    if not ok.all():
        k = int(np.argmin(ok))
        raise DiscretizationError(f"nonpositive or non-finite quermassintegral "
                                  f"W_{k} = {W[k]:.17g}")
    return W


def ball_profile(n: int, m: int, r: float) -> float:
    """W_m of the geodesic ball of radius r in H^{n+1}, on which E_k = coth^k r."""
    if r <= 0.0:
        raise ValueError("ball radius must be positive")
    if not 0 <= m <= n:
        raise ValueError(f"order m={m} out of range [0, {n}]")
    omega = sphere_area(n)
    area = omega * np.sinh(r) ** n
    coth = np.cosh(r) / np.sinh(r)
    W0 = omega * float(sinh_power_integral(n, np.asarray(r)))
    return float(_quermass_recursion(n, W0, [coth ** k * area for k in range(n)])[m])


_UNREACHABLE = "profile value must be positive (W_m -> 0 as r -> 0)"

#: Brent's tolerances and iteration cap for the ball radius
_BRENT_XTOL, _BRENT_RTOL, _BRENT_MAXITER = 1e-300, 4.0 * np.finfo(float).eps, 100


def _brentq(f: Callable[[float], float], xa: float, xb: float) -> tuple[float, str]:
    """(root, flag) of scipy 1.17.1's brentq(f, xa, xb, xtol=_BRENT_XTOL,
    rtol=_BRENT_RTOL, maxiter=_BRENT_MAXITER, full_output=True), step for step:
    the xblk/spre/scur loop of its brentq.c, on float64 scalars so that a 0/0
    step is a silent NaN, which bisects, as in C. The flag is 'converged',
    'sign error' or 'convergence error'; ValueError if f returns NaN. See R. P.
    Brent, Algorithms for Minimization without Derivatives (1973), ch. 4."""

    def call(x):
        fx = np.float64(f(float(x)))
        if fx != fx:
            raise ValueError(f"The function value at x={float(x)} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = np.float64(xa), np.float64(xb)
    xblk = fblk = spre = scur = np.float64(0.0)
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0:
        return float(xpre), "converged"
    if fcur == 0:
        return float(xcur), "converged"
    if np.signbit(fpre) == np.signbit(fcur):
        return 0.0, "sign error"
    for _ in range(_BRENT_MAXITER):
        if fpre != 0 and fcur != 0 and np.signbit(fpre) != np.signbit(fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_BRENT_XTOL + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return float(xcur), "converged"
        short = False
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            with np.errstate(all="ignore"):
                if xpre == xblk:   # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:              # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
                bound = 3 * abs(sbis) - delta
                short = 2 * abs(stry) < (abs(spre) if abs(spre) < bound else bound)
        if short:
            spre, scur = scur, stry
        else:              # bisect
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = call(xcur)
    return float(xcur), "convergence error"


def ball_profile_inverse(n: int, m: int, w: float) -> float:
    """Radius of the geodesic ball with W_m = w: Brent's method (_brentq, equal
    bit for bit to scipy's brentq) on a bracket grown from r = 1, the upper end
    by doubling, the lower by halving."""
    if w <= 0.0:
        raise ValueError(_UNREACHABLE)

    def excess(r):
        return ball_profile(n, m, r) - w

    lo = hi = 1.0
    while excess(hi) < 0.0:
        hi *= 2.0
        if hi > 500.0:
            raise ValueError("profile value out of representable range")
    while not excess(lo) <= 0.0:
        lo *= 0.5
        if lo == 0.0:
            raise ValueError(_UNREACHABLE)
    r, flag = _brentq(excess, lo, hi)
    if flag != "converged":
        raise DiscretizationError(f"ball radius for W_{m} = {w:.17g} not found in "
                                  f"[{lo:.17g}, {hi:.17g}]: {flag}")
    return r


# ---------------------------------------------------------------------------
# shape generation


def _harmonic(grid, l: int, order: int) -> np.ndarray:
    """Unit-L^2(S^n) harmonic of degree l: the zonal Gegenbauer C_l^{(n-1)/2}(cos
    theta) on the axisymmetric grid, the real spherical harmonic of the given
    order on the full grid; at n = 2 the Gegenbauer is P_l, so at order 0 the two
    agree exactly and the backends cross-check."""
    if grid.backend == "axisym":
        n, alpha = grid.n, 0.5 * (grid.n - 1)
        # log of |S^{n-1}| pi 2^{2-n} Gamma(l+n-1) / (l! (l+alpha) Gamma(alpha)^2)
        log_norm2 = ((0.5 * n + 1.0) * log(pi) + (3 - n) * log(2.0) - gammaln(0.5 * n)
                     + gammaln(l + n - 1.0) - gammaln(l + 1.0) - log(l + alpha)
                     - 2.0 * gammaln(alpha))
        with np.errstate(over="ignore", invalid="ignore"):
            y = eval_gegenbauer(l, alpha, grid.cos_t) * np.exp(-0.5 * log_norm2)
        if not np.isfinite(y).all():
            raise DiscretizationError(f"degree-{l} zonal harmonic on S^{n} overflows")
        return y
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
    the axis. Its distance-from-origin profile p solves the hyperbolic law of
    cosines cosh(r0) = cosh(a)cosh(p) - sinh(a)sinh(p)cos(theta) in closed form,

        p = atanh(tanh(a) cos(theta)) + asinh(sqrt((sinh^2 r0 - q^2) / (1 + q^2))),

    q = sinh(a) sin(theta), with the atanh as a log1p over e^-a + sinh(a)(1 - |cos
    theta|) and the root as a product of two, so no term cancels."""
    if a < 0.0:
        raise ValueError("offset needs a >= 0")
    with np.errstate(over="ignore"):
        if not np.isfinite(np.cosh(r0 + 2.0 * a)):
            raise DiscretizationError(f"offset sphere overflows: cosh({r0 + 2.0 * a:.17g}) "
                                      "is not finite")
    sa, sr = sinh(a), sinh(r0)
    acute = np.reshape(np.minimum(grid.theta, pi - grid.theta), np.shape(grid.cos_t))
    shift = 0.5 * np.log1p(2.0 * sa * np.abs(grid.cos_t)
                           / (exp(-a) + 2.0 * sa * np.sin(0.5 * acute) ** 2))
    q = sa * grid.sin_t
    p = np.copysign(shift, grid.cos_t) + np.arcsinh(np.sqrt(sr - q) * np.sqrt(sr + q)
                                                    / np.hypot(1.0, q))
    return RadialGraph(grid, np.broadcast_to(p, grid.node_shape()))


def _perturbed_sphere(grid, r0: float, eps: float, l: int, order: int) -> RadialGraph:
    if l < 2:
        raise ValueError("perturbation mode l must be >= 2 (l <= 1 moves the center)")
    r = r0 + eps * _harmonic(grid, l, order)
    if np.any(r <= 0.0):
        raise ShapeRejectionError("perturbation drives the radius nonpositive")
    return RadialGraph(grid, r)


def _offset_rule(backend, J, r0, a) -> list:
    bad = r0 is not None and a is not None and not a < r0
    return [f"shape.a: must be < r0 ({r0:g}), got {a:g}"] if bad else []


def _harmonic_rule(backend, J, l, order, **keys) -> list:
    # the theta quadrature is exact below degree J in cos(theta), so Y_l^2 of
    # degree 2l keeps its unit L^2 norm only when 2l < J
    if J is not None and 2 * l >= J:
        return [f"shape.l: must be < J/2 ({0.5 * J:g}) for the grid to resolve it, got {l}"]
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
    rule: Callable[..., list]           # (backend, J, r0=, **keys) -> messages
    hconvex: bool                       # reject a graph below the h-convexity floor


#: every shape kind by name; a new kind is one row
SHAPE_KINDS = {
    "sphere": ShapeKind(lambda grid, r0: RadialGraph(grid, np.full(grid.node_shape(), float(r0))),
                        {}, None, lambda backend, J, **keys: [], False),
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
    errors = shape.rule(grid.backend, grid.J, r0=r0, **params)
    if errors:
        raise ValueError("\n".join(errors))
    graph = shape.build(grid, r0, **params)
    # a round shape sits on the floor up to rounding
    margin = hconvexity_margin(graph.fields) if shape.hconvex else np.inf
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
            if hconvexity_margin(graph.fields) >= margin_target:
                return graph
        scale *= 0.7
    return RadialGraph(grid, np.full(grid.node_shape(), r0))


# ---------------------------------------------------------------------------
# distances, inball, convexity reporting


def _node_matrix(grid, r: np.ndarray) -> np.ndarray:
    """Hyperboloid-model rows [cosh r - 1, -sinh r * xhat] of the nodes, column-major;
    xhat is grid.xyz, the node's direction in the center chart: its unit vector on
    the full grid (N x 4), cos theta on the axisym grid (N x 2). cosh r - 1 is formed
    as 2 sinh^2(r/2), so cosh d - 1 keeps its digits where cosh d rounds to 1."""
    xhat = np.reshape(grid.xyz, (r.size, -1))
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
    Centers are vectors in the exponential chart at the origin, of length 3 on
    the full grid and 1 (along the axis) on the axisym grid; a center search
    uses distance_range."""
    C, s = _center_point(center)
    return _arc(_node_matrix(grid, r) @ C + s).reshape(r.shape)


def distance_range(grid, r: np.ndarray) -> "NodeDistances":
    """Evaluator c -> (min_x d(c, x), max_x d(c, x)) over the nodes of one graph,
    equal bit for bit to the min and max of geodesic_distances(grid, r, c), with
    the center search of the inball and the best-fit sphere (NodeDistances.search)."""
    return NodeDistances(_node_matrix(grid, r), float(r.max()))


def _chart(p: np.ndarray) -> np.ndarray:
    """Exponential-chart vector of the center with hyperboloid coordinates
    (sqrt(1 + |p|^2), p): w = asinh|p| p/|p|."""
    norm = sqrt(float(p @ p))
    return p * (np.arcsinh(norm) / norm) if norm > 0.0 else p.copy()


#: first half-width of the box on the polish's linearized step, in hyperboloid
#: coordinates, and the least
_POLISH_BOX, _POLISH_MIN_BOX = 1e-3, 1e-9
#: most linearizations per polish
_POLISH_MAXITER = 12
#: most exchanges per linear minimax
_EXCHANGE_MAXITER = 200


def _value(extremes: tuple[float, float], two_sided: bool) -> float:
    """What a center search minimizes over (min d, max d): the radial gap (max d -
    min d)/2 when two_sided, minus the inball radius min d otherwise."""
    lo, hi = extremes
    return 0.5 * (hi - lo) if two_sided else -lo


def _rounding(d: np.ndarray) -> float:
    """Rounding allowance of a linear minimax over distances d."""
    return 8.0 * np.finfo(float).eps * float(np.abs(d).max())


def _exchange(d: np.ndarray, G: np.ndarray, two_sided: bool, box: float):
    """Linear minimax of the nodes' linearized distances L = d + G @ delta, by
    single exchange (E. Stiefel, Numer. Math. 1, 1959): the dual simplex method
    on the linear program in z = (delta, R, h), R only when two_sided,

        minimize h  subject to  sign (L_i - R) <= h  over nodes i and signs,
                                |delta_l| <= box,

    with both signs when two_sided (the radial gap: h the half gap, R the
    midrange) and sign -1 alone otherwise (the inball: -h its radius). A
    reference is k + 1 + two_sided constraints, a node i with its sign
    (i, sign) or a box face (-1 - l, sign), that hold with equality: M z = b.
    Its multipliers solve M^T lam = -e_h. The first reference, the extreme
    nodes and the box faces, has lam >= 0, and each exchange brings in the
    most violated constraint and sends out the one the ratio test names, so
    lam stays >= 0 and h does not fall. Returns (z, reference, lam) once no
    constraint is violated by more than rounding; lam >= 0 on a reference of
    nodes at the extremes certifies a center as optimal."""
    k = G.shape[1]
    size = k + 1 + two_sided
    tol = _rounding(d)

    def row(constraint):
        index, sign = constraint
        a = np.zeros(size)
        if index < 0:
            a[-1 - index] = sign
            return a, box
        a[:k] = sign * G[index]
        if two_sided:
            a[k] = -sign
        a[-1] = -1.0
        return a, -sign * d[index]

    lo, hi = int(np.argmin(d)), int(np.argmax(d))
    face = G[hi] - G[lo] if two_sided else -G[lo]
    reference = [(hi, 1.0)] if two_sided else []
    reference += [(lo, -1.0)] + [(-1 - l, -1.0 if face[l] > 0.0 else 1.0) for l in range(k)]
    M, b = map(np.array, zip(*map(row, reference)))
    for _ in range(_EXCHANGE_MAXITER):
        inverse = np.linalg.inv(M)
        z, lam = inverse @ b, -inverse[-1]
        level = z[k] if two_sided else 0.0
        L = d + G @ z[:k]
        top, bottom, side = int(np.argmax(L)), int(np.argmin(L)), int(np.argmax(np.abs(z[:k])))
        excess = {(bottom, -1.0): level - L[bottom] - z[-1],
                  (-1 - side, 1.0 if z[side] > 0.0 else -1.0): abs(z[side]) - box}
        if two_sided:
            excess[(top, 1.0)] = L[top] - level - z[-1]
        entering = max(excess, key=excess.get)
        if not excess[entering] > tol or entering in reference:
            break
        a, value = row(entering)
        ratio = a @ inverse
        usable = ratio > 1e-14 * np.abs(ratio).max()
        if not usable.any():
            break
        leaving = int(np.flatnonzero(usable)[np.argmin(lam[usable] / ratio[usable])])
        reference[leaving], M[leaving], b[leaving] = entering, a, value
    return z, reference, lam


class NodeDistances:
    """Distances from a center to the nodes of one graph through their
    hyperboloid-model rows A (_node_matrix): cosh d - 1 = A @ C + cosh rho - 1 at
    the center's point C (_center_point). Called with a center, it returns (min
    d, max d) from one matrix-vector product; search finds the center of the
    inball or of the best-fit sphere. A center farther than span, the largest
    node radius, from the origin lies outside the star-shaped body."""

    def __init__(self, A: np.ndarray, span: float):
        self.A, self.span = A, span

    def __call__(self, center) -> tuple[float, float]:
        return self._read(center)[3]

    def _read(self, center):
        """(C, cosh rho - 1, A @ C, (min d, max d)) at a center. The shift by
        cosh rho - 1 and the map to d, both monotone also in rounding, act on
        the two extremes of A @ C only: _arc's steps as scalars, math.sqrt
        (equal to np.sqrt) and one np.arcsinh on the pair (math.asinh can
        differ from it in the last bit)."""
        C, s = _center_point(center)
        y = self.A @ C
        lo, hi = np.arcsinh((sqrt(0.5 * max(y.min() + s, 0.0)),
                             sqrt(0.5 * max(y.max() + s, 0.0)))).tolist()
        return C, s, y, (2.0 * lo, 2.0 * hi)

    def _linearize(self, reading, two_sided: bool, box: float):
        """(d, G) at a reading of _read: the distance d_i and its gradient in the
        hyperboloid coordinates p = C[1:] of the center,

            grad_p d_i = (cosh r_i p / P0 - sinh r_i xhat_i) / sinh d_i,

        P0 = sqrt(1 + |p|^2) = C[0], smooth at the origin unlike the exponential
        chart; over the nodes within 2 sqrt(k) box of min d, and of max d when
        two_sided. As |grad_p d_i| <= 1, a step with |delta_l| <= box moves no
        node by more than sqrt(k) box, so no node left out can be active in the
        linear minimax (_exchange) over the box. A band as wide as the node
        spread keeps every node."""
        C, s, y, (lo, hi) = reading
        band = 2.0 * sqrt(C.size - 1) * box
        A = self.A
        if lo + band < hi:
            keep = y <= 2.0 * sinh(0.5 * (lo + band)) ** 2 - s
            if two_sided:
                keep |= y >= 2.0 * sinh(0.5 * max(hi - band, 0.0)) ** 2 - s
            index = np.flatnonzero(keep)
            A, y = A[index], y[index]
        y = y + s
        sinh_d = np.sqrt(y) * np.sqrt(y + 2.0)
        G = ((A[:, :1] + 1.0) * (C[1:] / C[0]) + A[:, 1:]) / sinh_d[:, None]
        return _arc(y), G

    def polish(self, center, two_sided: bool) -> tuple[np.ndarray, tuple[float, float]]:
        """(center, (min d, max d)) at the optimum of the radial gap (max d - min
        d)/2 when two_sided, of the inball radius min d otherwise, from a center
        in its basin: the Osborne-Watson iteration (M. R. Osborne and G. A.
        Watson, Comput. J. 12, 1969). Each round linearizes the distances at
        the center, solves the linear minimax over a box (_exchange) and takes
        the step whole, the box keeping it within the linearization's reach;
        the next box is four times the step. The polish ends when the linear
        minimax promises no gain beyond rounding or the step does not read
        strictly better. A center already at the optimum, such as the origin of
        a sphere about it, comes back unchanged. DiscretizationError if
        _POLISH_MAXITER rounds do not end it: the polish settles in a few rounds
        wherever the grid resolves the shape."""
        center = np.asarray(center, dtype=float)
        reading, box = self._read(center), _POLISH_BOX
        for _ in range(_POLISH_MAXITER):
            d, G = self._linearize(reading, two_sided, box)
            z, _, _ = _exchange(d, G, two_sided, box)
            best = _value(reading[3], two_sided)
            if not z[-1] < best - _rounding(d):
                break
            step = z[:G.shape[1]]
            trial = _chart(reading[0][1:] + step)
            trial_reading = self._read(trial)
            if not _value(trial_reading[3], two_sided) < best:
                break
            center, reading = trial, trial_reading
            box = max(4.0 * float(np.abs(step).max()), _POLISH_MIN_BOX)
        else:
            raise DiscretizationError(f"center polish did not settle in {_POLISH_MAXITER} "
                                      "rounds: the grid does not resolve the shape")
        return center, reading[3]

    def search(self, starts, two_sided: bool) -> tuple[np.ndarray, tuple[float, float]]:
        """(center, (min d, max d)) at the optimum of _value, the radial gap when
        two_sided, the inball radius otherwise. Centers are exponential-chart
        vectors as in geodesic_distances. Nelder-Mead (_nelder_mead) runs once
        from each distinct start (a start equal to an earlier one is dropped)
        into the optimum's basin, a center farther than span from the origin
        scoring +inf, and the polish carries the lowest result to the optimum.
        DiscretizationError if no simplex converges."""

        def objective(center):
            return _value(self(center), two_sided) if hypot(*center) <= self.span else np.inf

        distinct = []
        for start in starts:
            if not any(np.array_equal(start, seen) for seen in distinct):
                distinct.append(start)
        results = [_nelder_mead(objective, start) for start in distinct]
        if not any(converged for _, _, converged in results):
            raise DiscretizationError(f"center search did not converge from {len(distinct)} "
                                      f"starts: {_MAXITER_MESSAGE}")
        center, _, _ = min(results, key=lambda result: result[1])
        return self.polish(center, two_sided)


@dataclass
class InradiusResult:
    rho: float
    center: np.ndarray        # exponential-chart vector, shape grid.xyz.shape[-1:]

    def center_norm(self) -> float:
        return float(np.linalg.norm(self.center))


#: Nelder-Mead's tolerances and iteration cap for a center search: loose, since
#: the polish (NodeDistances.polish) takes the search's result to the optimum
_XATOL, _FATOL, _MAXITER = 1e-2, 1e-5, 4000
_MAXITER_MESSAGE = "Maximum number of iterations has been exceeded."


def _nelder_mead(f: Callable[[np.ndarray], float], x0) -> tuple[np.ndarray, float, bool]:
    """(x, f(x), converged) of Nelder-Mead from x0 (J. A. Nelder and R. Mead,
    Comput. J. 7, 1965) with scipy's initial simplex, coefficients and stopping
    test at xatol _XATOL, fatol _FATOL and at most _MAXITER iterations; f
    receives a float64 vector."""
    x0 = [float(v) for v in np.ravel(x0)]
    n = len(x0)
    sim = [x0] + [x0[:k] + [1.05 * v if v != 0 else 0.00025] + x0[k + 1:]
                  for k, v in enumerate(x0)]
    fsim = [float(f(np.array(x))) for x in sim]
    iterations = 1
    while True:
        # a stable sort by value
        order = sorted(range(n + 1), key=fsim.__getitem__)
        sim, fsim = [sim[i] for i in order], [fsim[i] for i in order]
        best, f_best = sim[0], fsim[0]
        # a NaN difference fails its test
        if (all(abs(a - b) <= _XATOL for x in sim[1:] for a, b in zip(x, best))
                and all(abs(f_best - v) <= _FATOL for v in fsim[1:])):
            break
        if iterations == _MAXITER:
            break
        xbar = [sum(column) / n for column in zip(*sim[:-1])]
        worst = sim[-1]
        xr = [2 * c - w for c, w in zip(xbar, worst)]
        fxr = float(f(np.array(xr)))
        new = None
        if fxr < f_best:
            xe = [3 * c - 2 * w for c, w in zip(xbar, worst)]
            fxe = float(f(np.array(xe)))
            new = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            new = xr, fxr
        elif fxr < fsim[-1]:   # contract outside
            xc = [1.5 * c - 0.5 * w for c, w in zip(xbar, worst)]
            fxc = float(f(np.array(xc)))
            if fxc <= fxr:
                new = xc, fxc
        else:                  # contract inside
            xcc = [0.5 * c + 0.5 * w for c, w in zip(xbar, worst)]
            fxcc = float(f(np.array(xcc)))
            if fxcc < fsim[-1]:
                new = xcc, fxcc
        if new is None:        # shrink toward the best vertex
            for j in range(1, n + 1):
                sim[j] = [b + 0.5 * (a - b) for a, b in zip(sim[j], best)]
                fsim[j] = float(f(np.array(sim[j])))
        else:
            sim[-1], fsim[-1] = new
        iterations += 1
    return np.array(sim[0]), fsim[0], iterations < _MAXITER


def inradius(graph: RadialGraph) -> InradiusResult:
    """Largest rho so some center keeps every boundary node at distance >= rho.

    The max-min center search of the graph's distance evaluator
    (NodeDistances.search) from the origin and a center-of-mass proxy.
    """
    grid, r = graph.grid, graph.r
    com = np.tensordot(grid.sigma_weights * r, grid.xyz, axes=r.ndim)
    com_norm = np.linalg.norm(com)
    starts = [np.zeros(com.size)]
    if com_norm > 1e-12:
        starts.append(com / com_norm * min(0.3 * float(r.min()), com_norm))
    center, (rho, _) = graph.extremes.search(starts, two_sided=False)
    return InradiusResult(rho, center)


def hconvexity_margin(fields: GeometryFields) -> float:
    """min over nodes and directions of (kappa_i - 1); >= 0 means h-convex."""
    return float(fields.kappa.min() - 1.0)


def traceless_measures(fields: GeometryFields) -> tuple[float, float]:
    """(L^2 norm, sup norm) of the traceless second fundamental form."""
    l2 = float(np.sqrt(max(integrate(fields, fields.Atr2), 0.0)))
    sup = float(np.sqrt(fields.Atr2.max()))
    return l2, sup
