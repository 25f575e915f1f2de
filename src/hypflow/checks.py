"""Consolidated verification suite: seeded fuzz and identity checks spanning
every module, runnable from the CLI (`hypflow verify`) or from tests.

Each check returns a CheckResult with a pass flag and a one-line numeric
summary; run_verify executes the full battery. The checks are quantitative
statements with fixed tolerances — symmetric-function inequalities on random
spectra, integral identities on random h-convex shapes, invariant monitors on
a canned flow run, conformal-image identities, the deficit/dissipation
bookkeeping, and the flow's evolution identities — so a pass is direct
evidence the numerics implement the structure they claim.

The evolution identities (variational_check, pointwise_F_check) take d/dt at
the state itself, as one central difference along the state's velocity, so
both sides of each identity are evaluated at the same state and nothing
depends on the time stepper.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, replace

import numpy as np

from .conformal import area_identity_check, conf_relation_residual, image_convexity_margin, to_ball
from .flow import SPEED_STOP, FlowState, run
from .grids import AxisymGrid, FullSphereGrid
from .hypersurface import (
    GeometryFields,
    ball_profile,
    generate_shape,
    integrate,
    random_hconvex_shape,
)
from .stability import deficit, proof_trace_check, sphere_fit
from .symfunc import esym_all, quotient_eval

__all__ = ["CheckResult", "run_verify", "VariationalReport", "variational_check",
           "pointwise_F_check",
           "check_symfunc_fuzz", "check_subset_oracle", "check_minkowski",
           "check_isometry", "check_deficit_fuzz", "check_canned_flow",
           "check_conformal", "check_variational", "check_pointwise_F"]


#: grid size of the static checks
_J = 96


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    elapsed: float = 0.0
    payload: object = None   # what a later check reads: check_canned_flow's (graph, trace)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.name:<22s} {self.detail}  [{self.elapsed:.2f}s]"


def _timed(fn):
    def wrapper(*a, **kw):
        t0 = time.perf_counter()
        res = fn(*a, **kw)
        res.elapsed = time.perf_counter() - t0
        return res
    return wrapper


def _sample_spectra(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """h-convex spectra with a spread of scales, including near-umbilic and
    near-degenerate (kappa_i -> 1) rows."""
    kind = rng.integers(0, 4, size=count)
    kappa = np.empty((count, n))
    kappa[kind == 0] = 1.0 + rng.lognormal(0.0, 1.0, size=((kind == 0).sum(), n))
    kappa[kind == 1] = 1.0 + 10.0 ** rng.uniform(-12, 3, size=((kind == 1).sum(), n))
    base = 1.0 + rng.lognormal(0.0, 1.5, size=((kind == 2).sum(), 1))
    kappa[kind == 2] = base * (1.0 + 1e-9 * rng.standard_normal(((kind == 2).sum(), n)))
    kappa[kind == 3] = np.repeat(1.0 + rng.lognormal(0.0, 1.0, size=((kind == 3).sum(), 1)), n, axis=1)
    return np.maximum(kappa, 1.0)


@_timed
def check_symfunc_fuzz(seed: int = 0) -> CheckResult:
    """Newton-Maclaurin, Euler homogeneity, gradient positivity, midpoint
    concavity, and the quotient trace/second-moment bounds on about 10^5
    random h-convex spectra."""
    rng = np.random.default_rng(seed)
    combos = [(n, m) for n in range(2, 7) for m in range(1, n + 1)]
    per = max(2, 100_000 // len(combos))
    worst: dict[str, float] = {}
    total = 0

    def track(name, slack):
        worst[name] = min(worst.get(name, np.inf), float(np.min(slack)))

    for n, m in combos:
        kappa = _sample_spectra(rng, n, per)
        total += per
        E = esym_all(kappa)
        F, dF = quotient_eval(m, kappa)
        scaleE = np.abs(E).max(axis=-1)
        for k in range(1, n):
            track("newton_maclaurin",
                  (E[:, k] ** 2 - E[:, k - 1] * E[:, k + 1]) / scaleE ** 2 + 1e-11)
        track("euler_homogeneity", 1e-11 - np.abs((kappa * dF).sum(-1) - F) / F)
        track("grad_positive", dF.min(-1))
        track("trace_lower", dF.sum(-1) - 1.0 + 1e-11)
        track("trace_upper", m - dF.sum(-1) + 1e-11)
        sec = (kappa ** 2 * dF).sum(-1)
        track("second_moment_lower", (sec - F ** 2) / F ** 2 + 1e-11)
        track("second_moment_upper", ((n + 1 - m) * F ** 2 - sec) / F ** 2 + 1e-11)
        half = per // 2
        a, b = kappa[:half], kappa[half:2 * half]
        Fa, _ = quotient_eval(m, a)
        Fb, _ = quotient_eval(m, b)
        Fmid, _ = quotient_eval(m, 0.5 * (a + b))
        scale = np.maximum(np.abs(Fa), np.abs(Fb))
        track("midpoint_concavity", (Fmid - 0.5 * (Fa + Fb)) / scale + 1e-11)

    bad = {k: v for k, v in worst.items() if v < 0.0}
    detail = f"{total} samples, worst slacks: " + ", ".join(
        f"{k}={v:.2e}" for k, v in sorted(worst.items()))
    return CheckResult("symfunc_fuzz", not bad, detail)


@_timed
def check_subset_oracle(seed: int = 0) -> CheckResult:
    """esym_all against brute-force subset enumeration for n <= 6, 200 trials."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 7))
        kappa = rng.uniform(-2.0, 3.0, size=n)
        E = esym_all(kappa)
        binom = 1.0
        for k in range(n + 1):
            brute = sum(np.prod(kappa[list(c)]) for c in itertools.combinations(range(n), k))
            binom = 1.0 if k == 0 else binom * (n - k + 1) / k
            expected = brute / binom
            worst = max(worst, abs(E[k] - expected) / max(1.0, abs(expected)))
    return CheckResult("subset_oracle", worst <= 1e-12, f"max rel err {worst:.2e} over n<=6")


def _random_shape_pool(seed: int, count: int, J: int):
    """Deterministic mix of random h-convex shapes over both backends."""
    rng = np.random.default_rng(seed)
    grids = [FullSphereGrid(J), AxisymGrid(J, n=2), AxisymGrid(J, n=3), AxisymGrid(J, n=4)]
    return [random_hconvex_shape(grids[i % len(grids)], rng) for i in range(count)]


def minkowski_residuals(graph) -> np.ndarray:
    """Relative residual of int lam' E_k dmu = int u E_{k+1} dmu for each k."""
    fields, n = graph.fields, graph.n
    res = np.empty(n)
    for k in range(n):
        lhs = integrate(fields, fields.lamp * fields.E[..., k])
        rhs = integrate(fields, fields.u * fields.E[..., k + 1])
        res[k] = abs(lhs - rhs) / abs(rhs)
    return res


#: flow time of the central difference the evolution-identity checks take
#: along a state's velocity
_DELTA = 1e-3


def _rate(state: FlowState, value):
    """d/dt of value(probe) at the state, graph gauge: value on the probe
    states at r +- _DELTA dr/dt, differenced centrally."""
    graph, rate = state.graph, state.speed[1]
    lo, hi = (value(replace(state, graph=graph.with_values(graph.r + side * _DELTA * rate)))
              for side in (-1.0, 1.0))
    return (hi - lo) / (2.0 * _DELTA)


@dataclass
class VariationalReport:
    k_residuals: np.ndarray      # relative residual of d/dt W_k vs the integral formula
    minkowski_residual: float    # |int f E_m| / int |f| E_m  (exact zero in the continuum)


def variational_check(state: FlowState) -> VariationalReport:
    """Central-difference d/dt W_k against ((n+1-k)/(n+1)) int f E_k dmu.

    Each residual is relative to ((n+1-k)/(n+1)) int max(|f|, SPEED_STOP) E_k
    dmu, which stays a scale of the identity where both sides vanish (a
    recentering sphere keeps every W_k); the floor, the speed below which run
    calls a state stationary, keeps it one on a sphere about the origin, where
    f is rounding. k = m doubles as the discrete Minkowski-formula check since
    conservation makes that integral vanish.
    """
    n, m = state.graph.n, state.m
    fields, f = state.fields, state.speed[0]
    weight = (n + 1 - np.arange(n + 1)) / (n + 1)
    formula = weight * np.array([integrate(fields, f * fields.E[..., k]) for k in range(n + 1)])
    speed = np.maximum(np.abs(f), SPEED_STOP)
    scale = weight * np.array([integrate(fields, speed * fields.E[..., k]) for k in range(n + 1)])
    residuals = np.abs(_rate(state, lambda probe: probe.W) - formula) / scale
    return VariationalReport(k_residuals=residuals, minkowski_residual=abs(formula[m]) / scale[m])


def _surface_christoffel_full(fields: GeometryFields):
    """Christoffel symbols of the induced metric on the 2-sphere backend,
    assembled from analytic derivatives of g_ij = r_i r_j + lam^2 sigma_ij."""
    g = fields
    grid = g.grid
    sin_t, cos_t = grid.sin_t, grid.cos_t
    lam, lamp = g.lam, g.lamp
    rt, rp, rtt, rtp, rpp = g.rt, g.rp, g.rtt, g.rtp, g.rpp
    lam_lamp = lam * lamp
    dt_gtt = 2.0 * (rt * rtt + lam_lamp * rt)
    dp_gtt = 2.0 * (rt * rtp + lam_lamp * rp)
    dt_gtp = rtt * rp + rt * rtp
    dp_gtp = rtp * rp + rt * rpp
    sin2 = sin_t ** 2
    dt_gpp = 2.0 * (rp * rtp + lam_lamp * rt * sin2 + lam * lam * sin_t * cos_t)
    dp_gpp = 2.0 * (rp * rpp + lam_lamp * rp * sin2)

    detg = g.g_tt * g.g_pp - g.g_tp ** 2
    i_tt, i_tp, i_pp = g.g_pp / detg, -g.g_tp / detg, g.g_tt / detg

    # lower-index symbols [ij,l] = (d_i g_jl + d_j g_il - d_l g_ij)/2
    c_tt_t = 0.5 * dt_gtt
    c_tt_p = dt_gtp - 0.5 * dp_gtt
    c_tp_t = 0.5 * dp_gtt
    c_tp_p = 0.5 * dt_gpp
    c_pp_t = dp_gtp - 0.5 * dt_gpp
    c_pp_p = 0.5 * dp_gpp

    G_t_tt = i_tt * c_tt_t + i_tp * c_tt_p
    G_p_tt = i_tp * c_tt_t + i_pp * c_tt_p
    G_t_tp = i_tt * c_tp_t + i_tp * c_tp_p
    G_p_tp = i_tp * c_tp_t + i_pp * c_tp_p
    G_t_pp = i_tt * c_pp_t + i_tp * c_pp_p
    G_p_pp = i_tp * c_pp_t + i_pp * c_pp_p
    inv = (i_tt, i_tp, i_pp)
    gam = (G_t_tt, G_p_tt, G_t_tp, G_p_tp, G_t_pp, G_p_pp)
    return inv, gam


def pointwise_F_check(state: FlowState) -> float:
    """Largest nodewise residual of the exact evolution law of F along the flow,

        dF/dt - (lam'/F^2) F^{ij} grad^2_{ij} F - <lam d_r, grad F>
          = (1 - F^{ij}g_{ij}) u + (lam'/F)(F^2 - F^{ij}(h^2)_{ij})
            + (2/F) F^{ij} grad_i F grad_j (lam'/F),

    with dF/dt taken in the normal gauge (the graph-gauge time derivative
    minus the tangential-velocity transport f v <grad F, d_r>). The
    graph-gauge derivative is a central difference along the state's
    velocity (_rate); everything else is evaluated at the state.
    """
    grid = state.graph.grid
    F0 = state.F
    dF0 = quotient_eval(state.m, state.fields.kappa)[1]
    dFdt_graph = _rate(state, lambda probe: probe.F)

    g = state.fields
    f = state.speed[0]
    lamp_over_F = g.lamp / F0
    kap = g.kappa
    trace_dF = dF0.sum(axis=-1)
    second_moment = (kap * kap * dF0).sum(axis=-1)
    rhs_alg = (1.0 - trace_dF) * g.u + lamp_over_F * (F0 * F0 - second_moment)

    if grid.backend == "full":
        (i_tt, i_tp, i_pp), (G_t_tt, G_p_tt, G_t_tp, G_p_tp, G_t_pp, G_p_pp) = (
            _surface_christoffel_full(g))
        Ft, Fp = grid.d_theta(F0), grid.d_phi(F0)
        Ftt, Fpp, Ftp = grid.d_theta2(F0), grid.d_phi2(F0), grid.d_theta_phi(F0)
        H_tt = Ftt - G_t_tt * Ft - G_p_tt * Fp
        H_tp = Ftp - G_t_tp * Ft - G_p_tp * Fp
        H_pp = Fpp - G_t_pp * Ft - G_p_pp * Fp
        # m = 1 on this backend, so F^{ij} = g^{ij}/2 exactly
        trace_hess = i_tt * H_tt + 2.0 * i_tp * H_tp + i_pp * H_pp
        diffusion = g.lamp / (F0 * F0) * 0.5 * trace_hess
        radial_dot_gradF = (i_tt * g.rt * Ft + i_tp * (g.rt * Fp + g.rp * Ft)
                            + i_pp * g.rp * Fp)
        Gfun = lamp_over_F
        Gt, Gp = grid.d_theta(Gfun), grid.d_phi(Gfun)
        grad_pair = i_tt * Ft * Gt + i_tp * (Ft * Gp + Fp * Gt) + i_pp * Fp * Gp
        rhs_grad = (2.0 / F0) * 0.5 * grad_pair
    else:
        lam, lamp, rt, rtt = g.lam, g.lamp, g.rt, g.rtt
        sin_t, cos_t = grid.sin_t, grid.cos_t
        g_tt = g.g_tt
        Ft = grid.d_theta(F0)
        Ftt = grid.d_theta2(F0)
        dF_rad = dF0[:, 0]
        dF_ang = dF0[:, 1]
        nang = state.graph.n - 1
        dt_gtt = 2.0 * (rt * rtt + lam * lamp * rt)
        G_t_tt = 0.5 * dt_gtt / g_tt
        # angular fiber metric lam^2 sin^2(theta) w; Gamma^theta_ab = -(1/2) g^{tt} d_theta(...)
        dlog_ang = 2.0 * (lamp * rt / lam + cos_t / sin_t)
        hess_tt = Ftt - G_t_tt * Ft
        hess_ang_contracted = 0.5 * dlog_ang / g_tt * Ft     # times g^{ab}w_ab per direction
        trace_term = dF_rad / g_tt * hess_tt + nang * dF_ang * hess_ang_contracted
        diffusion = g.lamp / (F0 * F0) * trace_term
        radial_dot_gradF = rt * Ft / g_tt
        Gfun = lamp_over_F
        Gt = grid.d_theta(Gfun)
        rhs_grad = (2.0 / F0) * dF_rad / g_tt * Ft * Gt

    gauge = f * g.v * radial_dot_gradF
    advect = g.lam * radial_dot_gradF
    residual = dFdt_graph - gauge - diffusion - advect - rhs_alg - rhs_grad
    return float(np.abs(residual).max())


@_timed
def check_minkowski(seed: int = 0) -> CheckResult:
    count = 20
    worst = 0.0
    for graph in _random_shape_pool(seed, count, _J):
        worst = max(worst, float(minkowski_residuals(graph).max()))
    return CheckResult("minkowski_identity", worst <= 1e-5,
                       f"worst rel residual {worst:.2e} over {count} shapes, all k")


@_timed
def check_isometry() -> CheckResult:
    """Quermassintegrals of an off-center sphere match the centered ball."""
    worst = 0.0
    for r0, a in ((1.0, 0.3), (1.5, 0.6), (0.8, 0.25)):
        graph = generate_shape(AxisymGrid(_J, n=2), "offset_sphere", r0=r0, a=a)
        for k, w in enumerate(graph.W):
            exact = ball_profile(graph.n, k, r0)
            worst = max(worst, abs(w - exact) / abs(exact))
    return CheckResult("isometry_invariance", worst <= 1e-6,
                       f"worst rel W error {worst:.2e} on offset spheres")


@_timed
def check_deficit_fuzz(seed: int = 0) -> CheckResult:
    """Deficit nonnegative (to grid tolerance) on random h-convex shapes, and
    zero within 1e-6 on spheres and offset spheres."""
    count = 200
    rng = np.random.default_rng(seed)
    worst_rel = np.inf
    shapes = _random_shape_pool(seed + 1, count - 24, _J)
    for graph in shapes:
        m = int(rng.integers(1, graph.n))
        d = deficit(graph, m)
        worst_rel = min(worst_rel, d.raw / max(abs(d.W_m1), 1e-300))
    worst_sphere = 0.0
    for i in range(24):
        r0 = float(rng.uniform(0.5, 2.0))
        a = float(rng.uniform(0.0, 0.4)) * (i % 2)
        grid = AxisymGrid(_J, n=2 + i % 3)
        graph = generate_shape(grid, "offset_sphere", r0=r0, a=min(a, 0.9 * r0))
        m = int(rng.integers(1, graph.n))
        worst_sphere = max(worst_sphere, abs(deficit(graph, m).raw))
    ok = worst_rel >= -1e-6 and worst_sphere <= 1e-6
    return CheckResult("deficit_fuzz", ok,
                       f"min rel deficit {worst_rel:.2e} over {count - 24} shapes; "
                       f"max |deficit| {worst_sphere:.2e} on spheres/offsets")


@_timed
def check_canned_flow() -> CheckResult:
    """Short perturbed-sphere run: conservation, monotonicity, clean monitors,
    and convergence to the round equality case."""
    graph = generate_shape(AxisymGrid(64, n=2), "perturbed_sphere", r0=1.0, eps=0.05, l=2)
    state = FlowState.create(graph, m=1)
    final, trace = run(state, t_max=50.0)
    W1 = trace.column("W1")
    W2 = trace.column("W2")
    drift = float(np.abs(W1 - W1[0]).max() / W1[0])
    mono = bool(np.all(np.diff(W2) <= 1e-10 * np.abs(W2[:-1])))
    fit = sphere_fit(final.graph)
    radius_err = abs(ball_profile(2, 1, fit.radius) - W1[0]) / W1[0]
    issues = []
    if trace.stop_reason != "traceless_small":
        issues.append(f"stop={trace.stop_reason}")
    if trace.flag_count:
        issues.append(f"{trace.flag_count} monitor flags")
    if trace.rejections:
        issues.append(f"{trace.rejections} step rejections")
    if drift > 1e-4:
        issues.append(f"W1 drift {drift:.2e}")
    if not mono:
        issues.append("W2 not monotone")
    if fit.cheb > 1e-4:
        issues.append(f"terminal cheb {fit.cheb:.2e}")
    if radius_err > 1e-3:
        issues.append(f"terminal radius err {radius_err:.2e}")
    detail = (f"steps={len(trace.rows) - 1} drift={drift:.2e} cheb={fit.cheb:.2e} "
              f"radius_err={radius_err:.2e} flags={trace.flag_count}")
    if issues:
        detail += " | " + "; ".join(issues)
    return CheckResult("canned_flow", not issues, detail, payload=(graph, trace))


@_timed
def check_proof_trace(canned_payload) -> CheckResult:
    """Accumulated dissipation integral vs ((n+1)/(n-m)) * initial deficit,
    on the (graph, trace) of check_canned_flow."""
    graph, trace = canned_payload
    rep = proof_trace_check(graph, 1, trace)
    ok = rep.converged and rep.relative_residual <= 1e-2
    return CheckResult("proof_trace", ok,
                       f"cum={rep.cum_integral:.6e} target={rep.target:.6e} "
                       f"rel={rep.relative_residual:.2e} windowC={rep.window_constant:.3f}")


@_timed
def check_conformal() -> CheckResult:
    """Conformal-image identities: relation residual, convexity of the image,
    and the area identity."""
    worst_sphere = worst_pert = worst_area = 0.0
    worst_margin = np.inf
    cases = [
        generate_shape(FullSphereGrid(_J), "sphere", r0=0.5),
        generate_shape(FullSphereGrid(_J), "sphere", r0=1.0),
        generate_shape(AxisymGrid(_J, n=3), "sphere", r0=2.0),
        generate_shape(FullSphereGrid(_J), "perturbed_sphere", r0=1.0, eps=0.05, l=2),
        generate_shape(FullSphereGrid(_J), "perturbed_sphere", r0=1.0, eps=0.05, l=2, order=2),
        generate_shape(AxisymGrid(_J, n=2), "perturbed_sphere", r0=1.0, eps=0.05, l=3),
        generate_shape(AxisymGrid(_J, n=4), "perturbed_sphere", r0=1.2, eps=0.04, l=2),
    ]
    for i, graph in enumerate(cases):
        image = to_ball(graph)
        res_max, _ = conf_relation_residual(graph.fields, image)
        if i < 3:
            worst_sphere = max(worst_sphere, res_max)
        else:
            worst_pert = max(worst_pert, res_max)
        worst_margin = min(worst_margin, image_convexity_margin(image))
        worst_area = max(worst_area, abs(area_identity_check(graph.fields, image).relative_mismatch))
    ok = (worst_sphere <= 1e-10 and worst_pert <= 1e-4
          and worst_margin >= -1e-8 and worst_area <= 1e-4)
    return CheckResult("conformal_suite", ok,
                       f"sphere res {worst_sphere:.2e}, perturbed res {worst_pert:.2e}, "
                       f"min margin {worst_margin:.3f}, area mismatch {worst_area:.2e}")


@_timed
def check_variational() -> CheckResult:
    """Finite-difference dW_k/dt against the first-variation formula."""
    graph = generate_shape(FullSphereGrid(64), "perturbed_sphere", r0=1.0, eps=0.05, l=2)
    state = FlowState.create(graph, m=1)
    rep = variational_check(state)
    ok = (rep.k_residuals[state.m + 1] <= 1e-3 and rep.minkowski_residual <= 1e-5
          and rep.k_residuals[0] <= 1e-3)
    return CheckResult("variational", ok,
                       "residuals " + "/".join(f"{r:.1e}" for r in rep.k_residuals)
                       + f", minkowski {rep.minkowski_residual:.1e}")


@_timed
def check_pointwise_F() -> CheckResult:
    """Nodewise residual of the evolution law of F, d/dt taken along the
    flow velocity, on one full-grid and two axisymmetric perturbed spheres."""
    cases = [  # (grid, m, perturbed_sphere keywords, residual bound)
        (FullSphereGrid(32), 1, {"eps": 0.05, "l": 2, "order": 2}, 2e-4),
        (AxisymGrid(48, n=2), 1, {"eps": 0.1, "l": 2}, 1e-5),
        (AxisymGrid(48, n=4), 2, {"eps": 0.05, "l": 2}, 1e-4),
    ]
    ok, parts = True, []
    for grid, m, kw, bound in cases:
        graph = generate_shape(grid, "perturbed_sphere", 1.0, **kw)
        res = pointwise_F_check(FlowState.create(graph, m))
        ok = ok and res < bound
        parts.append(f"{grid.backend} n={grid.n} {res:.1e}/{bound:.0e}")
    return CheckResult("pointwise_F", ok, "max residual/bound " + ", ".join(parts))


def run_verify(seed: int = 0) -> list[CheckResult]:
    results = [
        check_symfunc_fuzz(seed),
        check_subset_oracle(seed),
        check_minkowski(seed),
        check_isometry(),
        check_deficit_fuzz(seed),
    ]
    canned = check_canned_flow()
    results.append(canned)
    results.append(check_proof_trace(canned.payload))
    results.append(check_conformal())
    results.append(check_variational())
    results.append(check_pointwise_F())
    return results
