"""Explicit time integration of the locally constrained curvature flow.

The hypersurface moves with normal speed f = lam'(r)/F - u, F = E_m/E_{m-1},
which in the radial-graph gauge is the scalar PDE dr/dt = f v. Geodesic
spheres are stationary, the m-th quermassintegral is conserved, and W_{m+1}
decays; the integrator enforces the decay and h-convexity per step (halving
dt on violation) and a monitor set tracks every a priori bound along the run.

Stepping is damped second-order Runge-Kutta-Chebyshev (RKC2; Sommeijer,
Shampine & Verwer, J. Comput. Appl. Math. 88, 1998). Its real stability
interval beta(s) grows like s^2 with the stage count s, so run proposes
3.52 times the parabolic CFL step that suits classical 4-stage Runge-Kutta,
and each attempt spends the fewest stages that keep its dt the same fraction
of their stability limit. A step costs s geometry evaluations.

On the latitude-longitude backend the polar cells carry a zonal Fourier
cutoff k_cut(theta) ~ sin(theta)/dtheta, applied to every stage state: modes
finer than the cutoff on a polar ring are unresolvable there at the global
time step (the azimuthal mesh width collapses like sin theta) and would
otherwise blow up from rounding-level seeds. All shapes produced by the
generators live below the cutoff, so the filter is exact on resolved data.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from operator import attrgetter

import numpy as np

from .hypersurface import (
    HCONVEX_TOL,
    GeometryFields,
    RadialGraph,
    DiscretizationError,
    integrate,
    traceless_measures,
)
from .symfunc import ConeViolationError, quotient_eval, quotient_from_esym

__all__ = [
    "FlowState",
    "FlowTrace",
    "StepFailureError",
    "normal_speed",
    "step",
    "run",
    "VariationalReport",
    "variational_check",
    "pointwise_F_check",
    "DEFAULT_CFL",
    "MAX_CFL",
    "DEFAULT_TOL_STOP",
    "DEFAULT_T_MAX",
    "MONO_TOL",
]

DEFAULT_CFL = 0.2
# c_cfl is the fraction of the explicit stability limit a step uses. The
# polar filter keeps azimuthal k <= 2/sqrt(c_cfl) on the worst ring; that
# mode stays stable only while the fraction stays below ~0.22, whatever
# the stage count, since the step and the stability interval scale together
MAX_CFL = 0.22
DEFAULT_TOL_STOP = 1e-6
DEFAULT_T_MAX = 30.0
MONO_TOL = 1e-10      # allowed relative W_{m+1} increase per accepted step
MAX_HALVINGS = 20
SPEED_STOP = 1e-10    # stationary once max |f| drops below this
STAGES = 4            # most RKC stages per step; the step, and its O(dt^2) error,
                      # grow like s^2 (6 or 8 break the 1e-6 W_m drift of short runs)
_DAMPING = 2.0 / 13.0
# real stability interval of classical RK4, the scale the CFL step is set on
_BETA_RK4 = 2.785


class StepFailureError(RuntimeError):
    """A step kept violating the acceptance conditions through all dt halvings."""

    def __init__(self, message: str, t: float, dt: float, diagnostics: dict,
                 rhs_evals: int = 0):
        super().__init__(message)
        self.t = t
        self.dt = dt
        self.diagnostics = diagnostics
        self.rhs_evals = rhs_evals   # geometry evaluations the failed step spent
        self.partial_trace = None    # the trace up to the failure, set by run


def normal_speed(fields: GeometryFields, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Normal speed f = lam'/F - u and the graph-gauge rate dr/dt = f*v."""
    return _speed(fields, quotient_from_esym(m, fields.E))


def _speed(fields: GeometryFields, F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    if F.min() <= 0.0:
        raise ConeViolationError(f"curvature quotient nonpositive (min F = {F.min():.3e})")
    f = fields.lamp / F - fields.u
    return f, f * fields.v


@dataclass
class FlowState:
    """One point on a flow trajectory plus the frozen initial quermassintegrals
    W_init.

    The geometry and the quermassintegrals are the graph's own. F, the speed
    and the traceless measures of the state are evaluated at most once, on
    first use, and shared by the stepper, the stop tests and the trace row.
    Later states are made with dataclasses.replace, which carries m and W_init
    over and starts those caches empty.
    """

    graph: RadialGraph
    m: int
    t: float
    W_init: np.ndarray

    @classmethod
    def create(cls, graph: RadialGraph, m: int) -> "FlowState":
        n = graph.n
        if not 1 <= m <= n - 1:
            raise ValueError(f"m={m} out of range 1..{n - 1}")
        return cls(graph=graph, m=m, t=0.0, W_init=graph.W.copy())

    @property
    def fields(self) -> GeometryFields:
        return self.graph.fields

    @property
    def W(self) -> np.ndarray:
        return self.graph.W

    @cached_property
    def F(self) -> np.ndarray:
        """Curvature quotient E_m/E_{m-1} at every node."""
        return quotient_from_esym(self.m, self.fields.E)

    @cached_property
    def speed(self) -> tuple[np.ndarray, np.ndarray]:
        """(f, dr/dt) as returned by normal_speed."""
        return _speed(self.fields, self.F)

    @cached_property
    def traceless(self) -> tuple[float, float]:
        """(L^2 norm, sup norm) of the traceless second fundamental form."""
        return traceless_measures(self.fields)


@dataclass
class FlowTrace:
    """The run's record: one row per accepted step, the first row the initial
    state, each a dict keyed by CSV column name in CSV order (_trace_row)."""

    rows: list = field(default_factory=list)
    flags: list = field(default_factory=list)        # (t, monitor name)
    stop_reason: str = ""
    rejections: int = 0
    rhs_evals: int = 0     # geometry evaluations while stepping, rejected attempts included

    def header(self) -> str:
        return ",".join(self.rows[0])

    def csv_lines(self):
        yield self.header()
        for row in self.rows:
            yield ",".join(f"{x:.17g}" for x in row.values())

    def column(self, name: str) -> np.ndarray:
        return np.array([row[name] for row in self.rows])

    @property
    def flag_count(self) -> int:
        return len(self.flags)


def _deficit_integrand_value(fields: GeometryFields, m: int) -> float:
    """int lam' (E_m - E_{m+1} E_{m-1} / E_m) dmu, nonnegative by Newton-Maclaurin."""
    E = fields.E
    em = E[..., m]
    val = fields.lamp * (em - E[..., m + 1] * E[..., m - 1] / em)
    return integrate(fields, val)


def _trace_row(state: FlowState, dt: float, cum: float) -> dict:
    """The CSV row of a state: the one place the trace's columns are named."""
    fields = state.fields
    l2, sup = state.traceless
    return {
        "t": state.t, "dt": dt,
        **{f"W{k}": float(w) for k, w in enumerate(state.W)},
        "minF": float(state.F.min()), "maxF": float(state.F.max()),
        "minH": float(fields.H.min()), "maxH": float(fields.H.max()),
        "minr": float(state.graph.r.min()), "maxr": float(state.graph.r.max()),
        "minu": float(fields.u.min()),
        "AtrL2": l2, "AtrMax": sup,
        "minKappaMinus1": float(fields.kappa.min() - 1.0),
        "cumDeficitIntegral": cum,
    }


_MONITOR_TOL = 1e-8


def _monitor_flags(state: FlowState, row: dict, first: dict, rho: float) -> list:
    """A priori bounds against the run's first row and the inradius rho of
    the run's first state; each violation is reported, never enforced."""
    u_floor = min(first["minu"], np.sinh(rho))
    checks = [
        ("F_lower", row["minF"] < 1.0 - _MONITOR_TOL),
        ("F_upper", row["maxF"] > first["maxF"] + _MONITOR_TOL),
        ("H_lower", row["minH"] < state.graph.n - _MONITOR_TOL),
        ("r_lower", row["minr"] < first["minr"] - _MONITOR_TOL),
        ("r_upper", row["maxr"] > first["maxr"] + _MONITOR_TOL),
        ("u_lower", row["minu"] < u_floor - _MONITOR_TOL),
        ("u_upper", float(state.fields.u.max()) > np.exp(rho) + _MONITOR_TOL),
    ]
    return [name for name, bad in checks if bad]


def _stage_filter(grid, c_cfl: float):
    """Filter for every stage state: on the full grid the polar Fourier
    cutoff 2/sqrt(c_cfl) that keeps the step stable at that CFL fraction;
    the identity on the axisym grid."""
    if grid.backend != "full":
        return lambda r: r
    c_pole = 2.0 / np.sqrt(c_cfl)
    return lambda r: grid.pole_filter(r, c_pole)


@dataclass(frozen=True)
class _RKCTable:
    beta: float     # real stability interval
    mu1: float      # Y1 = Y0 + mu1 dt F0
    stages: tuple   # (mu_j, nu_j, mu~_j, gamma~_j) for j = 2..s


def _rkc_table(s: int) -> _RKCTable:
    """Damped RKC2 coefficients from the Chebyshev polynomials T_j at w0."""
    w0 = 1.0 + _DAMPING / s ** 2
    T, dT, ddT = [1.0, w0], [0.0, 1.0], [0.0, 0.0]
    for j in range(2, s + 1):
        T.append(2.0 * w0 * T[j - 1] - T[j - 2])
        dT.append(2.0 * T[j - 1] + 2.0 * w0 * dT[j - 1] - dT[j - 2])
        ddT.append(4.0 * dT[j - 1] + 2.0 * w0 * ddT[j - 1] - ddT[j - 2])
    w1 = dT[s] / ddT[s]
    b = [ddT[j] / dT[j] ** 2 if j >= 2 else 0.0 for j in range(s + 1)]
    b[0] = b[1] = b[2]
    stages = []
    for j in range(2, s + 1):
        mu_t = 2.0 * b[j] * w1 / b[j - 1]
        stages.append((2.0 * b[j] * w0 / b[j - 1], -b[j] / b[j - 2], mu_t,
                       -(1.0 - b[j - 1] * T[j - 1]) * mu_t))
    return _RKCTable(beta=(1.0 + w0) * ddT[s] / dT[s], mu1=b[1] * w1, stages=tuple(stages))


_RKC = {s: _rkc_table(s) for s in range(2, STAGES + 1)}


def _stages(state: FlowState, dt: float, c_cfl: float) -> int:
    """Fewest stages s >= 2 whose stability interval takes dt at the CFL
    fraction c_cfl, capped at STAGES."""
    need = _BETA_RK4 * dt / cfl_dt(state, c_cfl)
    return next((s for s in range(2, STAGES) if _RKC[s].beta >= need), STAGES)


def _advance(state: FlowState, dt: float, filt, s: int, geometry) -> FlowState:
    """Damped RKC2 update of the radii over dt in s stages from the state's
    own rate, every stage state filtered, with the post-state's geometry; no
    acceptance test. geometry returns the fields of a graph (s calls per
    update)."""
    m, graph, y0, f0 = state.m, state.graph, state.graph.r, state.speed[1]
    table = _RKC[s]
    prev, cur = y0, filt(y0 + table.mu1 * dt * f0)
    for mu, nu, mu_t, gamma_t in table.stages:
        f = normal_speed(geometry(graph.with_values(cur)), m)[1]
        prev, cur = cur, filt((1.0 - mu - nu) * y0 + mu * cur + nu * prev
                              + dt * (mu_t * f + gamma_t * f0))
    graph = graph.with_values(cur)
    geometry(graph)
    return replace(state, graph=graph, t=state.t + dt)


def step(state: FlowState, dt: float, c_cfl: float):
    """One accepted RKC step; halves dt until the post-state is admissible.

    c_cfl is the CFL fraction dt was chosen with; it sets the stage filter
    (see _stage_filter) and, with dt, the stage count of each attempt.

    Returns (new_state, dt_used, halvings, evals); evals counts the geometry
    evaluations of every attempt. Acceptance requires finite
    geometry, min kappa >= 1 - 1e-8, and relative W_{m+1} increase below
    1e-10. These mirror the flow's exact invariants, so rejection signals a
    step too long for the stability limit.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    m = state.m
    filt = _stage_filter(state.graph.grid, c_cfl)
    state.speed  # a state outside the cone raises here, not as a step failure
    evals = 0

    def geometry(graph: RadialGraph) -> GeometryFields:
        nonlocal evals
        evals += 1
        return graph.fields

    last_err: dict = {}
    for halvings in range(MAX_HALVINGS + 1):
        try:
            new_state = _advance(state, dt, filt, _stages(state, dt, c_cfl), geometry)
            min_kappa = float(new_state.fields.kappa.min())
            w_next = float(new_state.W[m + 1])
        except (DiscretizationError, ConeViolationError, ValueError) as exc:
            last_err = {"error": str(exc)}
            dt *= 0.5
            continue
        w_prev = float(state.W[m + 1])
        mono_ok = w_next <= w_prev + MONO_TOL * abs(w_prev)
        if min_kappa >= 1.0 - HCONVEX_TOL and mono_ok:
            return new_state, dt, halvings, evals
        last_err = {"min_kappa": min_kappa, "W_next": w_next, "W_prev": w_prev}
        dt *= 0.5
    raise StepFailureError(
        f"step rejected through {MAX_HALVINGS} dt halvings at t={state.t:.6g}",
        t=state.t, dt=dt, diagnostics=last_err, rhs_evals=evals,
    )


def cfl_dt(state: FlowState, c_cfl: float = DEFAULT_CFL) -> float:
    fields = state.fields
    minF = float(state.F.min())
    lam_min = float(fields.lam.min())
    lamp_max = float(fields.lamp.max())
    dtheta = state.graph.grid.dtheta
    return c_cfl * (lam_min * dtheta) ** 2 * minF ** 2 / lamp_max


def run(state: FlowState, *, t_max: float, tol_stop: float = DEFAULT_TOL_STOP,
        c_cfl: float = DEFAULT_CFL, max_steps: int = 2_000_000) -> tuple[FlowState, FlowTrace]:
    """Advance until ||A_traceless||_inf < tol_stop (skipped if tol_stop <= 0),
    max |f| < 1e-10, or t reaches t_max; returns the final state and trace."""
    if not 0.0 < c_cfl <= MAX_CFL:
        raise ValueError(f"c_cfl must lie in (0, {MAX_CFL}]")
    m = state.m
    trace = FlowTrace()
    cum = 0.0
    deficit_rate = _deficit_integrand_value(state.fields, m)
    rho = state.graph.inball.rho
    first = _trace_row(state, 0.0, cum)
    trace.rows.append(first)
    trace.flags.extend((state.t, name) for name in _monitor_flags(state, first, first, rho))

    for _ in range(max_steps):
        if tol_stop > 0.0 and state.traceless[1] < tol_stop:
            trace.stop_reason = "traceless_small"
            break
        if float(np.abs(state.speed[0]).max()) < SPEED_STOP:
            trace.stop_reason = "stationary"
            break
        if state.t >= t_max:
            trace.stop_reason = "t_max"
            break
        dt = min(cfl_dt(state, c_cfl) * _RKC[STAGES].beta / _BETA_RK4, t_max - state.t)
        try:
            state, dt_used, halvings, evals = step(state, dt, c_cfl)
        except StepFailureError as exc:
            trace.rhs_evals += exc.rhs_evals
            exc.partial_trace = trace
            raise
        trace.rejections += halvings
        trace.rhs_evals += evals
        rate_new = _deficit_integrand_value(state.fields, m)
        cum += 0.5 * dt_used * (deficit_rate + rate_new)
        deficit_rate = rate_new
        row = _trace_row(state, dt_used, cum)
        trace.rows.append(row)
        trace.flags.extend((state.t, name) for name in _monitor_flags(state, row, first, rho))
    else:
        trace.stop_reason = "max_steps"
    return state, trace


# ---------------------------------------------------------------------------
# residual checks against the exact evolution identities


def _probe_states(state: FlowState, h: float):
    """The state and two forward probe steps of size h, with the stage count
    and filter step would use at DEFAULT_CFL (no acceptance logic)."""
    filt = _stage_filter(state.graph.grid, DEFAULT_CFL)
    s = _stages(state, h, DEFAULT_CFL)
    fields = attrgetter("fields")
    s1 = _advance(state, h, filt, s, fields)
    return state, s1, _advance(s1, h, filt, s, fields)


@dataclass
class VariationalReport:
    k_residuals: np.ndarray      # relative residual of d/dt W_k vs the integral formula
    minkowski_residual: float    # |int f E_m| / int |f| E_m  (exact zero in the continuum)


def variational_check(state: FlowState) -> VariationalReport:
    """Centered-difference d/dt W_k against ((n+1-k)/(n+1)) int f E_k dmu.

    Uses two forward probe steps of h = cfl_dt/8 and centers the difference
    at t + h, where the integral formula is evaluated; k = m doubles as the
    discrete Minkowski-formula check since conservation makes that integral
    vanish.
    """
    n, m = state.graph.n, state.m
    h = cfl_dt(state) / 8.0
    s0, s1, s2 = _probe_states(state, h)
    f = s1.speed[0]
    residuals = np.zeros(n + 1)
    mink = 0.0
    for k in range(n + 1):
        fd = (s2.W[k] - s0.W[k]) / (2.0 * h)
        formula = (n + 1 - k) / (n + 1) * integrate(s1.fields, f * s1.fields.E[..., k])
        if k == m:
            scale = integrate(s1.fields, np.abs(f) * s1.fields.E[..., k])
            mink = abs(formula * (n + 1) / (n + 1 - k)) / max(scale, 1e-300)
            residuals[k] = abs(fd - formula) / max(scale, 1e-300)
        else:
            residuals[k] = abs(fd - formula) / max(abs(fd), abs(formula), 1e-300)
    return VariationalReport(k_residuals=residuals, minkowski_residual=mink)


def _surface_christoffel_full(fields: GeometryFields):
    """Christoffel symbols of the induced metric on the 2-sphere backend,
    assembled from analytic derivatives of g_ij = r_i r_j + lam^2 sigma_ij."""
    g = fields
    grid = g.grid
    sin_t, cos_t = grid.sin_t, grid.cos_t
    lam, lamp, r = g.lam, g.lamp, g.r
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
    minus the tangential-velocity transport f v <grad F, d_r>). The time
    derivative uses a second-order one-sided difference from two forward
    probe steps of h = cfl_dt/4; everything else is evaluated at the
    current state.
    """
    m = state.m
    grid = state.graph.grid
    h = cfl_dt(state) / 4.0
    s0, s1, s2 = _probe_states(state, h)
    # only the current state needs the gradient; the probes' F is cached
    F0, dF0 = quotient_eval(m, s0.fields.kappa)
    dFdt_graph = (-3.0 * F0 + 4.0 * s1.F - s2.F) / (2.0 * h)

    g = s0.fields
    f = s0.speed[0]
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
