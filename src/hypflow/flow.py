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

Every stage state goes through the grid's pole_filter. On the
latitude-longitude backend that is a zonal Fourier cutoff
k_cut(theta) ~ sin(theta)/dtheta on the polar cells: modes finer than the
cutoff on a polar ring are unresolvable there at the global time step (the
azimuthal mesh width collapses like sin theta) and would otherwise blow up
from rounding-level seeds. All shapes produced by the generators live below
the cutoff, so the filter is exact on resolved data. A zonal profile has no
azimuthal modes, so on the axisym grid the filter is the identity.

FlowState is the one evaluator of a graph's order-m quantities: every stage
of a step is a FlowState, and F and the speed are formed only there. step is
the one user of the stage machinery (_stages, _advance). The checks of the
flow's evolution identities live in checks and read only a state's graph,
F and speed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .hypersurface import (
    HCONVEX_TOL,
    GeometryFields,
    RadialGraph,
    DiscretizationError,
    integrate,
    traceless_measures,
)
from .symfunc import ConeViolationError, quotient_from_esym

__all__ = [
    "FlowState",
    "FlowTrace",
    "StepFailureError",
    "step",
    "run",
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
        """Normal speed f = lam'/F - u and the graph-gauge rate dr/dt = f*v."""
        F, fields = self.F, self.fields
        if F.min() <= 0.0:
            raise ConeViolationError(f"curvature quotient nonpositive (min F = {F.min():.3e})")
        f = fields.lamp / F - fields.u
        return f, f * fields.v

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


def _advance(state: FlowState, dt: float, c_cfl: float, s: int, geometry) -> FlowState:
    """Damped RKC2 update of the radii over dt in s stages from the state's
    own rate, every stage state through the grid's pole filter at cutoff
    2/sqrt(c_cfl), with the post-state's geometry; no acceptance test.
    geometry is called with every graph before its fields are read (s calls)."""
    graph, y0, f0 = state.graph, state.graph.r, state.speed[1]
    grid, c_pole = graph.grid, 2.0 / np.sqrt(c_cfl)
    table = _RKC[s]
    prev, cur = y0, grid.pole_filter(y0 + table.mu1 * dt * f0, c_pole)
    for mu, nu, mu_t, gamma_t in table.stages:
        stage = replace(state, graph=graph.with_values(cur))
        geometry(stage.graph)
        f = stage.speed[1]
        prev, cur = cur, grid.pole_filter((1.0 - mu - nu) * y0 + mu * cur + nu * prev
                                          + dt * (mu_t * f + gamma_t * f0), c_pole)
    graph = graph.with_values(cur)
    geometry(graph)
    return replace(state, graph=graph, t=state.t + dt)


def step(state: FlowState, dt: float, c_cfl: float):
    """One accepted RKC step; halves dt until the post-state is admissible.

    c_cfl is the CFL fraction dt was chosen with; it sets the cutoff of the
    grid's pole filter on every stage and, with dt, the stage count of each
    attempt.

    Returns (new_state, dt_used, halvings, evals); evals counts the geometry
    evaluations of every attempt. Acceptance requires finite
    geometry, min kappa >= 1 - 1e-8, and relative W_{m+1} increase below
    1e-10. These mirror the flow's exact invariants, so rejection signals a
    step too long for the stability limit.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    m = state.m
    state.speed  # a state outside the cone raises here, not as a step failure
    evals = 0

    def geometry(graph: RadialGraph) -> GeometryFields:
        nonlocal evals
        evals += 1
        return graph.fields

    last_err: dict = {}
    for halvings in range(MAX_HALVINGS + 1):
        try:
            new_state = _advance(state, dt, c_cfl, _stages(state, dt, c_cfl), geometry)
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


def cfl_dt(state: FlowState, c_cfl: float) -> float:
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
