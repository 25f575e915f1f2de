"""End-to-end acceptance suite.

Independent checks covering: exact stationarity of spheres, drift of the
conserved functional under grid refinement, monotone descent of the next
functional, convergence to the round limit determined by the conserved
value, recentering of offset spheres along the exact solution, the linear
decay rate of each harmonic mode, the deficit's second-variation constant,
the integral curvature identities on random shapes, nonnegativity of the
isoperimetric-type deficit, the sharp stability exponent in two settings,
quiet a-priori monitors, the accumulated dissipation identity, pointwise
consistency of the quotient's evolution equation, the conformal transplant,
and the symmetric-function kernel.

The three long flow runs are session-scoped fixtures shared by several
checks; every tolerance here is pinned, not adaptive.
"""

import time

import numpy as np
import pytest

from hypflow.checks import (
    _random_shape_pool,
    check_subset_oracle,
    check_symfunc_fuzz,
    minkowski_residuals,
    pointwise_F_check,
)
from hypflow.conformal import (
    area_identity_check,
    conf_relation_residual,
    image_convexity_margin,
    to_ball,
)
from hypflow.flow import FlowState, run
from hypflow.grids import AxisymGrid, FullSphereGrid
from hypflow.hypersurface import (
    ball_profile,
    generate_shape,
    geometry_fields,
    inradius,
)
from hypflow.stability import (
    deficit,
    exponent_fit,
    proof_trace_check,
    sphere_fit,
    stability_sweep,
)

MONO_TOL = 1e-10
SWEEP_EPS = [0.0125, 0.025, 0.05, 0.1, 0.2]


def timed_run(grid, *, kind="perturbed_sphere", m=1, t_max, tol_stop=1e-6, **shape_kw):
    graph = generate_shape(grid, kind, 1.0, **shape_kw)
    state = FlowState.create(graph, m)
    t0 = time.monotonic()
    final, trace = run(state, t_max=t_max, tol_stop=tol_stop)
    return {"graph": graph, "state0": state, "final": final, "trace": trace,
            "elapsed": time.monotonic() - t0}


@pytest.fixture(scope="session")
def relax96():
    """Reference relaxation: perturbed sphere on the full backend at J=96."""
    return timed_run(FullSphereGrid(96), eps=0.05, l=2, t_max=20.0)


@pytest.fixture(scope="session")
def relax48():
    """Same initial shape at half resolution, for the convergence comparison."""
    return timed_run(FullSphereGrid(48), eps=0.05, l=2, t_max=20.0)


@pytest.fixture(scope="session")
def recenter96():
    """Offset geodesic sphere, run with the smallness stop disabled so the
    center has time to migrate to the origin."""
    return timed_run(AxisymGrid(96, 2), kind="offset_sphere", a=0.3,
                     t_max=10.0, tol_stop=0.0)


class TestStationarity:
    def test_sphere_is_numerically_stationary(self):
        t0 = time.monotonic()
        graph = generate_shape(FullSphereGrid(64), "sphere", 1.0)
        state = FlowState.create(graph, 1)
        f, _ = state.speed
        final, trace = run(state, t_max=1.0)
        elapsed = time.monotonic() - t0
        assert np.abs(f).max() <= 1e-10
        assert final.t == 0.0 and len(trace.rows) == 1
        assert elapsed < 1.0


class TestConservationAndDescent:
    def test_conserved_functional_drift_and_grid_order(self, relax96, relax48):
        w96 = relax96["trace"].column("W1")
        w48 = relax48["trace"].column("W1")
        drift96 = np.abs(w96 - w96[0]).max() / abs(w96[0])
        drift48 = np.abs(w48 - w48[0]).max() / abs(w48[0])
        assert drift96 <= 1e-4
        assert drift48 >= 4.0 * drift96
        assert relax96["elapsed"] + relax48["elapsed"] < 300.0, (
            f"relax96 {relax96['elapsed']:.1f} s + relax48 {relax48['elapsed']:.1f} s "
            f"exceeds the 300.0 s bound")

    def test_descending_functional_monotone_without_deadlock(self, relax96):
        trace = relax96["trace"]
        w2 = trace.column("W2")
        assert np.all(np.diff(w2) <= MONO_TOL * np.abs(w2[:-1]))
        # the run finished by itself: no step ever exhausted its halvings
        assert trace.stop_reason in ("traceless_small", "stationary")

    def test_limit_sphere_radius_matches_conserved_value(self, relax96):
        final = relax96["final"]
        fit = sphere_fit(final.graph)
        assert fit.cheb <= 1e-4
        w1_0 = relax96["state0"].W_init[1]
        w1_limit = ball_profile(2, 1, fit.radius)
        assert abs(w1_limit - w1_0) / abs(w1_0) <= 1e-3


class TestRecentering:
    def test_offset_sphere_speed_and_recentering(self, recenter96):
        state0, final = recenter96["state0"], recenter96["final"]
        g = state0.graph
        r0, a = 1.0, 0.3
        f, _ = state0.speed
        cos_tc = (np.cosh(a) * np.cosh(r0) - np.cosh(g.r)) / (np.sinh(a) * np.sinh(r0))
        f_ref = np.sinh(a) * cos_tc / np.cosh(r0)
        assert np.abs(f - f_ref).max() <= 1e-6
        fit = sphere_fit(final.graph)
        assert fit.center_norm() <= 1e-2
        assert fit.radius == pytest.approx(r0, abs=1e-2)

    @pytest.mark.parametrize("grid,m,a_tol,fit_tol,w_tol", [
        (AxisymGrid(48, 2), 1, 6e-8, 6e-8, 2e-7),     # measured 2.8e-8, 2.5e-8, 8.7e-8
        (AxisymGrid(64, 4), 2, 2e-8, 2e-8, 1.5e-7),   # measured 8.9e-9, 9.6e-9, 5.8e-8
        (FullSphereGrid(32), 1, 4e-7, 3e-7, 1e-6),    # measured 1.4e-7, 1.3e-7, 4.4e-7
    ], ids=["axisym48-n2m1", "axisym64-n4m2", "full32-m1"])
    def test_recentering_sphere_is_exact(self, grid, m, a_tol, fit_tol, w_tol):
        # a geodesic sphere of radius R centred at distance a0 stays a sphere of
        # radius R while tanh(a/2) = tanh(a0/2) exp(-t/cosh R), for every n and
        # m; congruent spheres keep every W_k
        r0, a0 = 1.0, 0.3
        state = FlowState.create(generate_shape(grid, "offset_sphere", r0, a=a0), m)
        W0 = state.W.copy()
        for t in (0.5, 1.0, 2.0, 4.0):
            state, trace = run(state, t_max=t, tol_stop=0.0)
            assert trace.stop_reason == "t_max" and trace.rejections == 0
            fit = sphere_fit(state.graph)
            a_ref = 2.0 * np.arctanh(np.tanh(a0 / 2.0) * np.exp(-t / np.cosh(r0)))
            assert abs(fit.center_norm() - a_ref) < a_tol
            assert max(fit.cheb, abs(fit.radius - r0)) < fit_tol
            assert np.abs(state.W / W0 - 1.0).max() < w_tol


class TestLinearDecay:
    @pytest.mark.parametrize("grid,m,l,order,tol", [
        (AxisymGrid(48, 2), 1, 2, 0, 4e-5),      # measured -1.5e-5
        (AxisymGrid(64, 4), 2, 2, 0, 5e-5),      # measured -2.2e-5
        (AxisymGrid(64, 4), 1, 3, 0, 1.5e-5),    # measured -5.1e-6
        (AxisymGrid(64, 4), 3, 3, 0, 1.5e-5),    # measured -5.1e-6: m does not enter
        (FullSphereGrid(32), 1, 3, 2, 4e-4),     # measured -1.5e-4
    ], ids=["axisym48-n2m1l2", "axisym64-n4m2l2", "axisym64-n4m1l3", "axisym64-n4m3l3",
            "full32-m1l3"])
    def test_mode_decays_at_linear_rate(self, grid, m, l, order, tol):
        # near the sphere r = R the flow is phi_t = Laplace(phi)/(n cosh R), so
        # the degree-l mode decays at l(l+n-1)/(n cosh R), whatever m is
        R, n = 1.0, grid.n
        kw = {"order": order} if grid.backend == "full" else {}
        graph = generate_shape(grid, "perturbed_sphere", R, eps=1e-4, l=l, **kw)
        _, trace = run(FlowState.create(graph, m), t_max=2.0, tol_stop=0.0)
        t, atr = trace.column("t"), trace.column("AtrL2")
        late = t >= 0.4
        rate = -np.polyfit(t[late], np.log(atr[late]), 1)[0]
        assert rate == pytest.approx(l * (l + n - 1) / (n * np.cosh(R)), rel=tol)


def second_variation(n: int, m: int, l: int, R: float) -> float:
    """c with deficit = c eps^2 + O(eps^3) for r = R + eps Y_l, Y_l of unit
    L^2(S^n) norm: the linear flow decays the mode at mu/(n cosh R), its
    dissipation integrand is cosh R coth^{m-2} R int |A_tr|^2 / (n(n-1)), and
    deficit = (n-m)/(n+1) times the dissipation integral, with mu = l(l+n-1)."""
    mu = l * (l + n - 1)
    return ((n - m) * (mu - n) / (2.0 * n * (n + 1)) * np.cosh(R) ** 2
            * np.tanh(R) ** (2 - m) * np.sinh(R) ** (n - 4))


class TestSecondVariation:
    @staticmethod
    def extrapolated(grid, m, l, R, **kw):
        """deficit/eps^2 at eps = 0.01 and 0.005, extrapolated to eps = 0; the
        expansion is even in eps for odd l, since Y_l(-x) = -Y_l(x)."""
        q = [deficit(generate_shape(grid, "perturbed_sphere", R, eps=eps, l=l, **kw), m).raw
             / eps ** 2 for eps in (0.01, 0.005)]
        return 2.0 * q[1] - q[0] if l % 2 == 0 else (4.0 * q[1] - q[0]) / 3.0

    @pytest.mark.parametrize("n,m,l,R", [
        (2, 1, 2, 1.0), (3, 1, 2, 1.0), (3, 2, 3, 0.7), (4, 2, 2, 1.0),
        (4, 1, 4, 1.5), (6, 3, 3, 0.5), (6, 5, 2, 2.0), (8, 4, 2, 1.0),
    ])
    def test_deficit_constant_axisym(self, n, m, l, R):
        # measured: at most 3.8e-5 relative for even l (the O(eps^2) remainder
        # of the two-point extrapolation), 2.3e-7 for odd l
        got = self.extrapolated(AxisymGrid(64, n), m, l, R)
        tol = 1e-4 if l % 2 == 0 else 6e-7
        assert got == pytest.approx(second_variation(n, m, l, R), rel=tol)

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_deficit_constant_full(self, order):
        # measured 1.7e-9, 1.3e-9 and 9.0e-10 relative
        got = self.extrapolated(FullSphereGrid(32), 1, 3, 1.0, order=order)
        assert got == pytest.approx(second_variation(2, 1, 3, 1.0), rel=5e-9)


class TestIntegralIdentities:
    def test_minkowski_residual_decays_at_second_order(self):
        res = []
        for J in (48, 96):
            g = generate_shape(AxisymGrid(J, 3), "perturbed_sphere", 1.0, eps=0.1, l=2)
            res.append(minkowski_residuals(g).max())
        # spectral derivatives leave rounding only: 2.9e-16 and 2.2e-16 measured
        assert max(res) < 1e-15


class TestDeficitSign:
    def test_deficit_nonnegative_on_random_shapes(self):
        shapes = _random_shape_pool(seed=1, count=200, J=48)
        assert len(shapes) == 200
        evaluations = 0
        for graph in shapes:
            n = graph.n
            for m in range(1, n):  # every admissible order for this shape
                d = deficit(graph, m)
                assert d.raw >= -1e-6 * max(abs(d.W_m1), 1.0)
                assert d.value >= 0.0
                evaluations += 1
        assert evaluations >= 200

    def test_deficit_vanishes_on_balls(self):
        for r0 in (0.5, 1.0, 2.0):
            for a in (0.0, 0.2):
                for grid in [AxisymGrid(96, 2), AxisymGrid(96, 3)]:
                    kind = "offset_sphere" if a else "sphere"
                    kw = {"a": a} if a else {}
                    d = deficit(generate_shape(grid, kind, r0, **kw), 1)
                    assert abs(d.raw) <= 1e-6


class TestStabilityExponent:
    def test_sharp_exponent_surface_case(self):
        t0 = time.monotonic()

        def family(eps):
            return generate_shape(FullSphereGrid(96), "perturbed_sphere", 1.0,
                                  eps=eps, l=2)

        res = stability_sweep(family, 1, SWEEP_EPS, n=2)
        assert res.rejections == [] and len(res.records) == 5
        c_star = res.records[-1].ratio3            # anchored at the largest eps
        assert c_star == res.max_ratio() or c_star >= max(r.ratio3 for r in res.records) - 1e-12
        for rec in res.records:
            assert c_star * rec.deficit ** (1.0 / 3.0) - rec.dist >= -1e-12
        slope, _, r2 = exponent_fit(res.records)
        assert abs(slope - 0.50) <= 0.05
        assert r2 > 0.99
        assert time.monotonic() - t0 < 1200.0

    def test_sharp_exponent_higher_codimension_order(self):
        def family(eps):
            return generate_shape(AxisymGrid(96, 4), "perturbed_sphere", 1.0,
                                  eps=eps, l=2)

        res = stability_sweep(family, 2, SWEEP_EPS, n=4)
        assert res.rejections == [] and len(res.records) == 5
        c_star = max(rec.ratio for rec in res.records)  # dist / deficit^{1/4}
        assert res.records[-1].ratio == pytest.approx(c_star, rel=1e-12)
        for rec in res.records:
            assert c_star * rec.deficit ** 0.25 - rec.dist >= -1e-12
        slope, _, r2 = exponent_fit(res.records)
        assert abs(slope - 0.50) <= 0.05
        assert r2 > 0.99


class TestMonitors:
    def test_monitors_stay_quiet_on_reference_run(self, relax96):
        trace = relax96["trace"]
        assert trace.flag_count == 0
        # static consistency of the support-function floor at t = 0
        state0 = relax96["state0"]
        rho = inradius(state0.graph).rho
        min_u0 = float(state0.fields.u.min())
        assert min_u0 >= np.sinh(rho) - 1e-4
        assert float(state0.fields.u.max()) <= np.exp(rho) + 1e-8


class TestDissipationBudget:
    def test_accumulated_dissipation_matches_initial_deficit(self, relax96):
        rep = proof_trace_check(relax96["graph"], 1, relax96["trace"])
        assert rep.converged
        assert rep.relative_residual <= 0.01


class TestEvolutionConsistency:
    def test_quotient_evolution_residual_decays(self):
        res = []
        for J in (64, 128):
            graph = generate_shape(FullSphereGrid(J), "perturbed_sphere", 1.0,
                                   eps=0.05, l=2)
            res.append(pointwise_F_check(FlowState.create(graph, 1)))
        # the spatial error is at rounding on this zonal shape, and so is the
        # central difference along the flow velocity: 1.2e-9 at J=64 and
        # 1.3e-9 at J=128 measured
        assert res[0] < 3e-8
        assert res[1] < 1.5e-7

    @pytest.mark.parametrize("J,l,order,tol", [
        (128, 2, 2, 1e-5),    # measured 2.2e-6
        (96, 3, 1, 5e-6),     # measured 9.3e-7
    ], ids=["full128-l2o2", "full96-l3o1"])
    def test_quotient_evolution_residual_non_zonal(self, J, l, order, tol):
        # non-zonal shapes carry the polar rings' rounding into F; differenced
        # over flow time 2e-3 it stays far below the law's size
        graph = generate_shape(FullSphereGrid(J), "perturbed_sphere", 1.0,
                               eps=0.05, l=l, order=order)
        assert pointwise_F_check(FlowState.create(graph, 1)) < tol


class TestConformalTransplant:
    def test_sphere_images_exact(self):
        for grid in [AxisymGrid(96, 2), AxisymGrid(96, 4), FullSphereGrid(96)]:
            graph = generate_shape(grid, "sphere", 1.0)
            fields = geometry_fields(graph)
            image = to_ball(graph)
            assert conf_relation_residual(fields, image)[0] <= 1e-10
            assert area_identity_check(fields, image).relative_mismatch <= 1e-10

    def test_perturbed_images_accurate(self):
        cases = [
            (AxisymGrid(96, 2), {"eps": 0.1, "l": 2}),
            (AxisymGrid(96, 4), {"eps": 0.05, "l": 3}),
            (FullSphereGrid(96), {"eps": 0.05, "l": 2, "order": 2}),
        ]
        for grid, kw in cases:
            graph = generate_shape(grid, "perturbed_sphere", 1.0, **kw)
            fields = geometry_fields(graph)
            image = to_ball(graph)
            assert conf_relation_residual(fields, image)[0] <= 1e-4
            assert image_convexity_margin(image) >= -1e-8
            assert area_identity_check(fields, image).relative_mismatch <= 1e-4


class TestSymmetricFunctionKernel:
    def test_inequality_fuzz_within_budget(self):
        result = check_symfunc_fuzz(seed=0)
        assert result.passed, result.detail
        assert result.elapsed < 30.0

    def test_subset_enumeration_oracle(self):
        result = check_subset_oracle(seed=0)
        assert result.passed, result.detail
