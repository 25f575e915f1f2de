"""Deficit functional, sphere fitting, amplitude sweeps, and the
time-integrated deficit identity along the flow.

Oracles: geodesic spheres and their isometric offsets (zero deficit, exact
fits), quadratic small-amplitude scaling of the deficit, synthetic power-law
data for the exponent fit, and the closed-form relation between the flow's
accumulated dissipation and the initial deficit.
"""

import multiprocessing

import numpy as np
import pytest
from scipy.optimize import minimize

import hypflow.hypersurface as hypersurface
import hypflow.stability as stability
from hypflow.flow import FlowState, run
from hypflow.grids import AxisymGrid, FullSphereGrid
from hypflow.hypersurface import DiscretizationError, generate_shape, inradius
from hypflow.stability import (
    InsufficientDataError,
    SweepRecord,
    deficit,
    exponent_fit,
    proof_trace_check,
    sphere_fit,
    stability_sweep,
    sweep_worker_count,
)


def perturbed_family(grid, l=2, r0=1.0):
    def family(eps):
        if eps == 0.0:
            return generate_shape(grid, "sphere", r0)
        return generate_shape(grid, "perturbed_sphere", r0, eps=eps, l=l)
    return family


class TestDeficit:
    def test_sphere_is_extremal(self):
        for grid in [AxisymGrid(48, 2), AxisymGrid(48, 4), FullSphereGrid(48)]:
            for m in range(1, grid.n if grid.backend == "axisym" else 2):
                d = deficit(generate_shape(grid, "sphere", 1.0), m)
                assert abs(d.raw) < 1e-11
                assert d.value >= 0.0
                assert d.ball_radius == pytest.approx(1.0, abs=1e-10)

    def test_offset_sphere_zero_deficit(self):
        d = deficit(generate_shape(AxisymGrid(64, 2), "offset_sphere", 1.0, a=0.4), 1)
        assert abs(d.raw) < 1e-6  # discretization only
        assert d.ball_radius == pytest.approx(1.0, abs=1e-6)

    def test_perturbed_positive_and_quadratic(self):
        grid = AxisymGrid(48, 2)
        d1 = deficit(generate_shape(grid, "perturbed_sphere", 1.0, eps=0.05, l=2), 1)
        d2 = deficit(generate_shape(grid, "perturbed_sphere", 1.0, eps=0.1, l=2), 1)
        assert d1.value > 0.0 and d2.value > 0.0
        assert d2.value / d1.value == pytest.approx(4.0, rel=0.1)
        assert d1.value == d1.raw  # no clamping when genuinely positive
        from hypflow.hypersurface import ball_profile
        assert ball_profile(2, 1, d1.ball_radius) == pytest.approx(d1.W_m, rel=1e-10)

    def test_order_validation(self):
        g = generate_shape(AxisymGrid(32, 2), "sphere", 1.0)
        with pytest.raises(ValueError):
            deficit(g, 2)
        with pytest.raises(ValueError):
            deficit(g, -1)


class TestSphereFit:
    def test_exact_sphere(self):
        fit = sphere_fit(generate_shape(AxisymGrid(48, 2), "sphere", 1.2))
        assert fit.cheb < 1e-10
        assert fit.radius == pytest.approx(1.2, abs=1e-9)
        assert fit.center_norm() < 1e-7

    def test_offset_sphere_axisym(self):
        fit = sphere_fit(generate_shape(AxisymGrid(64, 2), "offset_sphere", 1.0, a=0.3))
        assert fit.cheb < 1e-8
        assert fit.radius == pytest.approx(1.0, abs=1e-8)
        assert fit.center_norm() == pytest.approx(0.3, abs=1e-6)

    def test_offset_sphere_axisym_to_rounding(self):
        # the axis search is Nelder-Mead as on the full grid, so the offset
        # sphere's center and radius come out to rounding
        graph = generate_shape(AxisymGrid(64, 2), "offset_sphere", 1.0, a=0.3)
        assert abs(inradius(graph).rho - 1.0) <= 1e-12
        assert sphere_fit(graph).cheb <= 1e-14

    def test_offset_sphere_full(self):
        fit = sphere_fit(generate_shape(FullSphereGrid(32), "offset_sphere", 1.0, a=0.3))
        assert fit.cheb < 1e-8
        assert fit.center_norm() == pytest.approx(0.3, abs=1e-6)

    def test_perturbed_distance_scale(self):
        # zonal l=2 with unit-L2 harmonic: best center stays at the origin by
        # symmetry and the gap is eps * (max Y - min Y)/2 to first order
        eps = 0.1
        fit = sphere_fit(generate_shape(AxisymGrid(48, 2), "perturbed_sphere", 1.0,
                                        eps=eps, l=2))
        y_half_range = 0.75 * np.sqrt(5.0 / (4.0 * np.pi))
        assert fit.center_norm() < 1e-6
        assert fit.cheb == pytest.approx(eps * y_half_range, rel=0.02)

    def test_dist_does_not_depend_on_the_start(self):
        # the polish takes the search to the optimum itself, so dist is
        # reproducible to rounding, not only to the simplex's fatol
        graph = generate_shape(FullSphereGrid(32), "perturbed_sphere", 1.0, eps=0.0125,
                               l=3, order=1)
        dists = []
        for start in (np.zeros(3), np.array([0.02, -0.01, 0.01])):
            _, (lo, hi) = graph.extremes.search([start], True)
            dists.append(0.5 * (hi - lo))
        assert dists[1] == pytest.approx(dists[0], rel=1e-13)
        assert sphere_fit(graph).cheb == pytest.approx(dists[0], rel=1e-13)

    @pytest.mark.parametrize("grid", [FullSphereGrid(32), AxisymGrid(48, 2), AxisymGrid(48, 4)],
                             ids=["full", "axisym_n2", "axisym_n4"])
    def test_sphere_about_origin_centers_exactly_at_origin(self, grid):
        # the origin is a start of both searches and no simplex vertex off it
        # reads better, so no rounding-level offset survives
        graph = generate_shape(grid, "sphere", 1.0)
        assert inradius(graph).center_norm() == 0.0
        assert sphere_fit(graph).center_norm() == 0.0


class TestSweep:
    def test_records_sorted_and_conventions(self):
        res = stability_sweep(perturbed_family(AxisymGrid(48, 2)), 1,
                              [0.1, 0.0, 0.05, 0.2], n=2, workers=1)
        eps = [r.eps for r in res.records]
        assert eps == sorted(eps) and len(res.records) == 4
        zero = res.records[0]
        assert zero.eps == 0.0 and zero.dist == 0.0 and zero.ratio == 0.0
        defs = [r.deficit for r in res.records[1:]]
        assert all(b > a for a, b in zip(defs, defs[1:]))
        assert res.rejections == []
        assert res.n == 2 and res.m == 1

    def test_rejected_member_recorded_not_fatal(self):
        res = stability_sweep(perturbed_family(AxisymGrid(48, 2)), 1,
                              [0.05, 0.1, 0.8], n=2, workers=1)
        assert len(res.records) == 2
        assert len(res.rejections) == 1
        assert res.rejections[0][0] == 0.8

    def test_one_inradius_per_member(self, count_calls):
        # sphere_fit reuses the member's inradius for its starts and rhoMinus
        calls = count_calls("inradius")
        # in-process: a call made in a sweep's worker process never reaches `calls`
        fam = perturbed_family(AxisymGrid(32, 2))
        statuses = [stability._sweep_one(fam, 1, eps)[0] for eps in [0.0, 0.05, 0.1, 0.8]]
        assert statuses == ["ok", "ok", "ok", "rejected"]
        assert len(calls) == 3

    def test_one_geometry_and_node_matrix_per_member(self, count_calls):
        # the shape check, F, the deficit and maxH share one geometry; the
        # inradius and the sphere fit share one distance evaluator
        geometry, nodes = count_calls("geometry_fields"), count_calls("distance_range")
        status, _, _ = stability._sweep_one(perturbed_family(AxisymGrid(32, 2)), 1, 0.05)
        assert status == "ok"
        assert (len(geometry), len(nodes)) == (1, 1)

    def test_clamp_window_rejection(self, monkeypatch):
        from hypflow.stability import DeficitResult
        monkeypatch.setattr(stability, "deficit",
                            lambda g, m: DeficitResult(
                                value=0.0, raw=-1.0, W_m=5.0, W_m1=5.0, ball_radius=1.0))
        status, eps, payload = stability._sweep_one(
            perturbed_family(AxisymGrid(32, 2)), 1, 0.05)
        assert status == "rejected" and "clamp" in payload

    def test_worker_invariance(self):
        fam = perturbed_family(AxisymGrid(48, 2))
        lines = [list(stability_sweep(fam, 1, [0.05, 0.1, 0.2, 0.0], n=2,
                                      workers=workers).csv_lines())
                 for workers in (1, 2, 4)]
        assert lines[0] == lines[1] == lines[2]
        assert multiprocessing.active_children() == []

    def test_member_error_keeps_type_and_message(self):
        # a member's error is pickled back from its worker process
        base = perturbed_family(AxisymGrid(32, 2))

        def family(eps):
            if eps == 0.1:
                raise DiscretizationError("synthetic failure at eps 0.1")
            return base(eps)
        with pytest.raises(DiscretizationError) as exc:
            stability_sweep(family, 1, [0.05, 0.1, 0.2], n=2, workers=2)
        assert type(exc.value) is DiscretizationError
        assert str(exc.value) == "synthetic failure at eps 0.1"
        assert multiprocessing.active_children() == []

    def test_worker_count_resolution(self, monkeypatch):
        # the environment has no say: the configured value wins
        monkeypatch.setenv("HYPFLOW_THREADS", "2")
        assert sweep_worker_count(8, configured=3) == 3
        assert sweep_worker_count(2, configured=5) == 2   # capped by jobs
        monkeypatch.setattr(stability.os, "cpu_count", lambda: 6)
        assert sweep_worker_count(8) == 6                 # default: CPU count
        assert sweep_worker_count(4) == 4

    def test_csv_header_frozen(self):
        assert SweepRecord.csv_header() == \
            "eps,deficit,dist,ratio_m2,ratio_3,minF,maxF,maxH,rhoMinus"

    def test_csv_row_roundtrip(self):
        res = stability_sweep(perturbed_family(AxisymGrid(48, 2)), 1, [0.1], n=2, workers=1)
        row = res.records[0].csv_row()
        vals = [float(x) for x in row.split(",")]
        assert len(vals) == 9
        assert vals[0] == 0.1 and vals[1] == res.records[0].deficit

    def test_empty_eps_list_rejected(self):
        with pytest.raises(ValueError):
            stability_sweep(perturbed_family(AxisymGrid(32, 2)), 1, [], n=2)

    def test_order_outside_the_flow_range_rejected(self):
        # a member's F is the flow's own, which has no order m = 0
        with pytest.raises(ValueError):
            stability._sweep_one(perturbed_family(AxisymGrid(32, 2)), 0, 0.05)


def _member_dist(grid, l, order, eps):
    """dist of the sweep member r = 1 + eps Y_l."""
    kw = {"order": order} if grid.backend == "full" else {}
    status, _, rec = stability._sweep_one(
        lambda e: generate_shape(grid, "perturbed_sphere", 1.0, eps=e, l=l, **kw), 1, eps)
    assert status == "ok"
    return rec.dist


def _chebyshev_gap_modulo_translations(grid, Y):
    """min over a of (max - min)/2 of Y - a.x at the nodes: the half-range of
    Y once the first-order move of the centre, the l = 1 function a.x, is
    spent; Nelder-Mead restarted from its own result until it stops moving."""
    x = grid.xyz.reshape(-1, grid.xyz.shape[-1])
    y = Y.ravel()

    def gap(a):
        z = y - x @ a
        return 0.5 * (z.max() - z.min())
    a, best = np.zeros(x.shape[1]), np.inf
    for _ in range(10):
        res = minimize(gap, a, method="Nelder-Mead",
                       options={"xatol": 1e-12, "fatol": 1e-15, "maxiter": 20000})
        if res.fun >= best:
            break
        a, best = res.x, res.fun
    return best


class TestSweepDistanceLimit:
    """dist/eps of r = 1 + eps Y_l as eps -> 0. An even Y_l keeps the best
    centre at the origin, so dist is eps (max Y - min Y)/2 exactly; an odd
    one moves the centre at first order, to the Chebyshev gap of Y modulo
    the l = 1 functions."""

    @pytest.mark.parametrize("grid,l,order", [
        (AxisymGrid(64, 2), 2, 0), (AxisymGrid(64, 8), 2, 0), (FullSphereGrid(32), 2, 2),
    ], ids=["axisym64-n2", "axisym64-n8", "full32-o2"])
    def test_even_harmonic(self, grid, l, order):
        # measured at most 1.3e-12
        Y = hypersurface._harmonic(grid, l, order)
        half = 0.5 * (Y.max() - Y.min())
        for eps in (1e-2, 1e-3, 1e-4):
            assert _member_dist(grid, l, order, eps) / (eps * half) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("grid,l,order", [
        (AxisymGrid(64, 2), 3, 0), (AxisymGrid(64, 4), 3, 0),
        (FullSphereGrid(32), 3, 1), (FullSphereGrid(32), 3, 0),
    ], ids=["axisym64-n2", "axisym64-n4", "full32-o1", "full32-o0"])
    def test_odd_harmonic(self, grid, l, order):
        # measured 2.7e-6, 1.3e-5, 4.0e-7 and 2.7e-6 at eps = 1e-4; the
        # half-range itself is off by -0.37, -0.56, -0.10 and -0.37
        Y = hypersurface._harmonic(grid, l, order)
        limit = _chebyshev_gap_modulo_translations(grid, Y)
        assert limit < 0.95 * 0.5 * (Y.max() - Y.min())
        eps = 1e-4
        assert _member_dist(grid, l, order, eps) / eps == pytest.approx(limit, rel=1e-4)


class TestExponentFit:
    def test_synthetic_power_law_exact(self):
        rng = np.random.default_rng(3)
        defs = 10.0 ** rng.uniform(-6, -2, 8)
        recs = [SweepRecord(eps=0.1, deficit=d, dist=1.7 * d ** 0.37,
                            ratio=0.0, ratio3=0.0, minF=1.0, maxF=2.0, maxH=3.0,
                            rho_minus=1.0) for d in defs]
        slope, intercept, r2 = exponent_fit(recs)
        assert slope == pytest.approx(0.37, abs=1e-12)
        assert np.exp(intercept) == pytest.approx(1.7, rel=1e-12)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_real_sweep_slope_near_half(self):
        res = stability_sweep(perturbed_family(AxisymGrid(48, 2)), 1,
                              [0.05, 0.1, 0.2], n=2, workers=1)
        slope, _, r2 = exponent_fit(res.records)
        assert slope == pytest.approx(0.5, abs=0.05)
        assert r2 > 0.999

    def test_too_few_points(self):
        res = stability_sweep(perturbed_family(AxisymGrid(48, 2)), 1,
                              [0.0, 0.05, 0.1], n=2, workers=1)
        with pytest.raises(InsufficientDataError):
            exponent_fit(res.records)  # only 2 usable points

    def test_degenerate_spread(self):
        recs = [SweepRecord(eps=e, deficit=1e-4, dist=0.01,
                            ratio=0.0, ratio3=0.0, minF=1.0, maxF=2.0, maxH=3.0,
                            rho_minus=1.0) for e in (0.1, 0.2, 0.3)]
        with pytest.raises(InsufficientDataError):
            exponent_fit(recs)


class TestProofTrace:
    def test_identity_along_full_relaxation(self):
        g = generate_shape(AxisymGrid(48, 2), "perturbed_sphere", 1.0, eps=0.1, l=2)
        _, trace = run(FlowState.create(g, 1), t_max=30.0)
        rep = proof_trace_check(g, 1, trace)
        assert rep.converged
        assert rep.stop_reason == "traceless_small"
        assert rep.relative_residual < 1e-3
        assert rep.target == pytest.approx(3.0 * rep.initial_deficit.value, rel=1e-12)
        assert rep.delta == pytest.approx(rep.initial_deficit.value ** (1 / 3), rel=1e-12)
        assert rep.window_mass > 0.0
        assert 0.0 < rep.window_constant < 100.0

    def test_sphere_trivial(self):
        g = generate_shape(AxisymGrid(32, 2), "sphere", 1.0)
        _, trace = run(FlowState.create(g, 1), t_max=1.0)
        rep = proof_trace_check(g, 1, trace)
        assert rep.cum_integral == 0.0
        assert abs(rep.target) < 1e-12
        assert rep.converged
        assert rep.window_mass == 0.0

    def test_precomputed_run_is_reused(self):
        g = generate_shape(AxisymGrid(48, 2), "perturbed_sphere", 1.0, eps=0.1, l=2)
        pre = run(FlowState.create(g, 1), t_max=30.0)
        rep = proof_trace_check(g, 1, pre[1])
        rep2 = proof_trace_check(g, 1, pre[1])
        assert rep.cum_integral == rep2.cum_integral == float(pre[1].rows[-1]["cumDeficitIntegral"])
        assert rep.relative_residual < 1e-3

    def test_truncated_run_reports_skipped(self):
        g = generate_shape(AxisymGrid(48, 2), "perturbed_sphere", 1.0, eps=0.1, l=2)
        _, trace = run(FlowState.create(g, 1), t_max=0.05)
        rep = proof_trace_check(g, 1, trace)
        assert rep.stop_reason == "t_max"
        assert not rep.converged
