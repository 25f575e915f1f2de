"""Geometry of radial graphs: fundamental forms, quermassintegrals, shapes.

Oracles used here:
  * closed-form geodesic-sphere geometry (kappa = coth r, u = sinh r, ...),
  * the hyperbolic law of cosines for offset-sphere profiles and distances,
  * scipy.integrate.quad for the sinh-power antiderivatives,
  * frozen high-precision decimals for the unit-ball quermassintegrals,
    computed once from the closed profile formulas and pinned.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from hypflow.grids import AxisymGrid, FullSphereGrid
from hypflow.hypersurface import (
    EUCLIDEAN,
    HCONVEX_TOL,
    DiscretizationError,
    RadialGraph,
    ShapeRejectionError,
    ball_profile,
    ball_profile_inverse,
    distance_range,
    generate_shape,
    geodesic_distances,
    geometry_fields,
    hconvexity_margin,
    inradius,
    integrate,
    quermassintegrals,
    random_hconvex_shape,
    search_center,
    sinh_power_integral,
    traceless_measures,
)

# Pinned once from the closed forms f_0(r) = omega_n * I_n(r) + W_1-recursion
# evaluated in 80-bit/mpmath-free exact reduction; unit geodesic ball, n = 2.
W_UNIT_BALL_N2 = (5.110932705708288, 5.785129127257144, 5.892434440022487)
OFFSET_EQUATOR_RADIUS = 0.9407826541565111  # arccosh(cosh 1 / cosh 0.3)


def sphere_grids(J=32):
    return [AxisymGrid(J, 2), AxisymGrid(J, 4), FullSphereGrid(J)]


class TestSphereGeometry:
    @pytest.mark.parametrize("r0", [0.4, 1.0, 2.3])
    def test_closed_form_fields(self, r0):
        for grid in sphere_grids():
            g = generate_shape(grid, "sphere", r0)
            f = geometry_fields(g)
            n = f.n
            # difference-form stencils kill constants exactly, so these are
            # exact to rounding, not just to discretization order
            assert np.abs(f.kappa - 1.0 / np.tanh(r0)).max() < 1e-13
            assert np.abs(f.v - 1.0).max() < 1e-14
            assert np.abs(f.u - np.sinh(r0)).max() < 1e-13
            assert np.abs(f.H - n / np.tanh(r0)).max() < 1e-12
            for k in range(n + 1):
                assert np.abs(f.E[..., k] - np.cosh(r0) ** k / np.sinh(r0) ** k).max() < 1e-12
            assert hconvexity_margin(f) > 0.0

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_sphere_area(self, n):
        grid = FullSphereGrid(48) if n == 2 else AxisymGrid(48, n)
        r0 = 1.3
        f = geometry_fields(generate_shape(grid, "sphere", r0))
        area = integrate(f, np.ones_like(f.r))
        from math import gamma, pi
        omega_n = 2.0 * pi ** ((n + 1) / 2) / gamma((n + 1) / 2)
        assert area == pytest.approx(omega_n * np.sinh(r0) ** n, rel=1e-12)

    def test_traceless_zero_on_spheres(self):
        for grid in sphere_grids():
            f = geometry_fields(generate_shape(grid, "sphere", 0.8))
            l2, sup = traceless_measures(f)
            assert l2 < 1e-12 and sup < 1e-12

    def test_euclidean_warp_sphere(self):
        # same plumbing, flat warp: Euclidean sphere of radius r0
        r0 = 1.7
        f = geometry_fields(generate_shape(AxisymGrid(32, 3), "sphere", r0), EUCLIDEAN)
        assert np.abs(f.kappa - 1.0 / r0).max() < 1e-13
        assert np.abs(f.u - r0).max() < 1e-13
        assert np.abs(f.H - 3.0 / r0).max() < 1e-12


class TestStencilReuse:
    def test_full_fields_match_single_derivative_calls(self):
        # geometry_fields pads once per axis and builds r_theta_phi from r_theta;
        # every stored derivative must equal the one-call stencil bit for bit
        grid = FullSphereGrid(32)
        for graph in (generate_shape(grid, "perturbed_sphere", 1.0, eps=0.05, l=3, order=2),
                      generate_shape(grid, "offset_sphere", 1.0, a=0.3)):
            fields = geometry_fields(graph)
            r = graph.r
            assert np.array_equal(fields.rtp, grid.d_theta_phi(r))
            assert np.array_equal(fields.rt, grid.d_theta(r))
            assert np.array_equal(fields.rtt, grid.d_theta2(r))
            assert np.array_equal(fields.rp, grid.d_phi(r))
            assert np.array_equal(fields.rpp, grid.d_phi2(r))

    def test_axisym_fields_match_single_derivative_calls(self):
        grid = AxisymGrid(32, 3)
        graph = generate_shape(grid, "perturbed_sphere", 1.0, eps=0.05, l=3)
        fields = geometry_fields(graph)
        assert np.array_equal(fields.rt, grid.d_theta(graph.r))
        assert np.array_equal(fields.rtt, grid.d_theta2(graph.r))


class TestOffsetSphere:
    def test_profile_law_of_cosines(self):
        r0, a = 1.0, 0.3
        for grid in [AxisymGrid(48, 2), FullSphereGrid(48)]:
            g = generate_shape(grid, "offset_sphere", r0, a=a)
            theta = grid.theta if grid.backend == "axisym" else grid.theta[:, None]
            lhs = np.cosh(g.r) * np.cosh(a) - np.sinh(g.r) * np.sinh(a) * np.cos(theta)
            assert np.abs(lhs - np.cosh(r0)).max() < 1e-12

    def test_equator_radius_frozen(self):
        grid = AxisymGrid(64, 2)
        g = generate_shape(grid, "offset_sphere", 1.0, a=0.3)
        # no node sits exactly on the equator; evaluate the closed profile
        # at theta = pi/2 through the same law-of-cosines inversion
        r_eq = np.arccosh(np.cosh(1.0) / np.cosh(0.3))
        assert r_eq == pytest.approx(OFFSET_EQUATOR_RADIUS, abs=1e-15)
        # interpolation sanity: nodes adjacent to the equator straddle it
        j = np.searchsorted(grid.theta, np.pi / 2)
        assert min(g.r[j - 1], g.r[j]) < r_eq < max(g.r[j - 1], g.r[j]) or \
            abs(g.r[j] - r_eq) < 1e-3

    def test_quermass_isometry_invariance(self):
        # W_k is a geometric invariant: the offset sphere is a round ball
        grid = AxisymGrid(64, 3)
        W = quermassintegrals(generate_shape(grid, "offset_sphere", 1.1, a=0.45))
        for k in range(4):
            assert W[k] == pytest.approx(ball_profile(3, k, 1.1), rel=1e-6)

    def test_umbilic_after_offset(self):
        # discretization error is 4th order: ~1.3e-6 at J=64, ~8e-8 at J=128
        devs = []
        for J in (64, 128):
            f = geometry_fields(generate_shape(AxisymGrid(J, 2), "offset_sphere", 1.0, a=0.5))
            devs.append(np.abs(f.kappa - 1.0 / np.tanh(1.0)).max())
        assert devs[0] < 3e-6
        assert devs[1] < devs[0] / 8.0


class TestQuermass:
    def test_unit_ball_frozen_values(self):
        W = quermassintegrals(generate_shape(FullSphereGrid(64), "sphere", 1.0))
        for got, want in zip(W, W_UNIT_BALL_N2):
            assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("n,r0", [(2, 0.5), (3, 1.0), (4, 2.0), (5, 0.9)])
    def test_matches_ball_profile(self, n, r0):
        grid = FullSphereGrid(32) if n == 2 else AxisymGrid(32, n)
        W = quermassintegrals(generate_shape(grid, "sphere", r0))
        assert W.shape == (n + 1,)
        for k in range(n + 1):
            assert W[k] == pytest.approx(ball_profile(n, k, r0), rel=1e-11)

    def test_cross_backend_agreement(self):
        # same zonal shape through two independent geometry code paths
        ga = generate_shape(AxisymGrid(48, 2), "perturbed_sphere", 1.0, eps=0.04, l=3)
        gf = generate_shape(FullSphereGrid(48), "perturbed_sphere", 1.0, eps=0.04, l=3)
        assert np.abs(quermassintegrals(ga) - quermassintegrals(gf)).max() < 1e-12

    def test_sinh_power_integral_vs_quad(self):
        rs = np.array([0.1, 0.7, 1.5, 3.0])
        for n in range(6):
            got = sinh_power_integral(n, rs)
            for r, gi in zip(rs, got):
                ref, _ = quad(lambda s: np.sinh(s) ** n, 0.0, r, epsabs=1e-14, epsrel=1e-13)
                assert gi == pytest.approx(ref, rel=1e-11, abs=1e-14)


class TestBallProfileInverse:
    @pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("n,m", [(2, 0), (2, 1), (2, 2), (4, 2)])
    def test_roundtrip_pinned(self, n, m, r):
        w = ball_profile(n, m, r)
        assert ball_profile_inverse(n, m, w) == pytest.approx(r, rel=1e-10)

    @given(n=st.integers(2, 5), m=st.integers(0, 5),
           r=st.floats(0.05, 4.0, allow_nan=False))
    @settings(max_examples=80)
    def test_roundtrip_fuzz(self, n, m, r):
        m = min(m, n)
        w = ball_profile(n, m, r)
        assert abs(ball_profile_inverse(n, m, w) - r) <= 1e-9 * max(r, 1.0)

    def test_monotone_in_r(self):
        rs = np.linspace(0.05, 3.0, 40)
        vals = [ball_profile(3, 2, r) for r in rs]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_rejects_nonpositive_values(self):
        # every positive value is attainable (W_m -> 0 as r -> 0)
        with pytest.raises(ValueError):
            ball_profile_inverse(2, 1, 0.0)
        with pytest.raises(ValueError):
            ball_profile_inverse(2, 1, -3.0)
        with pytest.raises(ValueError):
            ball_profile(2, 1, -1.0)
        with pytest.raises(ValueError):
            ball_profile(2, 3, 1.0)


class TestGenerateShape:
    def test_perturbed_harmonic_unit_l2(self):
        # recover Y from a tiny perturbation and check its L2(S^n) norm is 1
        for grid in [AxisymGrid(48, 2), AxisymGrid(48, 4), FullSphereGrid(48)]:
            for l in (2, 3, 4):
                g = generate_shape(grid, "perturbed_sphere", 1.0, eps=1e-6, l=l)
                y = (g.r - 1.0) / 1e-6
                assert grid.integrate_sigma(y * y) == pytest.approx(1.0, rel=1e-9)

    def test_zonal_parity_full_vs_axisym(self):
        # n = 2 zonal perturbation must agree across backends node-for-node
        J = 48
        ga = generate_shape(AxisymGrid(J, 2), "perturbed_sphere", 1.0, eps=0.04, l=3)
        gf = generate_shape(FullSphereGrid(J), "perturbed_sphere", 1.0, eps=0.04, l=3)
        assert np.abs(gf.r - ga.r[:, None]).max() < 1e-12

    def test_nonzonal_order(self):
        g = generate_shape(FullSphereGrid(48), "perturbed_sphere", 1.0,
                           eps=0.05, l=2, order=2)
        assert np.ptp(g.r, axis=1).max() > 0.01  # actually varies in phi
        assert hconvexity_margin(geometry_fields(g)) > 0.0

    def test_rejects_nonconvex_amplitude(self):
        with pytest.raises(ShapeRejectionError) as exc:
            generate_shape(AxisymGrid(48, 2), "perturbed_sphere", 1.0, eps=0.8, l=2)
        assert exc.value.margin is not None and exc.value.margin < 0.0

    @pytest.mark.parametrize("J, a", [(16, 0.999), (32, 0.99), (48, 0.999)])
    def test_rejects_unresolved_offset_sphere(self, J, a):
        # the exact sphere has min kappa = coth 1 > 1; these grids miss it
        with pytest.raises(ShapeRejectionError, match="offset sphere not h-convex") as exc:
            generate_shape(FullSphereGrid(J), "offset_sphere", 1.0, a=a)
        assert exc.value.margin < 0.0

    @pytest.mark.parametrize("J, a", [(32, 0.0), (32, 1.0), (96, 0.0), (96, 1.0)])
    def test_accepts_large_round_sphere(self, J, a):
        # coth 20 - 1 = 8.5e-18 lies below rounding: the full grid computes
        # min kappa a few ulps under 1, a dip the floor allows
        g = generate_shape(FullSphereGrid(J), "offset_sphere", 20.0, a=a)
        assert abs(hconvexity_margin(geometry_fields(g))) <= HCONVEX_TOL

    def test_rejects_bad_parameters(self):
        grid = AxisymGrid(32, 2)
        with pytest.raises(ValueError):
            generate_shape(grid, "sphere", -1.0)
        with pytest.raises(ValueError):
            generate_shape(grid, "offset_sphere", 1.0, a=1.0)
        with pytest.raises(ValueError):
            generate_shape(grid, "perturbed_sphere", 1.0, eps=0.05, l=1)
        with pytest.raises(ValueError):
            generate_shape(grid, "perturbed_sphere", 1.0, eps=0.05, l=2, order=1)
        with pytest.raises(ValueError):
            generate_shape(grid, "banana", 1.0)

    def test_random_shapes_clear_margin(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            g = random_hconvex_shape(AxisymGrid(32, 3), rng)
            assert hconvexity_margin(geometry_fields(g)) >= 0.15
        g = random_hconvex_shape(FullSphereGrid(32), rng)
        assert hconvexity_margin(geometry_fields(g)) >= 0.15

    def test_traceless_scales_linearly(self):
        grid = AxisymGrid(48, 2)
        norms = []
        for eps in (0.01, 0.02):
            f = geometry_fields(generate_shape(grid, "perturbed_sphere", 1.0,
                                               eps=eps, l=2))
            norms.append(traceless_measures(f))
        for i in range(2):
            ratio = norms[1][i] / norms[0][i]
            assert ratio == pytest.approx(2.0, rel=0.05)


class TestDistancesAndInradius:
    def test_distances_from_origin(self):
        g = generate_shape(AxisymGrid(32, 2), "perturbed_sphere", 1.0, eps=0.1, l=2)
        d = geodesic_distances(g.grid, g.r, 0.0)
        assert np.abs(d - g.r).max() < 1e-14

    def test_offset_center_recovers_sphere(self):
        r0, a = 1.0, 0.4
        g = generate_shape(AxisymGrid(64, 2), "offset_sphere", r0, a=a)
        d = geodesic_distances(g.grid, g.r, a)
        assert np.abs(d - r0).max() < 1e-12

    def test_full_backend_center_vector(self):
        r0, a = 1.0, 0.35
        g = generate_shape(FullSphereGrid(48), "offset_sphere", r0, a=a)
        d = geodesic_distances(g.grid, g.r, np.array([0.0, 0.0, a]))
        assert np.abs(d - r0).max() < 1e-12

    @pytest.mark.parametrize("grid", [FullSphereGrid(32), AxisymGrid(48, 2), AxisymGrid(48, 4)],
                             ids=["full", "axisym_n2", "axisym_n4"])
    def test_distance_range_is_min_and_max_of_distances(self, grid):
        # bit for bit, the origin and a center 1e-9 from it included
        g = generate_shape(grid, "perturbed_sphere", 1.0, eps=0.05, l=3)
        extremes = distance_range(grid, g.r)
        rng = np.random.default_rng(3)
        if grid.backend == "full":
            centers = [np.zeros(3), np.array([0.0, 0.0, 0.3]), np.array([0.0, 0.0, -1e-9])]
            centers += [rng.normal(size=3) * rng.uniform(0.0, 0.2) for _ in range(5)]
        else:
            centers = [0.0, 0.3, -0.3] + list(rng.uniform(-0.5, 0.5, size=5))
        for c in centers:
            d = geodesic_distances(grid, g.r, c)
            assert extremes(c) == (float(d.min()), float(d.max()))

    @pytest.mark.parametrize("grid", [FullSphereGrid(32), AxisymGrid(48, 2)],
                             ids=["full", "axisym"])
    def test_distances_match_law_of_cosines(self, grid):
        # cosh d = cosh rho cosh r - sinh rho sinh r cos(angle between center and node)
        g = generate_shape(grid, "perturbed_sphere", 1.0, eps=0.05, l=3)
        rng = np.random.default_rng(11)
        for _ in range(8):
            if grid.backend == "full":
                c = rng.normal(size=3)
                c *= rng.uniform(0.0, 0.3) / np.linalg.norm(c)
                rho = np.linalg.norm(c)
                cos_angle = np.tensordot(grid.xyz, c / rho, axes=([-1], [0]))
            else:
                c = rng.uniform(-0.3, 0.3)
                rho, cos_angle = abs(c), np.sign(c) * grid.cos_t
            ref = np.arccosh(np.cosh(rho) * np.cosh(g.r) - np.sinh(rho) * np.sinh(g.r) * cos_angle)
            d = geodesic_distances(grid, g.r, c)
            assert d.shape == g.r.shape
            assert np.abs(d - ref).max() <= 1e-13 * ref.min()

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(log_r0=st.floats(np.log(1e-9), np.log(8.0)),
           grid=st.sampled_from([FullSphereGrid(16), AxisymGrid(32, 2), AxisymGrid(24, 4)]))
    def test_inradius_of_sphere_about_origin(self, log_r0, grid):
        # no trial center leaves the body, so nothing overflows, and cosh d - 1
        # keeps its digits where cosh d rounds to 1
        r0 = float(np.exp(log_r0))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = inradius(generate_shape(grid, "sphere", r0))
        assert abs(res.rho - r0) <= 1e-8

    @pytest.mark.parametrize("grid", [FullSphereGrid(16), AxisymGrid(16, 2)],
                             ids=["full", "axisym"])
    def test_search_center_tie_goes_to_first_start(self, grid):
        # a flat objective ties every candidate: the first start wins as given
        graph = generate_shape(grid, "sphere", 1.0)
        starts = [0.25, -0.5] if grid.backend == "axisym" else [np.full(3, 0.1), np.zeros(3)]
        center, value, converged = search_center(graph, lambda c: 2.0, starts)
        assert center is starts[0]
        assert value == 2.0 and converged

    def test_inradius_sphere(self):
        res = inradius(generate_shape(AxisymGrid(48, 2), "sphere", 1.2))
        assert res.rho == pytest.approx(1.2, abs=1e-9)
        assert res.center_norm() < 1e-6

    def test_inradius_offset_sphere_axisym(self):
        res = inradius(generate_shape(AxisymGrid(64, 2), "offset_sphere", 1.0, a=0.3))
        assert res.rho == pytest.approx(1.0, abs=1e-8)
        assert abs(abs(float(res.center)) - 0.3) < 1e-6

    def test_inradius_offset_sphere_full(self):
        res = inradius(generate_shape(FullSphereGrid(48), "offset_sphere", 1.0, a=0.3))
        assert res.rho == pytest.approx(1.0, abs=1e-6)
        assert res.center_norm() == pytest.approx(0.3, abs=1e-4)


class TestValidation:
    def test_nonfinite_radius_rejected_at_construction(self):
        grid = AxisymGrid(32, 2)
        r = np.full(grid.node_shape(), 1.0)
        r[3] = np.nan
        with pytest.raises(ValueError):
            RadialGraph(grid, r)
        r[3] = -0.5
        with pytest.raises(ValueError):
            RadialGraph(grid, r)

    def test_curvature_overflow_raises(self):
        # at r = 800 sinh itself overflows and geometry refuses the warp
        # factor; at r = 400 lam^2 overflows inside the geometry, and the
        # curvature check refuses; neither case lets NumPy warn
        for grid in (AxisymGrid(16, 2), FullSphereGrid(16)):
            for r0, message in ((800.0, "non-finite warp factor"),
                                (400.0, "non-finite curvature")):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with pytest.raises(DiscretizationError, match=message):
                        geometry_fields(RadialGraph(grid, np.full(grid.node_shape(), r0)))

    def test_graph_shape_mismatch(self):
        grid = AxisymGrid(32, 2)
        with pytest.raises(ValueError):
            RadialGraph(grid, np.ones(7))

    def test_integrand_shape_mismatch(self):
        f = geometry_fields(generate_shape(AxisymGrid(32, 2), "sphere", 1.0))
        with pytest.raises(ValueError):
            integrate(f, np.ones(5))
