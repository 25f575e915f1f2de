"""Spherical grids: quadrature exactness, spectral derivatives, pole continuation."""

import numpy as np
import pytest
from scipy.integrate import quad

from hypflow.grids import AxisymGrid, FullSphereGrid, sphere_area, theta_weights


class TestSphereArea:
    def test_known_areas(self):
        assert sphere_area(1) == pytest.approx(2 * np.pi, rel=1e-15)
        assert sphere_area(2) == pytest.approx(4 * np.pi, rel=1e-15)
        assert sphere_area(3) == pytest.approx(2 * np.pi ** 2, rel=1e-15)
        assert sphere_area(0) == pytest.approx(2.0, rel=1e-15)


class TestThetaWeights:
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    @pytest.mark.parametrize("J", [16, 48])
    def test_weights_integrate_smooth_functions(self, J, p):
        w = theta_weights(J, p)
        theta = (np.arange(J) + 0.5) * np.pi / J
        for fn, exact in [
            (lambda t: np.ones_like(t), quad(lambda t: np.sin(t) ** p, 0, np.pi)[0]),
            (np.cos, quad(lambda t: np.cos(t) * np.sin(t) ** p, 0, np.pi)[0]),
            (lambda t: np.cos(2 * t) ** 2,
             quad(lambda t: np.cos(2 * t) ** 2 * np.sin(t) ** p, 0, np.pi)[0]),
            (lambda t: np.exp(np.cos(t)),
             quad(lambda t: np.exp(np.cos(t)) * np.sin(t) ** p, 0, np.pi)[0]),
        ]:
            got = float(w @ fn(theta))
            assert got == pytest.approx(exact, rel=1e-10, abs=1e-12)

    def test_weights_positive(self):
        for p in (1, 2, 3):
            assert theta_weights(64, p).min() > 0.0


class TestFullSphereGrid:
    def test_round_sphere_area(self):
        g = FullSphereGrid(32)
        assert g.integrate_sigma(np.ones(g.node_shape())) == pytest.approx(4 * np.pi, rel=1e-12)

    def test_quadrature_on_harmonic_squares(self):
        # int Y^2 over S^2 for a smooth band-limited function: exact vs quad
        g = FullSphereGrid(24)
        f = (np.sin(g.theta)[:, None] ** 2 * np.cos(2 * g.phi)[None, :]) ** 2
        exact = quad(lambda t: np.sin(t) ** 5, 0, np.pi)[0] * np.pi
        assert g.integrate_sigma(f) == pytest.approx(exact, rel=1e-12)

    def test_derivatives_fourth_order(self):
        errs = []
        for J in (24, 48):
            g = FullSphereGrid(J)
            t, p = g.theta[:, None], g.phi[None, :]
            f = np.sin(t) ** 2 * np.cos(2 * p) + np.cos(t)
            df_exact = 2 * np.sin(t) * np.cos(t) * np.cos(2 * p) - np.sin(t)
            errs.append(np.abs(g.d_theta(f) - df_exact).max())
        # spectral: rounding only, 9.8e-15 and 2.6e-14 measured
        assert errs[0] < 3e-14
        assert errs[1] < 8e-14

    def test_constant_gives_exact_zero_derivatives(self):
        g = FullSphereGrid(16)
        c = np.full(g.node_shape(), 0.4899516747764162)  # non-dyadic constant
        for op in (g.d_theta, g.d_theta2, g.d_phi, g.d_phi2, g.d_theta_phi):
            assert np.abs(op(c)).max() == 0.0

    def test_pole_continuation_smooth_function(self):
        # a function smooth on the sphere, expressed in (theta, phi):
        # f = z + x  ->  the antipodal extension must keep derivatives accurate at poles
        g = FullSphereGrid(48)
        x, z = g.xyz[..., 0], g.xyz[..., 2]
        f = z + x
        t, p = g.theta[:, None], g.phi[None, :]
        df = -np.sin(t) + np.cos(t) * np.cos(p)
        err = np.abs(g.d_theta(f) - df).max()
        # spectral: 2.2e-14 at J=48; poles add nothing
        assert err < 2e-6

    def test_mixed_partial_symmetry(self):
        g = FullSphereGrid(32)
        rng = np.random.default_rng(0)
        # band-limited random function
        f = sum(rng.standard_normal() * np.sin(g.theta)[:, None] ** k *
                np.cos(k * g.phi)[None, :] for k in (1, 2, 3))
        a = g.d_theta_phi(f)
        b = g.d_theta(g.d_phi(f))
        assert np.abs(a - b).max() < 1e-10 * max(1.0, np.abs(a).max())

    def test_pole_filter_preserves_low_modes(self):
        g = FullSphereGrid(32)
        t, p = g.theta[:, None], g.phi[None, :]
        f = 1.0 + 0.2 * np.sin(t) ** 2 * np.cos(2 * p) + 0.1 * np.cos(t)
        filtered = g.pole_filter(f, c_pole=4.47)
        assert np.abs(filtered - f).max() < 1e-14

    def test_pole_filter_removes_high_modes_at_poles(self):
        g = FullSphereGrid(32)
        p = g.phi[None, :]
        noise = np.cos(12 * p) * np.ones((g.J, 1))
        filtered = g.pole_filter(noise.copy(), c_pole=4.47)
        # at the polar rings k=12 azimuthal structure is unresolvable
        assert np.abs(filtered[0]).max() < 1e-14
        assert np.abs(filtered[g.J // 2]).max() > 0.9  # equator keeps it

    def test_validation(self):
        with pytest.raises(ValueError):
            FullSphereGrid(7)
        with pytest.raises(ValueError):
            FullSphereGrid(9)  # odd


class TestAxisymGrid:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_round_sphere_area(self, n):
        g = AxisymGrid(32, n=n)
        assert g.integrate_sigma(np.ones(g.J)) == pytest.approx(sphere_area(n), rel=1e-12)

    def test_even_reflection_derivative(self):
        g = AxisymGrid(48, n=3)
        f = np.cos(g.theta) ** 2 + 0.3 * np.cos(g.theta)
        df = -2 * np.cos(g.theta) * np.sin(g.theta) - 0.3 * np.sin(g.theta)
        # a degree-2 cosine series is differentiated exactly: 7.7e-15 at J=48
        assert np.abs(g.d_theta(f) - df).max() < 2e-5

    def test_second_derivative_order(self):
        errs = []
        for J in (24, 48):
            g = AxisymGrid(J, n=2)
            f = np.exp(np.cos(g.theta))
            d2 = np.exp(np.cos(g.theta)) * (np.sin(g.theta) ** 2 - np.cos(g.theta))
            errs.append(np.abs(g.d_theta2(f) - d2).max())
        # spectral: rounding only, growing like J^2; 1.1e-13 and 9.4e-13 measured
        assert errs[0] < 3e-13
        assert errs[1] < 3e-12

    def test_odd_function_derivative_at_pole_rings(self):
        # an even function of theta has zero derivative at both poles;
        # the even extension must not break that at the half-offset rings
        g = AxisymGrid(64, n=2)
        c = np.full(g.J, np.exp(1) / 7)
        assert np.abs(g.d_theta(c)).max() == 0.0
        assert np.abs(g.d_theta2(c)).max() == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            AxisymGrid(4, n=2)
        with pytest.raises(ValueError):
            AxisymGrid(32, n=1)
