"""Conformal transplant into the Euclidean ball of radius 2.

Oracles: closed-form sphere images (geodesic sphere r0 maps to the round
sphere s0 = 2 tanh(r0/2)), the scalar shape-operator relation evaluated
symbolically for spheres, and grid-refinement decay for perturbed shapes.
"""

import numpy as np
import pytest

from hypflow.conformal import (
    area_identity_check,
    conf_relation_residual,
    image_convexity_margin,
    radius_to_ball,
    to_ball,
)
from hypflow.grids import AxisymGrid, FullSphereGrid
from hypflow.hypersurface import generate_shape, geometry_fields


def _image_and_fields(grid, kind, r0, **kw):
    g = generate_shape(grid, kind, r0, **kw)
    return geometry_fields(g), to_ball(g)


class TestRadiusMaps:
    def test_roundtrip(self):
        r = np.linspace(0.01, 6.0, 200)
        assert np.abs(2.0 * np.arctanh(radius_to_ball(r) / 2.0) - r).max() < 1e-12

    def test_log3_maps_to_one(self):
        # tanh(log(3)/2) = (3 - 1)/(3 + 1) = 1/2
        assert radius_to_ball(np.log(3.0)) == pytest.approx(1.0, abs=1e-15)

    def test_range(self):
        s = radius_to_ball(np.array([0.1, 1.0, 10.0, 18.0]))
        assert np.all(s > 0.0) and np.all(s < 2.0)

    def test_sphere_relation_closed_form(self):
        # e^phi coth(r0) = 1/s0 + 2 s0/(4 - s0^2), the scalar transplant law
        for r0 in (0.3, 1.0, 2.5):
            s0 = 2.0 * np.tanh(r0 / 2.0)
            lhs = 4.0 / (4.0 - s0 * s0) / np.tanh(r0)
            rhs = 1.0 / s0 + 2.0 * s0 / (4.0 - s0 * s0)
            assert lhs == pytest.approx(rhs, rel=1e-14)


class TestSphereImages:
    @pytest.mark.parametrize("grid", [AxisymGrid(48, 2), AxisymGrid(48, 4), FullSphereGrid(48)],
                             ids=["axisym-n2", "axisym-n4", "full"])
    def test_sphere_residual_tiny(self, grid):
        hyp, image = _image_and_fields(grid, "sphere", 1.0)
        res_max, res_l2 = conf_relation_residual(hyp, image)
        assert res_max < 1e-12 and res_l2 < 1e-12

    def test_sphere_image_is_round(self):
        hyp, image = _image_and_fields(AxisymGrid(48, 2), "sphere", 1.3)
        s0 = 2.0 * np.tanh(1.3 / 2.0)
        assert np.abs(image.s - s0).max() < 1e-14
        assert np.abs(image.fields.kappa - 1.0 / s0).max() < 1e-12

    def test_sphere_margin_closed_form(self):
        _, image = _image_and_fields(AxisymGrid(48, 2), "sphere", 1.0)
        s0 = 2.0 * np.tanh(0.5)
        assert image_convexity_margin(image) == pytest.approx(1.0 / s0 - 2.0 / (2.0 + s0),
                                                              rel=1e-12)

    def test_sphere_area_identity(self):
        hyp, image = _image_and_fields(AxisymGrid(48, 3), "sphere", 1.0)
        rep = area_identity_check(hyp, image)
        assert rep.relative_mismatch < 1e-12
        assert rep.density_ratio_min == pytest.approx(1.0, abs=1e-12)
        assert rep.density_ratio_max == pytest.approx(1.0, abs=1e-12)


class TestPerturbedImages:
    def test_residual_decays_with_refinement(self):
        res = []
        for J in (48, 96):
            hyp, image = _image_and_fields(AxisymGrid(J, 2), "perturbed_sphere", 1.0,
                                           eps=0.1, l=2)
            res.append(conf_relation_residual(hyp, image)[0])
        # rounding only with spectral derivatives: 7.5e-14 and 3.6e-13 measured
        assert res[0] < 2e-13
        assert res[1] < 1e-12

    def test_full_backend_sectoral(self):
        hyp, image = _image_and_fields(FullSphereGrid(48), "perturbed_sphere", 1.0,
                                       eps=0.05, l=2, order=2)
        res_max, _ = conf_relation_residual(hyp, image)
        assert res_max < 1e-5
        assert image_convexity_margin(image) > 0.0

    def test_area_identity_pointwise(self):
        # the transplant density matches the hyperbolic one node by node
        hyp, image = _image_and_fields(AxisymGrid(64, 2), "perturbed_sphere", 1.0,
                                       eps=0.05, l=3, order=0)
        rep = area_identity_check(hyp, image)
        assert rep.relative_mismatch < 1e-9
        # pointwise ratio carries the derivative error through v; 1.1e-15 at J=64
        assert abs(rep.density_ratio_min - 1.0) < 1e-7
        assert abs(rep.density_ratio_max - 1.0) < 1e-7
        assert rep.hyperbolic_area == pytest.approx(rep.transplanted_area, rel=1e-9)

    @pytest.mark.parametrize("r0", [20.0, 30.0, 36.0])
    def test_area_identity_near_the_boundary(self, r0):
        # s = 2 tanh(r0/2) sits within 1e-15 of 2 at r0 = 36, where 4 - s^2 cancels
        hyp, image = _image_and_fields(FullSphereGrid(16), "sphere", r0)
        rep = area_identity_check(hyp, image)
        assert rep.relative_mismatch < 1e-14
        assert abs(rep.density_ratio_min - 1.0) < 1e-14
        assert abs(rep.density_ratio_max - 1.0) < 1e-14

    def test_hconvex_source_gives_convex_image(self):
        for grid in [AxisymGrid(48, 2), AxisymGrid(48, 4)]:
            _, image = _image_and_fields(grid, "perturbed_sphere", 1.0, eps=0.1, l=2)
            assert image_convexity_margin(image) > -1e-8

    def test_image_uses_euclidean_warp(self):
        _, image = _image_and_fields(AxisymGrid(32, 2), "sphere", 1.0)
        assert np.array_equal(image.fields.lam, image.s)
        assert np.all(image.fields.lamp == 1.0)
        assert np.all(image.exp_phi >= 1.0)
