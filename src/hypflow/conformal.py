"""Conformal transplant of a hyperbolic hypersurface into the Euclidean ball.

With s = 2 tanh(r/2) the hyperbolic metric becomes e^{2phi}(ds^2 + s^2 dsigma^2)
on the ball of radius 2, where e^{2phi} = 16/(4 - s^2)^2. A radial graph maps
to a radial graph, so the Euclidean geometry of the image is produced by the
same engine with warping factor lam(s) = s. The shape operators of the two
pictures differ by a conformal shift,

    e^phi S_hyp = S_euc + dphi(nu_euc) * Id,

with both normals taken outward; this module evaluates that relation, the
convexity of the image, and the area transplant |M| = int_Mtilde e^{n phi}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hypersurface import (EUCLIDEAN, DiscretizationError, GeometryFields, RadialGraph,
                           geometry_fields, integrate)

__all__ = [
    "ConformalImage",
    "AreaIdentityReport",
    "to_ball",
    "radius_to_ball",
    "conf_relation_residual",
    "image_convexity_margin",
    "area_identity_check",
]


def radius_to_ball(r):
    """Hyperbolic distance from origin -> Euclidean radius in the ball of radius 2."""
    return 2.0 * np.tanh(np.asarray(r, dtype=float) / 2.0)


@dataclass
class ConformalImage:
    """Euclidean radial graph s = 2tanh(r/2) with its geometry and conformal data."""

    graph: RadialGraph            # values s in (0, 2)
    fields: GeometryFields        # computed with the Euclidean warp
    exp_phi: np.ndarray           # e^phi = 4/(4 - s^2) >= 1
    dphi_normal: np.ndarray       # dphi(nu_euc) = 2s / ((4 - s^2) v)

    @property
    def s(self) -> np.ndarray:
        return self.graph.r


def to_ball(graph: RadialGraph) -> ConformalImage:
    s = radius_to_ball(graph.r)
    gap = 4.0 - s * s
    if not np.all(gap > 0.0):
        raise DiscretizationError("conformal image reaches the ball's boundary: 2 tanh(r/2) "
                                  f"rounds to 2 at r = {float(graph.r.max()):.17g}")
    image = RadialGraph(graph.grid, s)
    fields = geometry_fields(image, EUCLIDEAN)
    exp_phi = 4.0 / gap
    dphi_normal = 2.0 * s / (gap * fields.v)
    return ConformalImage(graph=image, fields=fields, exp_phi=exp_phi, dphi_normal=dphi_normal)


def conf_relation_residual(hyp_fields: GeometryFields, image: ConformalImage) -> tuple[float, float]:
    """(max, L2) operator-norm residual of e^phi S_hyp - S_euc - dphi(nu) Id.

    The residual tensor is self-adjoint for the induced metric, so its
    operator norm is the largest eigenvalue magnitude; on the 2-sphere
    backend that comes from the trace/determinant closed form, on the
    axisymmetric backend the principal frames coincide and the residual
    is diagonal.
    """
    ef = image.fields
    c = image.dphi_normal
    w = image.exp_phi
    if hyp_fields.graph.backend == "full":
        R11 = w * hyp_fields.S_tt - ef.S_tt - c
        R12 = w * hyp_fields.S_tp - ef.S_tp
        R21 = w * hyp_fields.S_pt - ef.S_pt
        R22 = w * hyp_fields.S_pp - ef.S_pp - c
        tr = R11 + R22
        det = R11 * R22 - R12 * R21
        root = np.sqrt(np.maximum(tr * tr - 4.0 * det, 0.0))
        opnorm = np.maximum(np.abs(tr + root), np.abs(tr - root)) / 2.0
    else:
        res = w[:, None] * hyp_fields.kappa - ef.kappa - c[:, None]
        opnorm = np.abs(res).max(axis=1)
    l2 = float(np.sqrt(max(integrate(hyp_fields, opnorm ** 2), 0.0)))
    return float(opnorm.max()), l2


def image_convexity_margin(image: ConformalImage) -> float:
    """min over nodes/directions of kappa_euc - 2/(2+s); h-convex sources give >= 0."""
    bound = 2.0 / (2.0 + image.s)
    return float((image.fields.kappa - bound[..., None]).min())


@dataclass
class AreaIdentityReport:
    hyperbolic_area: float
    transplanted_area: float      # int over the image of e^{n phi} d(mu_euc)
    relative_mismatch: float
    density_ratio_min: float      # pointwise e^{n phi} (euclidean density) / (hyperbolic density)
    density_ratio_max: float


def area_identity_check(hyp_fields: GeometryFields, image: ConformalImage) -> AreaIdentityReport:
    n = hyp_fields.n
    lhs = integrate(hyp_fields, np.ones_like(hyp_fields.v))
    rhs = integrate(image.fields, image.exp_phi ** n)
    ratio = (image.exp_phi ** n) * image.fields.area_density / hyp_fields.area_density
    return AreaIdentityReport(
        hyperbolic_area=lhs,
        transplanted_area=rhs,
        relative_mismatch=abs(rhs - lhs) / abs(lhs),
        density_ratio_min=float(ratio.min()),
        density_ratio_max=float(ratio.max()),
    )
