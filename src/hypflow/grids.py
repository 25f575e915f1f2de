"""Angular grids over S^n and their calculus.

Two backends share one contract: hold a radial sample vector, return
4th-order centered derivatives with the right ghost continuation, and
integrate scalar densities against the round measure.

FullSphereGrid (n = 2 only) is a latitude-longitude grid with J x 2J
cells whose latitudes are offset by half a cell so no node sits on a
pole; ghost rows come from copying the antipodal longitude. AxisymGrid
stores a 1-D profile r(theta) at the same offset latitudes and reflects
evenly at both poles.

The offset latitudes are Chebyshev points of the first kind in cos(theta),
so quadrature against sin^p(theta) dtheta uses exact Chebyshev-moment
weights (Fejer's first rule when p = 1). That makes smooth integrands
converge spectrally, which the identity checks downstream rely on.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, gamma, pi

import numpy as np

__all__ = [
    "FullSphereGrid",
    "AxisymGrid",
    "sphere_area",
    "theta_weights",
]


def sphere_area(k: int) -> float:
    """Surface measure of the unit k-sphere."""
    if k < 0:
        raise ValueError("negative sphere dimension")
    return 2.0 * pi ** ((k + 1) / 2) / gamma((k + 1) / 2)


@lru_cache(maxsize=None)
def _sin_power_moments(p: int, kmax: int) -> tuple[float, ...]:
    """mu_k = integral_0^pi cos(k theta) sin^p(theta) dtheta for k = 0..kmax."""
    if p < 1:
        raise ValueError("sin power must be >= 1")
    mu = [0.0] * (kmax + 1)
    if p % 2 == 0:
        # sin^p = a_0 + sum_{m even} a_m cos(m theta)
        a0 = comb(p, p // 2) / 2 ** p
        mu[0] = a0 * pi
        for m in range(2, min(p, kmax) + 1, 2):
            am = ((-1) ** (m // 2)) * 2.0 * comb(p, (p - m) // 2) / 2 ** p
            mu[m] = am * pi / 2.0
    else:
        # sin^p = sum_{m odd} b_m sin(m theta); cross terms survive for even k
        bs = {m: ((-1) ** ((m - 1) // 2)) * 2.0 * comb(p, (p - m) // 2) / 2 ** p
              for m in range(1, p + 1, 2)}
        for k in range(0, kmax + 1, 2):
            mu[k] = sum(bm * 2.0 * m / (m * m - k * k) for m, bm in bs.items())
    return tuple(mu)


def theta_weights(J: int, p: int) -> np.ndarray:
    """Weights W_j with sum_j W_j q(cos theta_j) = int_0^pi q(cos t) sin^p t dt
    exactly for polynomials q of degree < J, at theta_j = (j + 1/2) pi / J."""
    theta = (np.arange(J) + 0.5) * pi / J
    mu = np.array(_sin_power_moments(p, J - 1))
    k = np.arange(1, J)
    w = (mu[0] + 2.0 * np.cos(np.outer(theta, k)) @ mu[1:]) / J
    return w


def _shifts(padded: np.ndarray, axis: int) -> list[np.ndarray]:
    """The five stencil views padded[k : k + len - 4] along axis, k = 0..4."""
    m = padded.shape[axis] - 4
    return [padded[(slice(None),) * axis + (slice(k, k + m),)] for k in range(5)]


# 4th-order centered stencils; callers supply two ghost layers per side.
# Written in difference-of-neighbor form so constant input gives exact zeros
# (value-weighted sums leave ~1e-14 rounding residue that the 1/sin^2(theta)
# factors at the polar rings would amplify by three orders of magnitude).
def _d1(padded: np.ndarray, h: float, axis: int = 0) -> np.ndarray:
    f0, f1, _, f3, f4 = _shifts(padded, axis)
    return (8.0 * (f3 - f1) - (f4 - f0)) / (12.0 * h)


def _d2(padded: np.ndarray, h: float, axis: int = 0) -> np.ndarray:
    f0, f1, mid, f3, f4 = _shifts(padded, axis)
    return (16.0 * ((f1 - mid) + (f3 - mid))
            - ((f0 - mid) + (f4 - mid))) / (12.0 * h * h)


class FullSphereGrid:
    """Offset latitude-longitude grid on S^2 with J rows and 2J columns."""

    backend = "full"
    n = 2

    def __init__(self, J: int):
        if J < 8 or J % 2 != 0:
            raise ValueError("FullSphereGrid needs even J >= 8")
        self.J = J
        self.dtheta = pi / J
        self.dphi = pi / J  # 2J columns over 2*pi
        self.theta = (np.arange(J) + 0.5) * self.dtheta
        self.phi = np.arange(2 * J) * self.dphi
        self.sin_t = np.sin(self.theta)[:, None]
        self.cos_t = np.cos(self.theta)[:, None]
        self.cot_t = self.cos_t / self.sin_t
        # sigma-measure node weights; sin(theta) is folded into the theta weights
        self.sigma_weights = theta_weights(J, 1)[:, None] * self.dphi * np.ones((1, 2 * J))
        st, ct = np.sin(self.theta), np.cos(self.theta)
        sp, cp = np.sin(self.phi), np.cos(self.phi)
        self.xyz = np.stack(
            [np.outer(st, cp), np.outer(st, sp), np.outer(ct, np.ones(2 * J))], axis=-1
        )
        self._filter_masks: dict[float, np.ndarray] = {}

    def node_shape(self) -> tuple[int, int]:
        return (self.J, 2 * self.J)

    def pad_theta(self, f: np.ndarray) -> np.ndarray:
        """Two ghost rows per pole: value at (-theta, phi) is value at (theta, phi + pi)."""
        J = self.J
        flip = np.roll(f, J, axis=1)
        return np.vstack([flip[1], flip[0], f, flip[J - 1], flip[J - 2]])

    def d_theta(self, f: np.ndarray) -> np.ndarray:
        return _d1(self.pad_theta(f), self.dtheta, axis=0)

    def d_theta2(self, f: np.ndarray) -> np.ndarray:
        return _d2(self.pad_theta(f), self.dtheta, axis=0)

    def d_theta_pair(self, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(d_theta f, d_theta2 f) from a single ghost padding."""
        padded = self.pad_theta(f)
        return _d1(padded, self.dtheta, axis=0), _d2(padded, self.dtheta, axis=0)

    def _pad_phi(self, f: np.ndarray) -> np.ndarray:
        return np.concatenate([f[:, -2:], f, f[:, :2]], axis=1)

    def d_phi(self, f: np.ndarray) -> np.ndarray:
        return _d1(self._pad_phi(f), self.dphi, axis=1)

    def d_phi2(self, f: np.ndarray) -> np.ndarray:
        return _d2(self._pad_phi(f), self.dphi, axis=1)

    def d_phi_pair(self, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(d_phi f, d_phi2 f) from a single ghost padding."""
        padded = self._pad_phi(f)
        return _d1(padded, self.dphi, axis=1), _d2(padded, self.dphi, axis=1)

    def d_theta_phi(self, f: np.ndarray) -> np.ndarray:
        return self.d_phi(self.d_theta(f))

    def integrate_sigma(self, density: np.ndarray) -> float:
        """Integral over S^2 of a node density against the round measure."""
        return float(np.sum(density * self.sigma_weights))

    def filter_mask(self, c_pole: float) -> np.ndarray:
        """Ring-wise rfft keep mask; kept zonal wavenumbers k <= max(2, c*sin(theta)/dtheta)."""
        key = round(float(c_pole), 12)
        mask = self._filter_masks.get(key)
        if mask is None:
            kcut = np.maximum(2, np.floor(key * np.sin(self.theta) / self.dtheta)).astype(int)
            k = np.arange(self.J + 1)
            mask = (k[None, :] <= kcut[:, None]).astype(float)
            self._filter_masks[key] = mask
        return mask

    def pole_filter(self, f: np.ndarray, c_pole: float) -> np.ndarray:
        """Remove zonal wavenumbers too stiff for the theta-based time step."""
        spec = np.fft.rfft(f, axis=1)
        spec *= self.filter_mask(c_pole)
        return np.fft.irfft(spec, n=2 * self.J, axis=1)


class AxisymGrid:
    """1-D profile grid r(theta) for rotationally symmetric hypersurfaces in H^{n+1}."""

    backend = "axisym"

    def __init__(self, J: int, n: int):
        if J < 8:
            raise ValueError("AxisymGrid needs J >= 8")
        if n < 2:
            raise ValueError("ambient S^n needs n >= 2")
        self.J = J
        self.n = n
        self.dtheta = pi / J
        self.theta = (np.arange(J) + 0.5) * self.dtheta
        self.sin_t = np.sin(self.theta)
        self.cos_t = np.cos(self.theta)
        self.cot_t = self.cos_t / self.sin_t
        # node directions in the 1-D chart of the symmetry axis
        self.xyz = self.cos_t[:, None]
        # sin^{n-1} measure folded into the theta weights
        self.sigma_weights = theta_weights(J, n - 1) * sphere_area(n - 1)

    def node_shape(self) -> tuple[int]:
        return (self.J,)

    def pad_theta(self, f: np.ndarray) -> np.ndarray:
        """Even reflection at both poles (smooth zonal functions are even there)."""
        return np.concatenate([f[1::-1], f, f[-1:-3:-1]])

    def d_theta(self, f: np.ndarray) -> np.ndarray:
        return _d1(self.pad_theta(f), self.dtheta)

    def d_theta2(self, f: np.ndarray) -> np.ndarray:
        return _d2(self.pad_theta(f), self.dtheta)

    def d_theta_pair(self, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(d_theta f, d_theta2 f) from a single ghost padding."""
        padded = self.pad_theta(f)
        return _d1(padded, self.dtheta), _d2(padded, self.dtheta)

    def integrate_sigma(self, density: np.ndarray) -> float:
        return float(np.sum(density * self.sigma_weights))
