"""Angular grids over S^n and their calculus.

Two backends share one contract: hold a radial sample vector, return
its spectral derivatives, integrate scalar densities against the round
measure, and filter the azimuthal modes too stiff for the time step
(pole_filter, the identity on the zonal grid).

FullSphereGrid (n = 2 only) is a latitude-longitude grid with J x 2J
cells whose latitudes are offset by half a cell so no node sits on a
pole; theta-derivatives use the 2J-periodic double Fourier sphere
extension (Merilees, Atmosphere 11, 1973). AxisymGrid stores a 1-D
profile r(theta) at the same offset latitudes, reflected evenly across
both poles into a cosine series.

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


def _spectral(f: np.ndarray, axis: int, orders: tuple) -> tuple:
    """Derivatives of the given orders (1 or 2) along axis of 2J equispaced
    samples of a 2*pi-periodic function: one rfft, ik or -k^2, one irfft
    each. f - f.flat[0] is transformed so a constant gives exact zeros,
    which the 1/sin^2(theta) factors at the polar rings would amplify."""
    N = f.shape[axis]
    spec = np.fft.rfft(f - f.flat[0], axis=axis)
    k = np.arange(N // 2 + 1.0).reshape((-1,) + (1,) * (f.ndim - 1 - axis))
    ik = 1j * k
    ik[-1] = 0.0  # the Nyquist mode has no slope at the nodes
    return tuple(np.fft.irfft(spec * (ik if order == 1 else -k * k), n=N, axis=axis)
                 for order in orders)


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

    def _theta_derivs(self, f: np.ndarray, orders: tuple) -> tuple:
        """theta-derivatives through the double Fourier sphere extension: the
        value at (2 pi - theta, phi) is the value at (theta, phi + pi). Each
        column is transformed whole, so a zonal f has exactly zonal ones."""
        J = self.J
        ext = np.concatenate([f, np.hstack([f[::-1, J:], f[::-1, :J]])])
        return tuple(d[:J] for d in _spectral(ext, 0, orders))

    def d_theta(self, f: np.ndarray) -> np.ndarray:
        return self._theta_derivs(f, (1,))[0]

    def d_theta2(self, f: np.ndarray) -> np.ndarray:
        return self._theta_derivs(f, (2,))[0]

    def d_theta_pair(self, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(d_theta f, d_theta2 f) from a single transform."""
        return self._theta_derivs(f, (1, 2))

    def d_phi(self, f: np.ndarray) -> np.ndarray:
        return _spectral(f, 1, (1,))[0]

    def d_phi2(self, f: np.ndarray) -> np.ndarray:
        return _spectral(f, 1, (2,))[0]

    def d_phi_pair(self, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(d_phi f, d_phi2 f) from a single transform."""
        return _spectral(f, 1, (1, 2))

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

    def _theta_derivs(self, f: np.ndarray, orders: tuple) -> tuple:
        """theta-derivatives through the even extension across both poles,
        a cosine series on these DCT-II nodes."""
        ext = np.concatenate([f, f[::-1]])
        return tuple(d[:self.J] for d in _spectral(ext, 0, orders))

    def d_theta(self, f: np.ndarray) -> np.ndarray:
        return self._theta_derivs(f, (1,))[0]

    def d_theta2(self, f: np.ndarray) -> np.ndarray:
        return self._theta_derivs(f, (2,))[0]

    def d_theta_pair(self, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(d_theta f, d_theta2 f) from a single transform."""
        return self._theta_derivs(f, (1, 2))

    def integrate_sigma(self, density: np.ndarray) -> float:
        return float(np.sum(density * self.sigma_weights))

    def pole_filter(self, f: np.ndarray, c_pole: float) -> np.ndarray:
        """The identity: a zonal profile has no azimuthal modes to cut."""
        return f
