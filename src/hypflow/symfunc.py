"""Normalized elementary symmetric functions of curvature spectra.

E_k(kappa) = sigma_k(kappa) / C(n, k), so that E_k(c, ..., c) = c^k.
The curvature quotient F = E_m / E_{m-1} drives the flow module; its
gradient and the cone inequalities it satisfies on h-convex spectra
(checked by checks.check_symfunc_fuzz) are what make the flow parabolic.

All evaluators accept arrays whose last axis indexes the n principal
curvatures and broadcast over any leading grid axes.
"""

from __future__ import annotations

from math import comb

import numpy as np

__all__ = [
    "ConeViolationError",
    "esym_all",
    "esym_grad",
    "quotient_eval",
    "quotient_from_esym",
]

# Quotients with |E_{m-1}| below this are rejected as degenerate.
QUOTIENT_FLOOR = 1e-14


class ConeViolationError(ValueError):
    """Raised when a spectrum leaves the cone a quotient needs."""


def _kappa_array(kappa) -> np.ndarray:
    arr = np.asarray(kappa, dtype=float)
    if arr.shape[-1] < 1:
        raise ValueError("empty spectrum")
    return arr


def esym_all(kappa) -> np.ndarray:
    """All normalized values E_0..E_n, shape (..., n+1).

    Uses coefficient accumulation of prod_i (x + kappa_i): every update is
    an add of same-sign terms when kappa >= 0, so there is no cancellation
    for the h-convex spectra the flow produces.
    """
    arr = _kappa_array(kappa)
    n = arr.shape[-1]
    out = np.zeros(arr.shape[:-1] + (n + 1,), dtype=float)
    out[..., 0] = 1.0
    for i in range(n):
        ki = arr[..., i]
        for k in range(i + 1, 0, -1):
            out[..., k] += ki * out[..., k - 1]
    for k in range(1, n + 1):
        out[..., k] /= comb(n, k)
    return out


def esym_grad(k: int, kappa) -> np.ndarray:
    """Gradient dE_k/dkappa_i, shape (..., n).

    dE_k/dkappa_i = sigma_{k-1}(kappa with i removed) / C(n, k); the n
    reduced spectra are stacked and accumulated in one esym_all call, which
    is O(n^2) but cancellation-free.
    """
    arr = _kappa_array(kappa)
    n = arr.shape[-1]
    if not 1 <= k <= n:
        raise ValueError(f"order k={k} out of range [1, {n}]")
    if k == 1:
        return np.full_like(arr, 1.0 / n)
    keep = [[j for j in range(n) if j != i] for i in range(n)]
    return esym_all(arr[..., keep])[..., k - 1] * comb(n - 1, k - 1) / comb(n, k)


def quotient_eval(m: int, kappa) -> tuple[np.ndarray | float, np.ndarray]:
    """Curvature quotient F = E_m/E_{m-1} and its gradient dF/dkappa.

    Raises ConeViolationError when E_{m-1} falls below the degeneracy
    floor anywhere, since the quotient stops being well defined there.
    """
    arr = _kappa_array(kappa)
    n = arr.shape[-1]
    if not 1 <= m <= n:
        raise ValueError(f"quotient order m={m} out of range [1, {n}]")
    E = esym_all(arr)
    F = quotient_from_esym(m, E)
    Em1 = E[..., m - 1]
    gm = esym_grad(m, arr)
    gm1 = esym_grad(m - 1, arr) if m >= 2 else np.zeros_like(arr)
    dF = (gm * Em1[..., None] - E[..., m, None] * gm1) / (Em1 ** 2)[..., None]
    F = float(F) if np.ndim(F) == 0 else F
    return F, dF


def quotient_from_esym(m: int, E: np.ndarray) -> np.ndarray:
    """F = E_m/E_{m-1} from already evaluated E_0..E_n (last axis), as in
    quotient_eval: same values, same ConeViolationError below the floor.

    The geometry layer stores E for every state, so callers that need F
    but not its gradient read it from there instead of re-evaluating.
    """
    Em1 = E[..., m - 1]
    if np.any(Em1 <= QUOTIENT_FLOOR) or not np.all(np.isfinite(Em1)):
        raise ConeViolationError(f"E_{m-1} <= {QUOTIENT_FLOOR:g}: spectrum left the admissible cone")
    return E[..., m] / Em1
