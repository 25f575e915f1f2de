"""The in-package Nelder-Mead and Brent routines against scipy.optimize.

`hypersurface._nelder_mead` and `hypersurface._brentq` repeat scipy's
`minimize(method="Nelder-Mead")` and `brentq` step for step, so every
result here must equal scipy's bit for bit: the point, the value and the
convergence verdict.
"""

import numpy as np
import pytest
from scipy.optimize import brentq, minimize

from hypflow import hypersurface
from hypflow.grids import FullSphereGrid
from hypflow.hypersurface import ball_profile, generate_shape


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def _reference_nm(f, x0, maxiter=hypersurface._MAXITER):
    # scipy's inf - inf between walled vertices warns; the port's floats do not
    with np.errstate(invalid="ignore"):
        return minimize(f, x0, method="Nelder-Mead",
                        options={"xatol": hypersurface._XATOL, "fatol": hypersurface._FATOL,
                                 "maxiter": maxiter})


def _objectives(rng, dim):
    """Seeded objectives in dim variables: smooth, nonsmooth, with +inf
    outside a ball, and with plateaus that tie vertex values."""
    c = rng.normal(size=dim) * rng.uniform(0.0, 0.5)
    scale = rng.uniform(0.5, 3.0, size=dim)
    radius = float(np.linalg.norm(c)) + rng.uniform(0.05, 1.0)

    def quadratic(x):
        return float(np.sum(scale * (x - c) ** 2))

    def chebyshev(x):
        return float(np.max(np.abs(scale * (x - c))) + 0.1 * np.sum(x))

    def walled(x):
        return chebyshev(x) if np.linalg.norm(x) <= radius else np.inf

    def terraced(x):
        return float(np.round(quadratic(x), 1))

    return [quadratic, chebyshev, walled, terraced]


class TestNelderMead:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_matches_scipy_bit_for_bit(self, dim):
        rng = np.random.default_rng(100 + dim)
        for trial in range(8):
            start = np.zeros(dim) if trial % 2 == 0 else rng.normal(size=dim) * 0.3
            for f in _objectives(rng, dim):
                calls = []

                def counted(x):
                    calls.append(x.dtype)
                    return f(x)
                x, fun, converged = hypersurface._nelder_mead(counted, start)
                ref = _reference_nm(f, start)
                assert _bits(x) == _bits(ref.x)
                assert _bits(fun) == _bits(ref.fun)
                assert converged == ref.success
                assert len(calls) == ref.nfev
                assert set(calls) == {np.dtype(float)}

    def test_gap_objective_on_a_symmetric_shape(self):
        # a zonal shape on the full grid ties the x and y offsets of the first
        # simplex, the case where numpy's argsort order is not a stable sort
        graph = generate_shape(FullSphereGrid(16), "perturbed_sphere", 1.0, eps=0.05, l=2)
        extremes = graph.extremes

        def gap(center):
            lo, hi = extremes(center)
            return 0.5 * (hi - lo)
        for start in (np.zeros(3), np.array([0.01, 0.01, 0.0]), np.array([0.0, 0.0, 0.05])):
            x, fun, converged = hypersurface._nelder_mead(gap, start)
            ref = _reference_nm(gap, start)
            assert (_bits(x), _bits(fun), converged) == (_bits(ref.x), _bits(ref.fun), ref.success)

    def test_exhausted_cap(self, monkeypatch):
        monkeypatch.setattr(hypersurface, "_MAXITER", 25)
        rng = np.random.default_rng(7)
        for dim in (1, 3):
            f = _objectives(rng, dim)[1]
            start = rng.normal(size=dim)
            x, fun, converged = hypersurface._nelder_mead(f, start)
            ref = _reference_nm(f, start, maxiter=25)
            assert not converged and not ref.success
            assert ref.message == hypersurface._MAXITER_MESSAGE
            assert _bits(x) == _bits(ref.x) and _bits(fun) == _bits(ref.fun)

    def test_tied_values_sorted_like_numpy(self):
        # four tied values: the order is np.argsort's, whatever the CPU makes of it
        fsim = [1.0, 1.0, 0.0, 0.0]
        sim, values = hypersurface._by_value(list("abcd"), fsim)
        order = np.argsort(fsim).tolist()
        assert sim == [list("abcd")[i] for i in order]
        assert values == [fsim[i] for i in order]


def _bracket(excess):
    """ball_profile_inverse's bracket: grown from 1 by doubling and halving."""
    lo = hi = 1.0
    while excess(hi) < 0.0:
        hi *= 2.0
    while not excess(lo) <= 0.0:
        lo *= 0.5
    return lo, hi


def _reference_brent(f, a, b):
    root, res = brentq(f, a, b, xtol=hypersurface._BRENT_XTOL, rtol=hypersurface._BRENT_RTOL,
                       maxiter=hypersurface._BRENT_MAXITER, full_output=True, disp=False)
    return root, res.flag


class TestBrent:
    def test_ball_profile_residuals_match_scipy(self):
        rng = np.random.default_rng(5)
        for n in range(2, 12):
            for m in range(n + 1):
                for r in np.exp(rng.uniform(np.log(0.05), np.log(20.0), size=3)):
                    w = ball_profile(n, m, float(r))

                    def excess(x, n=n, m=m, w=w):
                        return ball_profile(n, m, x) - w
                    lo, hi = _bracket(excess)
                    root, flag = hypersurface._brentq(excess, lo, hi)
                    assert (_bits(root), flag) == (_bits(_reference_brent(excess, lo, hi)[0]),
                                                   _reference_brent(excess, lo, hi)[1])
                    assert flag == "converged"

    @pytest.mark.parametrize("maxiter", [2, 4, 100])
    def test_smooth_functions_match_scipy(self, monkeypatch, maxiter):
        monkeypatch.setattr(hypersurface, "_BRENT_MAXITER", maxiter)
        rng = np.random.default_rng(maxiter)
        flags = set()
        for _ in range(150):
            c, b, e = rng.normal(), rng.uniform(0.1, 20.0), rng.uniform(0.0, 3.0)
            tiny = 10.0 ** rng.uniform(-300, 0)

            def f(x, c=c, b=b, e=e, tiny=tiny):
                return tiny * (np.tanh(b * (x - c)) + e * (x - c) ** 3)
            a, z = c - rng.uniform(0.01, 5.0), c + rng.uniform(0.01, 5.0)
            root, flag = hypersurface._brentq(f, a, z)
            ref_root, ref_flag = _reference_brent(f, a, z)
            assert (_bits(root), flag) == (_bits(ref_root), ref_flag)
            flags.add(flag)
        assert flags == ({"convergence error"} if maxiter < 100 else {"converged"})

    def test_same_sign_bracket(self):
        def f(x):
            return x * x + 1.0
        with pytest.raises(ValueError, match="different signs"):
            _reference_brent(f, 0.0, 1.0)
        assert hypersurface._brentq(f, 0.0, 1.0)[1] == "sign error"

    def test_nan_raises(self):
        def f(x):
            return np.nan if x > 0.5 else x - 0.75
        with pytest.raises(ValueError, match="is NaN"):
            _reference_brent(f, 0.0, 1.0)
        with pytest.raises(ValueError, match="is NaN"):
            hypersurface._brentq(f, 0.0, 1.0)
