"""The package's centre search and Brent root finder.

`hypersurface._nelder_mead` only brings a centre search into the basin of
the optimum, and `NodeDistances.polish` carries it to the optimum itself, so
the centre-search tests check the optimum and the certificate of its final
reference. `hypersurface._brentq` repeats scipy's `brentq` step for step, so
every result must equal scipy's bit for bit: the root and the flag.
"""

import numpy as np
import pytest
from scipy.optimize import brentq

from hypflow import hypersurface
from hypflow.grids import AxisymGrid, FullSphereGrid
from hypflow.hypersurface import ball_profile, generate_shape, inradius
from hypflow.stability import sphere_fit


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def _objectives(rng, start):
    """Seeded smooth objectives with their minimizer, one of them +inf
    outside a ball about it that holds the start."""
    c = rng.normal(size=start.size) * rng.uniform(0.0, 0.5)
    scale = rng.uniform(0.5, 3.0, size=start.size)
    radius = float(np.linalg.norm(start - c)) + rng.uniform(0.05, 1.0)

    def quadratic(x):
        return float(np.sum(scale * (x - c) ** 2))

    def walled(x):
        return quadratic(x) if np.linalg.norm(x - c) <= radius else np.inf

    return c, [quadratic, walled]


def certificate(graph, center, two_sided):
    """(least multiplier, largest box-face multiplier, largest distance of an
    active node from its extreme, gain the linear minimax still promises) at
    a centre, from the exchange's final reference there; a node is active
    when its multiplier is positive beyond rounding."""
    extremes, box = graph.extremes, hypersurface._POLISH_BOX
    reading = extremes._read(center)
    d, G = extremes._linearize(reading, two_sided, box)
    z, reference, lam = hypersurface._exchange(d, G, two_sided, box)
    lo, hi = reading[3]
    value = hypersurface._value(reading[3], two_sided)
    spread = max(abs(d[i] - (hi if sign > 0 else lo))
                 for (i, sign), m in zip(reference, lam) if i >= 0 and m > 1e-14)
    faces = [m for (i, _), m in zip(reference, lam) if i < 0]
    return float(lam.min()), max(faces, default=0.0), spread, value - z[-1]


def assert_certified(graph, center, two_sided):
    lam, face, spread, gain = certificate(graph, center, two_sided)
    assert lam >= -1e-14 and face <= 1e-14
    assert spread <= 1e-12 and gain <= 1e-14


class TestNelderMead:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_stops_near_the_minimum(self, dim):
        # the simplex only has to reach the optimum's basin: at xatol 1e-2 and
        # fatol 1e-5 it stopped at most 0.064 from these minimizers
        rng = np.random.default_rng(100 + dim)
        for trial in range(8):
            start = np.zeros(dim) if trial % 2 == 0 else rng.normal(size=dim) * 0.3
            c, objectives = _objectives(rng, start)
            for f in objectives:
                calls = []

                def counted(x):
                    calls.append(x.dtype)
                    return f(x)
                x, fun, converged = hypersurface._nelder_mead(counted, start)
                assert converged and fun == f(x) and fun <= f(start)
                assert np.abs(x - c).max() <= 0.1
                assert set(calls) == {np.dtype(float)}

    def test_gap_objective_on_a_symmetric_shape(self):
        # a zonal shape even under z -> -z: the best centre is the origin, and
        # the polish certifies it there whatever start the search comes from
        graph = generate_shape(FullSphereGrid(16), "perturbed_sphere", 1.0, eps=0.05, l=2)
        lo, hi = graph.extremes(np.zeros(3))
        for start in (np.zeros(3), np.array([0.01, 0.01, 0.0]), np.array([0.0, 0.0, 0.05])):
            center, extremes = graph.extremes.search([start], True)
            assert np.abs(center).max() <= 1e-14
            assert hypersurface._value(extremes, True) == pytest.approx(0.5 * (hi - lo), rel=1e-15)
            assert_certified(graph, center, True)

    def test_exhausted_cap(self, monkeypatch):
        # a fresh random value per call: the values never settle within fatol
        monkeypatch.setattr(hypersurface, "_MAXITER", 25)
        rng = np.random.default_rng(7)
        for dim in (1, 3):
            values = []

            def noise(x):
                values.append(rng.random())
                return values[-1]
            _, fun, converged = hypersurface._nelder_mead(noise, np.zeros(dim))
            assert not converged and fun == min(values)


#: shapes whose inball and best-fit sphere the polish must certify
SHAPES = [
    (FullSphereGrid(32), "perturbed_sphere", dict(eps=0.025, l=3, order=1)),
    (FullSphereGrid(32), "perturbed_sphere", dict(eps=0.05, l=4, order=2)),
    (FullSphereGrid(32), "offset_sphere", dict(a=0.3)),
    (AxisymGrid(64, 2), "perturbed_sphere", dict(eps=0.05, l=3)),
    (AxisymGrid(48, 4), "perturbed_sphere", dict(eps=0.02, l=5)),
    (AxisymGrid(64, 2), "offset_sphere", dict(a=0.3)),
]


class TestPolish:
    @pytest.mark.parametrize("grid,kind,keys", SHAPES,
                             ids=[f"{g.backend}-{k}-{i}" for i, (g, k, _) in enumerate(SHAPES)])
    def test_certificate(self, grid, kind, keys):
        # the final reference has nonnegative multipliers, no box face in it
        # carries weight, its nodes sit at the returned extremes, and the
        # linear minimax there promises no gain beyond rounding
        graph = generate_shape(grid, kind, 1.0, **keys)
        assert_certified(graph, graph.inball.center, False)
        assert_certified(graph, sphere_fit(graph).center, True)

    def test_seed17_sweep_members_at_the_optimum(self):
        # the benchmark's family (l, order) = (3, 1) at seed 17, its amplitudes
        # jittered as perfbench/workloads.py does; an unpolished search read
        # dist 0.028151985 and rhoMinus 0.957573 here. The shape is even under
        # z -> -z, so the best-fit centre lies on z = 0
        rng = np.random.default_rng(17)
        scale = 1.0 + 0.02 * rng.uniform(-1.0, 1.0, 2)[1]
        grid = FullSphereGrid(96)
        graphs = [generate_shape(grid, "perturbed_sphere", 1.0, eps=eps * scale, l=3, order=1)
                  for eps in (0.05, 0.075)]
        assert [0.05 * scale, 0.075 * scale] == pytest.approx([0.0493, 0.0740], abs=5e-5)
        fit = sphere_fit(graphs[0])
        assert fit.cheb == pytest.approx(0.028149235, abs=5e-10)
        assert abs(fit.center[2]) <= 1e-12
        assert graphs[1].inball.rho == pytest.approx(0.957807, abs=5e-7)
        for graph in graphs:
            assert_certified(graph, graph.inball.center, False)
            assert_certified(graph, sphere_fit(graph).center, True)

    def test_polish_reads_no_worse_than_the_search(self):
        graph = generate_shape(FullSphereGrid(32), "perturbed_sphere", 1.0, eps=0.05,
                               l=3, order=1)
        extremes = graph.extremes

        def neg_min(center):
            return -extremes(center)[0]
        center, value, converged = hypersurface._nelder_mead(neg_min, np.zeros(3))
        _, (lo, _) = extremes.polish(center, False)
        assert converged and -lo < value
        assert inradius(graph).rho == pytest.approx(lo, rel=1e-13)


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
