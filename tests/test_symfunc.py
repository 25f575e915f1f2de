"""Normalized elementary symmetric functions: oracles and structural laws."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hypflow.symfunc import (
    ConeViolationError,
    esym_all,
    esym_grad,
    quotient_eval,
)


def brute_esym(kappa, k):
    n = len(kappa)
    total = sum(np.prod([kappa[i] for i in c])
                for c in itertools.combinations(range(n), k))
    return total / math.comb(n, k)


spectra = arrays(np.float64, st.integers(1, 6),
                 elements=st.floats(-3.0, 3.0, allow_nan=False))
hconvex_spectra = arrays(np.float64, st.integers(2, 6),
                         elements=st.floats(1.0, 50.0, allow_nan=False))


class TestEsymOracle:
    def test_subset_enumeration(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            kappa = rng.uniform(-2, 3, n)
            E = esym_all(kappa)
            for k in range(n + 1):
                assert E[k] == pytest.approx(brute_esym(kappa, k), rel=1e-12, abs=1e-12)

    def test_known_values(self):
        E = esym_all([1.0, 2.0, 3.0])
        assert np.allclose(E, [1.0, 2.0, 11.0 / 3.0, 6.0])
        assert esym_all([1.0, 1.0, 1.0])[2] == pytest.approx(1.0, abs=1e-15)

    def test_batched_matches_rows(self):
        rng = np.random.default_rng(3)
        kap = rng.uniform(0.5, 2.0, size=(4, 5, 3))
        E = esym_all(kap)
        assert E.shape == (4, 5, 4)
        for idx in np.ndindex(4, 5):
            assert np.allclose(E[idx], esym_all(kap[idx]))

    @given(spectra)
    def test_vieta_reconstruction(self, kappa):
        # E_k are the (normalized) coefficients of prod (x + kappa_i)
        n = kappa.size
        E = esym_all(kappa)
        coeffs = np.array([math.comb(n, k) * E[k] for k in range(n + 1)])
        # polynomial built from E_k must vanish on -kappa
        x = -kappa
        poly = sum(coeffs[k] * x ** (n - k) for k in range(n + 1))
        scale = np.abs(coeffs).max() * np.maximum(1.0, np.abs(x)).max() ** n
        assert np.all(np.abs(poly) <= 1e-9 * scale)


class TestGradHess:
    def test_grad_finite_difference(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            k = int(rng.integers(1, n + 1))
            kappa = rng.uniform(0.5, 3.0, n)
            g = esym_grad(k, kappa)
            h = 1e-6
            for i in range(n):
                e = np.zeros(n)
                e[i] = h
                fd = (esym_all(kappa + e)[k] - esym_all(kappa - e)[k]) / (2 * h)
                assert g[i] == pytest.approx(fd, rel=1e-7, abs=1e-9)

    def test_grad_is_lower_esym_of_complement(self):
        # dE_k/dkappa_i = (k/n) * E_{k-1}(kappa without i)
        kappa = np.array([1.3, 2.1, 0.7, 1.9])
        n, k = 4, 2
        g = esym_grad(k, kappa)
        for i in range(n):
            rest = np.delete(kappa, i)
            assert g[i] == pytest.approx(k / n * brute_esym(rest, k - 1), rel=1e-13)


class TestQuotient:
    def test_umbilic_value(self):
        F, dF = quotient_eval(2, np.array([2.0, 2.0, 2.0]))
        assert F == pytest.approx(2.0, rel=1e-15)
        assert np.allclose(dF, 1.0 / 3.0)

    @given(hconvex_spectra)
    def test_euler_homogeneity(self, kappa):
        m = kappa.size - 1
        F, dF = quotient_eval(m, kappa)
        assert float(np.dot(kappa, dF)) == pytest.approx(float(F), rel=1e-10)

    @given(hconvex_spectra, st.floats(0.1, 10.0))
    def test_degree_one_scaling(self, kappa, s):
        m = max(1, kappa.size - 2)
        F1, _ = quotient_eval(m, kappa)
        F2, _ = quotient_eval(m, s * kappa)
        assert float(F2) == pytest.approx(s * float(F1), rel=1e-10)

    @given(hconvex_spectra)
    def test_maclaurin_ordering(self, kappa):
        # E_1 >= F_2 >= ... >= F_n on positive spectra
        n = kappa.size
        vals = [float(quotient_eval(m, kappa)[0]) for m in range(1, n + 1)]
        for a, b in zip(vals, vals[1:]):
            assert b <= a * (1 + 1e-12)

    def test_cone_violation_raises(self):
        with pytest.raises(ConeViolationError):
            quotient_eval(2, np.array([1.0, -1.0, 0.0]))

    def test_out_of_range_m(self):
        with pytest.raises(ValueError):
            quotient_eval(4, np.array([1.0, 2.0, 3.0]))

    def test_batched_shape(self):
        kap = np.full((5, 7, 3), 2.0)
        F, dF = quotient_eval(2, kap)
        assert F.shape == (5, 7) and dF.shape == (5, 7, 3)
        assert np.allclose(F, 2.0)


def cone_slacks(kappa, m):
    """Slack of each structural inequality of F = E_m/E_{m-1} at one
    spectrum, >= 0 where it holds: 1 <= sum dF <= m,
    F^2 <= sum kappa^2 dF <= (n+1-m) F^2, and Newton-Maclaurin
    E_{k-1}E_{k+1} <= E_k^2 for k = 1..n-1, relative to
    max(E_k^2, |E_{k-1}E_{k+1}|, 1) since the raw difference scales like
    kappa^(2k)."""
    n = kappa.size
    F, dF = quotient_eval(m, kappa)
    E = esym_all(kappa)
    trace = float(np.sum(dF))
    second = float(np.sum(kappa ** 2 * dF))
    slacks = {
        "grad_trace_lower": trace - 1.0,
        "grad_trace_upper": float(m) - trace,
        "second_moment_lower": second - F ** 2,
        "second_moment_upper": (n + 1 - m) * F ** 2 - second,
    }
    for k in range(1, n):
        slacks[f"newton_maclaurin_{k}"] = float(
            (E[k] ** 2 - E[k - 1] * E[k + 1]) / max(E[k] ** 2, abs(E[k - 1] * E[k + 1]), 1.0))
    return slacks


class TestConeChecks:
    @given(hconvex_spectra)
    def test_all_inequalities_hold(self, kappa):
        m = max(1, kappa.size - 1)
        assert kappa.min() >= 1.0
        tol = 1e-9 * float(np.max(kappa)) ** 2
        assert {k: v for k, v in cone_slacks(kappa, m).items() if not v >= -tol} == {}

    def test_trace_bounds_tight_cases(self):
        # umbilic spectrum sits at the trace lower bound sum dF = 1
        slacks = cone_slacks(np.array([3.0, 3.0, 3.0, 3.0]), 2)
        assert slacks["grad_trace_lower"] == pytest.approx(0.0, abs=1e-12)

    def test_m1_gradient_is_uniform(self):
        _, dF = quotient_eval(1, np.array([1.5, 2.5, 3.5]))
        assert np.allclose(dF, 1.0 / 3.0)
