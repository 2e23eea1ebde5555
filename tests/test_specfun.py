import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import sici

from supres import specfun as sf

from oracles import e_kernel


# reference values, frozen from adaptive quadrature of the defining integrals
SI_CI_REFERENCE = {
    1.0: (0.946083070367, 0.337403922901),
    math.pi: (1.851937051982, 0.073667912046),
    30.0: (1.566756540030, -0.033032417282),
    100.0: (1.562225466889, -0.005148825143),
}


def ci(x):
    """Ci(x) for x > 0 read off the package kernel: R(x/pi) = Ci(x) - gamma - ln(x)."""
    return sf.r_kernel(np.asarray(x) / math.pi) + sf.EULER_GAMMA + np.log(x)


def si(x: float) -> float:
    """Si(x) for x > 0 read off the oracle's complex kernel: Im E(x/pi) = Si(x)."""
    return e_kernel(x / math.pi).imag


class TestSiCi:
    def test_si_zero(self):
        assert sf.r_kernel(0.0) == 0
        assert e_kernel(0.0) == 0

    def test_si_limit(self):
        assert abs(si(1e6) - math.pi / 2) <= 2e-6

    @pytest.mark.parametrize("x", sorted(SI_CI_REFERENCE))
    def test_frozen_values(self, x):
        s_ref, c_ref = SI_CI_REFERENCE[x]
        assert si(x) == pytest.approx(s_ref, abs=1e-11)
        assert float(ci(x)) == pytest.approx(c_ref, abs=1e-11)

    def test_negative_argument_conjugates(self):
        # Si is odd and Ci enters through |c|, so E(-c) = conj(E(c))
        for c in np.array([0.5, 1.0, 7.0, 40.0]) / math.pi:
            assert e_kernel(-c) == np.conj(e_kernel(c))

    def test_vectorized(self):
        xs = np.array([0.5, 1.0, 7.0])
        np.testing.assert_array_equal(ci(xs), [ci(float(v)) for v in xs])

    def test_against_quadrature_sweep(self):
        # 200 log-spaced points; Si and Ci built up by piecewise smooth
        # quadrature of sin(t)/t and (cos(t)-1)/t
        xs = np.logspace(-3, 3, 200)
        si_acc = 0.0
        ci_acc = 0.0
        prev = 0.0
        for x in xs:
            inc_s, _ = quad(lambda t: math.sin(t) / t if t else 1.0, prev, x, limit=200)
            inc_c, _ = quad(
                lambda t: (math.cos(t) - 1.0) / t if t else 0.0, prev, x, limit=200
            )
            si_acc += inc_s
            ci_acc += inc_c
            prev = x
            assert abs(si(float(x)) - si_acc) < 1e-9
            ci_expected = sf.EULER_GAMMA + math.log(x) + ci_acc
            assert abs(float(ci(float(x))) - ci_expected) < 1e-9


class TestEKernel:
    @pytest.mark.parametrize("c", [-7.0, -1.0, 0.0, 0.5, 3.0, 40.0])
    def test_against_quadrature(self, c):
        # R against integral_0^1 (cos(pi c u) - 1)/u du, and the oracle's E
        # against that and integral_0^1 sin(pi c u)/u du, its imaginary part
        re, _ = quad(lambda u: (math.cos(math.pi * c * u) - 1.0) / u, 0.0, 1.0,
                     limit=400, epsabs=1e-13, epsrel=1e-13)
        im, _ = quad(lambda u: math.sin(math.pi * c * u) / u, 0.0, 1.0,
                     limit=400, epsabs=1e-13, epsrel=1e-13)
        assert float(sf.r_kernel(c)) == pytest.approx(re, abs=1e-11)
        got = e_kernel(c)
        assert isinstance(got, complex)
        assert got.real == pytest.approx(re, abs=1e-11)
        assert got.imag == pytest.approx(im, abs=1e-11)

    def test_vectorized_matches_scalar(self):
        cs = np.arange(-50, 51)
        vec = sf.r_kernel(cs)
        assert vec.shape == cs.shape and vec.dtype == np.float64
        assert vec[50] == 0
        np.testing.assert_array_equal(vec, [sf.r_kernel(c) for c in cs])
        # R is even
        np.testing.assert_array_equal(vec, vec[::-1])


EPS = np.finfo(float).eps


def assert_within_4_ulp(got, ref):
    """|got - ref| <= 4 eps max(1, |ref|) elementwise."""
    err = np.abs(got - ref) / (4 * EPS * np.maximum(1.0, np.abs(ref)))
    assert err.max() <= 1.0, f"worst at index {err.argmax()}: {err.max() * 4:.2f} eps"


def near(x, steps=3):
    """Floats within steps ulps of x, either side."""
    out = [x]
    for direction in (-math.inf, math.inf):
        v = x
        for _ in range(steps):
            v = np.nextafter(v, direction)
            out.append(v)
    return out


class TestRAccuracy:
    """R against references on each branch: 40-digit mpmath at the float
    argument x = pi |m| that r_kernel forms, and scipy's sici."""

    @staticmethod
    def mp_reference(m):
        x = np.pi * np.abs(np.asarray(m, dtype=float))
        with mpmath.workdps(40):
            return np.array([float(mpmath.ci(mpmath.mpf(v)) - mpmath.euler
                                   - mpmath.log(mpmath.mpf(v))) for v in x])

    def check_mp(self, m):
        m = np.asarray(m, dtype=float)
        assert_within_4_ulp(sf.r_kernel(m), self.mp_reference(m))

    def test_log_spaced(self):
        self.check_mp(np.logspace(-6, 6, 241) / np.pi)

    def test_branch_boundaries(self):
        # m within three ulps of b / pi puts pi |m| on both sides of b
        for b in (sf._SERIES_MAX, sf._ASYMPTOTIC_MIN):
            m = np.array(near(b / np.pi))
            x = np.pi * m
            assert (x < b).any() and (x >= b).any()
            self.check_mp(m)

    def test_small_integers(self):
        self.check_mp(np.arange(1, 65))

    def test_powers_of_two(self):
        self.check_mp(2.0 ** np.arange(21))

    def test_against_sici_on_integer_lags(self):
        m = np.arange(-2**18, 2**18 + 1)
        x = np.pi * np.abs(m[m != 0])
        ref = np.zeros(m.shape)
        ref[m != 0] = sici(x)[1] - sf.EULER_GAMMA - np.log(x)
        assert_within_4_ulp(sf.r_kernel(m), ref)
