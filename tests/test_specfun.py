import math

import numpy as np
import pytest
from scipy.integrate import quad

from supres import specfun as sf


# reference values, frozen from adaptive quadrature of the defining integrals
SI_CI_REFERENCE = {
    1.0: (0.946083070367, 0.337403922901),
    math.pi: (1.851937051982, 0.073667912046),
    30.0: (1.566756540030, -0.033032417282),
    100.0: (1.562225466889, -0.005148825143),
}


def si_ci(x):
    """(Si(x), Ci(x)) for x > 0 read off the kernel: with c = x/pi,
    Re E(c) = Ci(x) - gamma - ln(x) and Im E(c) = Si(x)."""
    e = sf.e_kernel(np.asarray(x) / math.pi)
    return e.imag, e.real + sf.EULER_GAMMA + np.log(x)


class TestSiCi:
    def test_si_zero(self):
        assert sf.e_kernel(0.0) == 0

    def test_si_limit(self):
        s, _ = si_ci(1e6)
        assert abs(s - math.pi / 2) <= 2e-6

    @pytest.mark.parametrize("x", sorted(SI_CI_REFERENCE))
    def test_frozen_values(self, x):
        s_ref, c_ref = SI_CI_REFERENCE[x]
        s, c = si_ci(x)
        assert s == pytest.approx(s_ref, abs=1e-11)
        assert c == pytest.approx(c_ref, abs=1e-11)

    def test_negative_argument_conjugates(self):
        # Si is odd and Ci enters through |c|, so E(-c) = conj(E(c))
        cs = np.array([0.5, 1.0, 7.0, 40.0]) / math.pi
        np.testing.assert_array_equal(sf.e_kernel(-cs), np.conj(sf.e_kernel(cs)))

    def test_vectorized(self):
        xs = np.array([0.5, 1.0, 7.0])
        s, c = si_ci(xs)
        assert np.allclose(s, [si_ci(float(v))[0] for v in xs])
        assert np.allclose(c, [si_ci(float(v))[1] for v in xs])

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
            s, c = si_ci(float(x))
            assert abs(s - si_acc) < 1e-9
            ci_expected = sf.EULER_GAMMA + math.log(x) + ci_acc
            assert abs(c - ci_expected) < 1e-9


class TestEKernel:
    @pytest.mark.parametrize("c", [-7.0, -1.0, 0.0, 0.5, 3.0, 40.0])
    def test_against_quadrature(self, c):
        # real and imaginary parts of integral_0^1 (e^{i pi c u} - 1)/u du
        re, _ = quad(lambda u: (math.cos(math.pi * c * u) - 1.0) / u, 0.0, 1.0,
                     limit=400, epsabs=1e-13, epsrel=1e-13)
        im, _ = quad(lambda u: math.sin(math.pi * c * u) / u, 0.0, 1.0,
                     limit=400, epsabs=1e-13, epsrel=1e-13)
        got = sf.e_kernel(c)
        assert isinstance(got, complex)
        assert got.real == pytest.approx(re, abs=1e-11)
        assert got.imag == pytest.approx(im, abs=1e-11)

    def test_vectorized_matches_scalar(self):
        cs = np.arange(-50, 51)
        vec = sf.e_kernel(cs)
        assert vec.shape == cs.shape
        assert vec[50] == 0
        np.testing.assert_array_equal(vec, [sf.e_kernel(c) for c in cs])
        # real part even, imaginary part odd
        np.testing.assert_array_equal(vec.real, vec.real[::-1])
        np.testing.assert_array_equal(vec.imag, -vec.imag[::-1])

