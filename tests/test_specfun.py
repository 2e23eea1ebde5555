import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
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


class TestLambert:
    def test_special_points(self):
        assert sf.lambert_w(0, 0.0) == 0.0
        assert sf.lambert_w(0, math.e) == pytest.approx(1.0, abs=1e-14)
        assert sf.lambert_w(-1, -1.0 / math.e) == pytest.approx(-1.0, abs=1e-7)
        assert sf.lambert_w(0, -1.0 / math.e) == pytest.approx(-1.0, abs=1e-7)

    def test_domain_errors(self):
        with pytest.raises(sf.DomainError):
            sf.lambert_w(0, -0.5)
        with pytest.raises(sf.DomainError):
            sf.lambert_w(-1, 0.1)
        with pytest.raises(sf.DomainError):
            sf.lambert_w(1, 2.0)

    @settings(max_examples=200, deadline=None)
    @given(x=st.floats(-1.0 / math.e + 1e-12, 1e6, allow_nan=False))
    def test_branch0_defining_equation(self, x):
        w = sf.lambert_w(0, x)
        assert abs(w * math.exp(w) - x) <= 1e-12 * max(1.0, abs(x))

    @settings(max_examples=200, deadline=None)
    @given(x=st.floats(-1.0 / math.e + 1e-10, -1e-12, allow_nan=False))
    def test_branchm1_defining_equation(self, x):
        w = sf.lambert_w(-1, x)
        assert w <= -1.0 + 1e-6
        assert abs(w * math.exp(w) - x) <= 1e-12 * max(1.0, abs(x))

    def test_branches_bracket_minus_one(self):
        for x in (-0.05, -0.2, -0.3):
            assert sf.lambert_w(0, x) > -1.0
            assert sf.lambert_w(-1, x) < -1.0


class TestSolveLoglinear:
    def test_substitution_identity(self):
        sol = sf.solve_loglinear(1.0, -24 * 76 / 0.9, -24 * 155 / 0.9)
        # reference values for this instance (large negative r1, |r2| just
        # over 2, tiny r3 with r1*r3 = 1 by construction)
        assert sol.r1 == pytest.approx(-2026.666, abs=0.01)
        assert abs(sol.r2) == pytest.approx(2.0395, abs=1e-3)
        assert sol.r1 * sol.r3 == pytest.approx(1.0, abs=1e-12)
        assert sol.r3 == pytest.approx(-4.934e-4, abs=1e-6)

    @settings(max_examples=100, deadline=None)
    @given(
        a1=st.floats(0.1, 10),
        a2=st.floats(-200, -0.5),
        a3=st.floats(-500, -0.5),
    )
    def test_roots_satisfy_equation(self, a1, a2, a3):
        try:
            sol = sf.solve_loglinear(a1, a2, a3)
        except sf.NoRealRoot:
            return
        for x in (sol.x0, sol.xm1):
            if x is None:
                continue
            resid = a1 * x + a2 * math.log(x) + a3
            assert abs(resid) <= 1e-6 * (abs(a1 * x) + abs(a3))

    def test_linear_degenerate(self):
        sol = sf.solve_loglinear(2.0, 0.0, -3.0)
        assert sol.x0 == pytest.approx(1.5)
        assert sol.xm1 is None

    def test_no_real_root(self):
        # a1 x + a2 log x + a3 with a minimum above zero
        with pytest.raises(sf.NoRealRoot):
            sf.solve_loglinear(1.0, -1.0, 10.0)
