"""Interval-arithmetic checks of the rigorous bounds, independent of the
floating-point error analysis behind them.

`trigpoly.min_lower_bound` claims a lower bound on min p from one FFT under
a stated rounding assumption. Here mpmath's interval arithmetic encloses
p(theta*) at the argmin theta* of a fine grid, at 80 bits, from the
coefficients as given; since min p <= p(theta*), the claimed bound must not
exceed the enclosure's upper end.

`gram._toep_norm_upper` claims an upper bound on ||Toep(zeta)||_F, the norm
of the Gram PSD proof, from a float sum in the package's rounding model
(trigpoly.U and gamma) alone. Here the
weighted sum sum_s (d - |s|)|zeta_s|^2 is enclosed at 80 bits from the
coefficients as given, and the square of the claimed bound must not fall
below the enclosure's upper end.

`bound_audit.f_inner` claims an a-priori bound on the rounding error of its
closed form for F(s; theta). Here the same sum is enclosed at 80 bits from
the floats s and theta as given, and the float value must lie within its
bound of the enclosure.
"""

import numpy as np
import pytest

import supres.trigpoly as tp
from supres import bound_audit as ba, gram
from supres.certificate import AtomicMeasure, solve_certificate

from oracles import eval_grid, unfold
from test_gram import FALLBACK, cg_zeta

mpmath = pytest.importorskip("mpmath")
iv = mpmath.iv


@pytest.fixture(autouse=True)
def iv_80_bits():
    prec, iv.prec = iv.prec, 80
    try:
        yield
    finally:
        iv.prec = prec


def enclose_at_fine_argmin(p: np.ndarray):
    """Interval enclosure of Re p at theta* = g/G, the argmin of p's real part
    on the G = 64(2n+1) point grid, summed term by term over k = -n..n."""
    n = (len(p) - 1) // 2
    G = 64 * (2 * n + 1)
    g = int(np.argmin(eval_grid(p, G).real))
    t = 2 * iv.pi * iv.mpf(g) / G
    total = iv.mpf(0)
    for k, c in zip(range(-n, n + 1), p):
        total += iv.mpf(float(c.real)) * iv.cos(k * t) - iv.mpf(float(c.imag)) * iv.sin(k * t)
    return total


def assert_below_enclosure(half: np.ndarray):
    """min_lower_bound of the half c_0..c_n against the enclosure of its
    unfolded row."""
    bound = tp.min_lower_bound(half)
    enc = enclose_at_fine_argmin(unfold(half))
    assert iv.mpf(bound) <= enc.b, (len(half), bound, enc)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 21, 32])
def test_random_hermitian_polynomials(n):
    rng = np.random.default_rng(1000 + n)
    for _ in range(5):
        half = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert_below_enclosure(np.concatenate([[rng.standard_normal()], half]))


# the measures whose CG zeta the symbol floor and the norm bound are checked on
CG_MEASURES = pytest.mark.parametrize("m", [
    FALLBACK,
    AtomicMeasure(16, (0.1, 0.6), (1.0, -1.0)),
    AtomicMeasure(24, (0.05, 0.4, 0.7), (1.0, 1j, -1.0)),
], ids=["fallback", "n16", "n24"])


@CG_MEASURES
def test_cg_symbol(m):
    zeta, _ = cg_zeta(solve_certificate(m))
    assert_below_enclosure(zeta)


def enclose_toep_norm_squared(half: np.ndarray):
    """Interval enclosure of ||Toep(zeta)||_F^2 = sum_s (d - |s|)|zeta_s|^2
    over s = -2n..2n, d = 2n+1, for the half zeta_0..zeta_2n, term by term."""
    d = len(half)
    total = iv.mpf(0)
    for s, z in enumerate(half):
        term = (d - s) * (iv.mpf(float(z.real)) ** 2 + iv.mpf(float(z.imag)) ** 2)
        total += term if s == 0 else 2 * term
    return total


def assert_norm_above_enclosure(half: np.ndarray):
    bound = gram._toep_norm_upper(half)
    enc = enclose_toep_norm_squared(half)
    assert (iv.mpf(bound) ** 2).a >= enc.b, (len(half), bound, enc)


@pytest.mark.parametrize("n", range(1, 33))
def test_toep_norm_of_random_halves(n):
    # rows of unit scale and of tiny and huge ones, whose squares stay
    # clear of underflow and overflow
    rng = np.random.default_rng(2000 + n)
    for scale in (1.0, 1e-120, 1e120):
        for _ in range(4):
            half = rng.standard_normal(2 * n + 1) + 1j * rng.standard_normal(2 * n + 1)
            half[0] = half[0].real
            assert_norm_above_enclosure(scale * half)


@CG_MEASURES
def test_cg_toep_norm(m):
    zeta, _ = cg_zeta(solve_certificate(m))
    assert_norm_above_enclosure(zeta)


def enclose_inner_integral(s: float, theta: float, n: int):
    """Interval enclosures of Re F and Im F, F(s; theta) =
    -sum_{j=1}^{n+1} e^{2 pi i j a} sin(pi j theta)/(pi j) with the exact
    a = s - theta/2 of the floats s and theta."""
    a = iv.mpf(s) - iv.mpf(theta) / 2
    re = im = iv.mpf(0)
    for j in range(1, n + 2):
        q = iv.sin(iv.pi * j * iv.mpf(theta)) / (iv.pi * j)
        y = 2 * iv.pi * j * a
        re -= iv.cos(y) * q
        im -= iv.sin(y) * q
    return re, im


@pytest.mark.parametrize("n", [4, 16, 64])
def test_inner_integral_within_its_rounding_bound(n):
    rng = np.random.default_rng(70 + n)
    for label in ba.DOMAINS:
        for _ in range(2):
            s, theta = ba._proposal(label, n, rng)
            value, bound = ba.f_inner(s, theta, n)
            re, im = enclose_inner_integral(s, theta, n)
            # the largest distance from the float value to a point of the box
            d_re, d_im = re - float(value.real), im - float(value.imag)
            far = max(abs(d_re.a), abs(d_re.b)) ** 2 + max(abs(d_im.a), abs(d_im.b)) ** 2
            assert far <= iv.mpf(float(bound)) ** 2, (n, label, s, theta)
