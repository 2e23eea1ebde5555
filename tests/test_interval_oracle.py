"""Interval-arithmetic checks of the rigorous bounds, independent of the
floating-point error analysis behind them.

`trigpoly.min_lower_bound` claims a lower bound on min p from one FFT under
a stated rounding assumption. Here mpmath's interval arithmetic encloses
p(theta*) at the argmin theta* of a fine grid, at 80 bits, from the
coefficients as given; since min p <= p(theta*), the claimed bound must not
exceed the enclosure's upper end.

`bound_audit.f_inner` claims an a-priori bound on the rounding error of its
closed form for F(s; theta). Here the same sum is enclosed at 80 bits from
the floats s and theta as given, and the float value must lie within its
bound of the enclosure.
"""

import numpy as np
import pytest

import supres.trigpoly as tp
from supres import bound_audit as ba
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


@pytest.mark.parametrize("m", [
    FALLBACK,
    AtomicMeasure(16, (0.1, 0.6), (1.0, -1.0)),
    AtomicMeasure(24, (0.05, 0.4, 0.7), (1.0, 1j, -1.0)),
], ids=["fallback", "n16", "n24"])
def test_cg_symbol(m):
    zeta, _ = cg_zeta(solve_certificate(m))
    assert_below_enclosure(zeta)


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
