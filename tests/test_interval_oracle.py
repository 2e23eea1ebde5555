"""Interval-arithmetic checks of the rigorous bounds, independent of the
floating-point error analysis behind them.

`trigpoly.min_lower_bound` claims a lower bound on min p from one FFT under
a stated rounding assumption. Here mpmath's interval arithmetic encloses
p(theta*) at the argmin theta* of a fine grid, at 80 bits, from the
coefficients as given; since min p <= p(theta*), the claimed bound must not
exceed the enclosure's upper end.
"""

import numpy as np
import pytest

import supres.trigpoly as tp
from supres.certificate import AtomicMeasure, solve_certificate

from oracles import eval_grid
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


def assert_below_enclosure(p: np.ndarray):
    bound = tp.min_lower_bound(p)
    enc = enclose_at_fine_argmin(p)
    assert iv.mpf(bound) <= enc.b, (len(p), bound, enc)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 21, 32])
def test_random_hermitian_polynomials(n):
    rng = np.random.default_rng(1000 + n)
    for _ in range(5):
        half = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        coeffs = np.concatenate([np.conj(half[::-1]), [rng.standard_normal()], half])
        assert_below_enclosure(coeffs)


@pytest.mark.parametrize("m", [
    FALLBACK,
    AtomicMeasure(16, (0.1, 0.6), (1.0, -1.0)),
    AtomicMeasure(24, (0.05, 0.4, 0.7), (1.0, 1j, -1.0)),
], ids=["fallback", "n16", "n24"])
def test_cg_symbol(m):
    zeta, _ = cg_zeta(solve_certificate(m))
    assert_below_enclosure(zeta)
