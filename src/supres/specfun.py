"""The cosine-integral kernel R of the limit operator, on numpy alone.

R(x/pi) = Ci(x) - gamma - ln x is evaluated in three branches of x = pi|m|,
each accurate to a few ulp of max(1, |R|) on its range:

- x < _SERIES_MAX: the power series R = sum_{k>=1} (-1)^k x^(2k)/(2k (2k)!),
  which avoids the cancellation of Ci against gamma + ln x near 0;
- _SERIES_MAX <= x < _ASYMPTOTIC_MIN: Ci = -Re E1(ix), with E1 from its
  continued fraction e^(-z) / (z + 1 - 1^2/(z + 3 - 2^2/(z + 5 - ...)))
  evaluated backward from the fixed depth _CF_DEPTH;
- x >= _ASYMPTOTIC_MIN: the auxiliary functions' asymptotic series,
  Ci = f sin x - g cos x with f ~ sum (-1)^k (2k)!/x^(2k+1) and
  g ~ sum (-1)^k (2k+1)!/x^(2k+2) (Abramowitz & Stegun 5.2.8-5.2.9,
  5.2.34-5.2.35), cut after _ASYMPTOTIC_TERMS terms.

The tests hold R to 40-digit mpmath and to scipy's sici.
"""

from __future__ import annotations

import math

import numpy as np

EULER_GAMMA = float(np.euler_gamma)

_SERIES_MAX = 4.0
_ASYMPTOTIC_MIN = 40.0
# the backward continued fraction has converged to rounding from x = 4 at
# depth 50, but near x = 2 even depth 60 is off by 2e-13, so the power
# series covers x < 4; the first omitted terms are below 3e-20 for the power
# series at x = 4 and below 3e-17 for the asymptotic series at x = 40
_CF_DEPTH = 60
_ASYMPTOTIC_TERMS = 13
# coefficients (-1)^k / (2k (2k)!) of the power series, k = 16 down to 1
_SERIES = [(-1) ** k / (2 * k * math.factorial(2 * k)) for k in range(16, 0, -1)]


def _series(x):
    y = x * x
    acc = np.zeros_like(x)
    for c in _SERIES:
        acc = acc * y + c
    return acc * y + 0.0  # + 0.0 turns R(0) = -0.0 into 0.0


def _continued_fraction(x):
    k = np.arange(_CF_DEPTH, 0, -1)
    t = 0.0
    # the partial denominators z + 2k + 1 at z = ix, formed at once
    for k2, d in zip((k * k).tolist(), (2 * k + 1)[:, None] + 1j * x):
        t = k2 / (d - t)
    ci = -(np.exp(-1j * x) / (1j * x + 1 - t)).real
    return ci - EULER_GAMMA - np.log(x)


def _asymptotic(x):
    y = 1.0 / (x * x)
    f = np.zeros_like(x)
    g = np.zeros_like(x)
    for k in range(_ASYMPTOTIC_TERMS - 1, -1, -1):
        f = f * y + (-1) ** k * math.factorial(2 * k)
        g = g * y + (-1) ** k * math.factorial(2 * k + 1)
    ci = f / x * np.sin(x) - g * y * np.cos(x)
    return ci - EULER_GAMMA - np.log(x)


def r_kernel(m):
    """R(m) = integral over (0, 1] of (cos(pi m u) - 1)/u du, a float array
    of m's shape, with R(0) = 0.

    In closed form R(m) = Ci(pi|m|) - gamma - ln(pi|m|): the real, even
    kernel through which every off-center entry of the limit operator is
    expressed.
    """
    x = np.pi * np.abs(np.asarray(m, dtype=float))
    out = np.empty(x.shape)
    for branch, mask in ((_series, x < _SERIES_MAX),
                         (_continued_fraction, (x >= _SERIES_MAX) & (x < _ASYMPTOTIC_MIN)),
                         (_asymptotic, ~(x < _ASYMPTOTIC_MIN))):
        out[mask] = branch(x[mask])
    return out
