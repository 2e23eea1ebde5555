"""The cosine-integral kernel R of the limit operator.

R is built from the cosine integral of scipy's sici (double precision over
the whole axis).
"""

from __future__ import annotations

import numpy as np
from scipy.special import sici

EULER_GAMMA = float(np.euler_gamma)


def r_kernel(m):
    """R(m) = integral over (0, 1] of (cos(pi m u) - 1)/u du, a float array
    of m's shape, with R(0) = 0.

    In closed form R(m) = Ci(pi|m|) - gamma - ln(pi|m|): the real, even
    kernel through which every off-center entry of the limit operator is
    expressed.
    """
    a = np.pi * np.abs(np.asarray(m, dtype=float))
    out = np.zeros(a.shape)
    nz = a != 0
    _, ci = sici(a[nz])
    out[nz] = ci - EULER_GAMMA - np.log(a[nz])
    return out
