"""The logarithmic kernel E of the limit operator.

E is built from the sine and cosine integrals of scipy's sici (double
precision over the whole axis).
"""

from __future__ import annotations

import numpy as np
from scipy.special import sici

EULER_GAMMA = float(np.euler_gamma)


def e_kernel(c):
    """E(c) = integral over (0, 1] of (e^{i pi c u} - 1)/u du, with E(0) = 0.

    In closed form E(c) = Ci(pi|c|) - gamma - ln(pi|c|) + i sgn(c) Si(pi|c|).
    The real part is the even kernel R through which every off-center entry
    of the limit operator is expressed.
    """
    arr = np.asarray(c, dtype=float)
    out = np.zeros(arr.shape, dtype=np.complex128)
    nz = arr != 0
    a = np.pi * np.abs(arr[nz])
    s, c_v = sici(a)
    out.real[nz] = c_v - EULER_GAMMA - np.log(a)
    out.imag[nz] = np.sign(arr[nz]) * s
    if np.ndim(c) == 0:
        return complex(out)
    return out
