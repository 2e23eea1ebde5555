"""Special functions: the logarithmic kernel E of the limit operator, and
real Lambert W branches with a log-linear equation solver.

E is built from the sine and cosine integrals of scipy's sici (double
precision over the whole axis); the rest is implemented here because the
branch handling and the root substitution are specific to how the toolkit
consumes them.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy.special import sici

EULER_GAMMA = float(np.euler_gamma)


class DomainError(ValueError):
    """Argument outside the domain of the requested function/branch."""


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


def _halley(w, x):
    # solves w e^w = x; quadratically-safe Halley updates
    for _ in range(80):
        ew = math.exp(w)
        f = w * ew - x
        if f == 0.0:
            return w
        wp1 = w + 1.0
        denom = ew * wp1 - (w + 2.0) * f / (2.0 * wp1)
        step = f / denom
        w -= step
        if abs(step) <= 1e-15 * max(1.0, abs(w)):
            return w
    return w


def lambert_w(branch: int, x: float) -> float:
    """Real Lambert W: the solution w of w*exp(w) = x on the requested branch.

    branch 0 needs x >= -1/e; branch -1 needs -1/e <= x < 0.
    """
    if branch not in (0, -1):
        raise DomainError("branch must be 0 or -1")
    bp = -1.0 / math.e
    if x < bp - 1e-14:
        raise DomainError(f"no real Lambert W at x={x} < -1/e")
    x = max(x, bp)
    if branch == -1 and x >= 0:
        raise DomainError("branch -1 is defined on [-1/e, 0)")

    if x == 0.0:
        return 0.0
    p2 = 2.0 * (math.e * x + 1.0)
    if p2 <= 0.0:
        return -1.0  # exactly at the branch point
    p = math.sqrt(p2)
    if branch == 0:
        if x < -0.25:
            w = -1.0 + p - p * p / 3.0 + 11.0 / 72.0 * p**3
        elif x < 2.0:
            w = math.log1p(x) if x > -0.9 else -1.0 + p
        else:
            l1 = math.log(x)
            w = l1 - math.log(l1)
    else:
        if x < -0.25:
            w = -1.0 - p - p * p / 3.0 - 11.0 / 72.0 * p**3
        else:
            l1 = math.log(-x)
            w = l1 - math.log(-l1)
    return _halley(w, x)


@dataclass(frozen=True)
class LogLinearSolution:
    """Roots of a1*x + a2*log(x) + a3 = 0 and the substitution constants.

    x0 comes from the principal Lambert branch, xm1 from branch -1 (None when
    that branch does not apply). r1 = a2/a1, r2 = -a3/a2, r3 = a1/a2, and the
    roots are r1 * W_b(exp(r2) * r3); note r1 * r3 = 1 always.
    """

    x0: float | None
    xm1: float | None
    r1: float
    r2: float
    r3: float

    # roots below the smallest normal positive float are reported as None:
    # a subnormal x carries too few bits for log(x) to be meaningful


class NoRealRoot(ArithmeticError):
    """The Lambert argument falls below -1/e: no real solution."""


def solve_loglinear(a1: float, a2: float, a3: float) -> LogLinearSolution:
    """Solve a1*x + a2*log(x) + a3 = 0 for x > 0 via Lambert W.

    The Lambert argument exp(r2)*r3 is formed through its logarithm so the
    substitution stays accurate when exp(r2) leaves the normal float range;
    in the extreme regimes the roots are recovered directly in log space.
    """
    if a1 == 0:
        raise ValueError("a1 must be nonzero")
    if a2 == 0:
        # plain linear equation
        x = -a3 / a1
        return LogLinearSolution(x if x > 0 else None, None, math.nan, math.nan, math.nan)
    r1 = a2 / a1
    r2 = -a3 / a2
    r3 = a1 / a2
    lam = r2 + math.log(abs(r3))
    if lam <= -650.0:
        # the argument is subnormal or underflows: W0(arg) = arg to machine
        # precision, so the principal root collapses to exp(r2); the other
        # branch solves u - log(u) = -lam with u = -W_{-1} by Newton steps
        x0 = math.exp(r2)
        if x0 < sys.float_info.min:
            x0 = None
        xm1 = None
        if r3 < 0:
            L = -lam
            u = L + math.log(L)
            for _ in range(6):
                u -= (u - math.log(u) - L) / (1.0 - 1.0 / u)
            xm1 = abs(r1) * u
        return LogLinearSolution(x0, xm1, r1, r2, r3)
    if lam >= 650.0:
        # argument overflows; only the principal branch survives and
        # w + log(w) = lam is solved by Newton from the asymptotic start
        w = lam - math.log(lam)
        for _ in range(6):
            w -= (w + math.log(w) - lam) / (1.0 + 1.0 / w)
        x0 = r1 * w
        return LogLinearSolution(x0 if x0 > 0 else None, None, r1, r2, r3)
    arg = math.copysign(math.exp(lam), r3)
    if arg < -1.0 / math.e - 1e-14:
        raise NoRealRoot(f"exp(r2)*r3 = {arg} < -1/e")

    def _root(branch):
        try:
            w = lambert_w(branch, arg)
        except DomainError:
            return None
        x = r1 * w
        return x if x >= sys.float_info.min else None

    return LogLinearSolution(_root(0), _root(-1), r1, r2, r3)
