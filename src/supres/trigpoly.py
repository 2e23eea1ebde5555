"""Trigonometric polynomials and Dirichlet kernels.

A polynomial of order n is stored as the dense coefficient array c_k,
k = -n..n, so that p(theta) = sum_k c_k exp(2i pi k theta). `eval` sums
the series at arbitrary points; `eval_grid` samples it on a uniform grid by
one inverse FFT. The Dirichlet kernel comes in two normalizations; the
centered one,

    D(theta) = sin((2n+1) pi theta) / ((2n+1) sin(pi theta)),

is the interpolation building block and the only one with closed-form
derivatives implemented here (orders 0 through 3, stable near theta = 0
through a series switch).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TrigPoly:
    """Dense trigonometric polynomial: coeffs[k + n] is the frequency-k coefficient."""

    n: int
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.complex128)
        if c.shape != (2 * self.n + 1,):
            raise ValueError(
                f"order {self.n} needs {2 * self.n + 1} coefficients, got {c.shape}"
            )
        object.__setattr__(self, "coeffs", c)

    def __add__(self, other):
        if self.n != other.n:
            raise ValueError("order mismatch")
        return TrigPoly(self.n, self.coeffs + other.coeffs)

    def __sub__(self, other):
        if self.n != other.n:
            raise ValueError("order mismatch")
        return TrigPoly(self.n, self.coeffs - other.coeffs)


@dataclass(frozen=True)
class DirichletSpec:
    """Dirichlet kernel description: cutoff n and normalization tag.

    centered:  (1/(2n+1)) sum_{|k| <= n} e^{2 i pi k theta}
    one_sided: (1/(n+1))  sum_{k=0}^{n}  e^{2 i pi k theta}
    """

    n: int
    normalization: str = "centered"

    def __post_init__(self):
        if self.normalization not in ("centered", "one_sided"):
            raise ValueError(f"unknown normalization {self.normalization!r}")
        if self.n < 0:
            raise ValueError("cutoff must be non-negative")


def freqs(p: TrigPoly) -> np.ndarray:
    return np.arange(-p.n, p.n + 1)


def eval(p: TrigPoly, theta):
    """Evaluate p at theta (scalar or array). Periodic with period 1."""
    th = np.asarray(theta, dtype=float)
    k = freqs(p)
    # outer-product evaluation; chunk large grids to keep the phase matrix small
    flat = np.atleast_1d(th).ravel()
    out = np.empty(flat.shape, dtype=np.complex128)
    step = max(1, 2_000_000 // (2 * p.n + 1))
    for i in range(0, flat.size, step):
        block = flat[i : i + step]
        out[i : i + step] = np.exp(2j * np.pi * np.outer(block, k)) @ p.coeffs
    out = out.reshape(np.shape(th))
    if np.isscalar(theta) or np.ndim(theta) == 0:
        return complex(out)
    return out


def eval_grid(p: TrigPoly, G: int) -> np.ndarray:
    """Values p(g/G), g = 0..G-1, by one zero-padded inverse FFT in O(G log G).

    The length-G buffer holds c_0..c_n at the front and c_-n..c_-1 at the
    back; G must exceed 2n so the two ends do not overlap.
    """
    n = p.n
    if G <= 2 * n:
        raise ValueError(f"grid of {G} points cannot hold order {n} (needs > {2 * n})")
    buf = np.zeros(G, dtype=np.complex128)
    buf[: n + 1] = p.coeffs[n:]
    buf[G - n :] = p.coeffs[:n]
    # "forward" puts the 1/G on the forward transform, so the inverse is the plain sum
    return np.fft.ifft(buf, norm="forward")


def dirichlet_poly(spec: DirichletSpec) -> TrigPoly:
    """Coefficient representation of the kernel (one-sided kernels get zero-padded
    negative frequencies so both fit the symmetric storage)."""
    n = spec.n
    c = np.zeros(2 * n + 1, dtype=np.complex128)
    if spec.normalization == "centered":
        c[:] = 1.0 / (2 * n + 1)
    else:
        c[n:] = 1.0 / (n + 1)
    return TrigPoly(n, c)


def dirichlet_deriv(spec: DirichletSpec, theta, order: int = 0):
    """Derivatives of the centered Dirichlet kernel, closed form.

    Parameters
    ----------
    spec : DirichletSpec
        Must be centered; the one-sided kernel is complex-valued and its
        derivatives are never needed in closed form.
    theta : float or ndarray
        Evaluation points (any reals; the kernel is 1-periodic).
    order : {0, 1, 2, 3}

    Returns
    -------
    float or ndarray

    Notes
    -----
    Writing N = 2n+1, u = pi*theta and h(u) = sin(Nu)/(N sin u), derivatives
    of h follow from repeated differentiation of N h sin(u) = sin(Nu):

        h'   = (cos(Nu)      - h g') / g
        h''  = (-N sin(Nu)   - h g'' - 2 h' g') / g
        h''' = (-N^2 cos(Nu) - h g''' - 3 h'' g' - 3 h' g'') / g

    with g = sin u. The kernel value is h and the theta-derivative picks up
    a factor pi per order. Near u = 0 the quotients cancel catastrophically,
    so below |theta| < 1e-4/n the quartic series

        h ~ 1 - (a/6) u^2 + b4 u^4,   a = N^2 - 1,  b4 = (3N^2 - 7) a / 360

    (and its derivatives) is used instead; at that radius the neglected u^6
    term is below 1e-12 of the leading scale for every order.
    """
    if spec.normalization != "centered":
        raise ValueError("closed-form derivatives exist for the centered kernel only")
    if order not in (0, 1, 2, 3):
        raise ValueError("order must be 0..3")
    n = spec.n
    N = 2 * n + 1
    th = np.asarray(theta, dtype=float)
    # reduce to [-1/2, 1/2): the kernel and all derivatives are 1-periodic
    red = th - np.round(th)
    u = np.pi * red

    eps = 1e-4 / max(n, 1)
    small = np.abs(red) < eps

    g = np.sin(u)
    g1 = np.cos(u)
    safe_g = np.where(small, 1.0, g)

    sN = np.sin(N * u)
    cN = np.cos(N * u)

    h0 = sN / (N * safe_g)
    h1 = (cN - h0 * g1) / safe_g
    h2 = (-N * sN - h0 * (-g) - 2.0 * h1 * g1) / safe_g
    h3 = (-N * N * cN - h0 * (-g1) - 3.0 * h2 * g1 - 3.0 * h1 * (-g)) / safe_g

    a = float(N) ** 2 - 1.0
    b4 = (3.0 * N * N - 7.0) * a / 360.0
    t0 = 1.0 - (a / 6.0) * u**2 + b4 * u**4
    t1 = -(a / 3.0) * u + 4.0 * b4 * u**3
    t2 = -(a / 3.0) + 12.0 * b4 * u**2
    t3 = 24.0 * b4 * u

    direct = (h0, h1, h2, h3)[order]
    series = (t0, t1, t2, t3)[order]
    val = np.pi**order * np.where(small, series, direct)
    if np.isscalar(theta) or np.ndim(theta) == 0:
        return float(val)
    return val


def dirichlet_truncate(p: TrigPoly, K: int):
    """Split p = p_K + p_K_err where p_K interpolates p at the 2K+1 grid points
    k/(2n+1), |k| <= K, against centered Dirichlet kernels at those points.

    K = n reproduces p exactly (full interpolation basis).
    """
    n = p.n
    if K > n:
        raise ValueError("K must not exceed the order")
    N = 2 * n + 1
    ks = np.arange(-K, K + 1)
    xs = ks / N
    samples = eval(p, xs)
    # sum_k p(x_k) D0(theta - x_k): frequency-j coefficient is
    # (1/N) sum_k p(x_k) e^{-2 i pi j x_k}
    j = freqs(p)
    ck = np.exp(-2j * np.pi * np.outer(j, xs)) @ samples / N
    p_K = TrigPoly(n, ck)
    return p_K, p - p_K
