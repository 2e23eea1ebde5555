"""Trigonometric polynomials and the centered Dirichlet kernel.

A polynomial of order n is stored as the dense coefficient array c_k,
k = -n..n, so that p(theta) = sum_k c_k exp(2i pi k theta). For FFTs the
array is laid out with c_k at index k mod length (`to_grid`, `from_grid`).
`eval_grid` samples p on a uniform grid by one inverse FFT, at a 5-smooth
length from `fast_len`, the length rule of every FFT in the package (all
numpy's). `min_lower_bound` turns one such sampling into a rigorous lower
bound on a real polynomial's minimum.
The kernel is the centered one,

    D(theta) = sin((2n+1) pi theta) / ((2n+1) sin(pi theta)),

the interpolation building block. `dirichlet_deriv` gives D, D', D'' from
one pass, switching to a sextic series below |theta| < 5e-3/n; each order m
is within 1e-12 of its scale (2 pi n)^m.
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


def to_grid(x: np.ndarray, length: int) -> np.ndarray:
    """Rows of coefficients on -h..h placed at index k mod length: c_0..c_h
    at the front of each row, c_-h..c_-1 at the back. This is the layout
    every FFT of the package reads and writes; length must exceed 2h so the
    two ends do not overlap."""
    h = (x.shape[-1] - 1) // 2
    buf = np.zeros(x.shape[:-1] + (length,), dtype=np.complex128)
    buf[..., : h + 1] = x[..., h:]
    buf[..., length - h :] = x[..., :h]
    return buf


def from_grid(buf: np.ndarray, h: int) -> np.ndarray:
    """Coefficients -h..h of rows laid out as in to_grid."""
    return np.concatenate([buf[..., buf.shape[-1] - h :], buf[..., : h + 1]], axis=-1)


def eval_grid(p: TrigPoly, G: int) -> np.ndarray:
    """Values p(g/G), g = 0..G-1, by one zero-padded inverse FFT in O(G log G).

    G must exceed 2n so that the to_grid layout holds the 2n+1 coefficients.
    """
    n = p.n
    if G <= 2 * n:
        raise ValueError(f"grid of {G} points cannot hold order {n} (needs > {2 * n})")
    # "forward" puts the 1/G on the forward transform, so the inverse is the plain sum
    return np.fft.ifft(to_grid(p.coeffs, G), norm="forward")


def fast_len(m: int) -> int:
    """Smallest 2^a 3^b 5^c >= m, m >= 1.

    The package's one FFT length rule: every transform in supres is numpy's
    at such a length, run by its mixed-radix kernels (radices 2 to 5, the
    case min_lower_bound's rounding assumption covers). A large prime factor
    would fall back to Bluestein's algorithm, several times slower.
    """
    best = 1 << (m - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-m // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def min_lower_bound(p: TrigPoly) -> float:
    """A lower bound on min over theta of p(theta), for p real valued
    (Hermitian coefficients, c_-k = conj(c_k)), from one FFT in O(n log n).

    p is sampled by eval_grid on G = fast_len(8(2n+1)) points. Every theta
    lies between neighbouring samples a and b = a + 1/G, where p is within
    ||p''|| (theta - a)(b - theta)/2 <= ||p''||/(8 G^2) of the chord through
    p(a) and p(b). Bernstein's inequality for degree n (A. Zygmund,
    Trigonometric Series, ch. X), ||p''|| <= (2 pi n)^2 ||p||, makes that
    r ||p|| with r = (pi n/G)^2/2 < 0.02. So

        min p >= min_g p(g) - r ||p||,   ||p|| <= M/(1 - r),

    with M the largest |sample| (the second from |p| <= M + r ||p||).

    Rounding bound (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., sections 3.1 and 24.1; u = 2^-53, gamma_k = ku/(1-ku)). The
    bound is for p with exactly the coefficients given. Theorem 24.2 bounds
    a radix-2 FFT by ||y^ - y||_2 <= eps ||y||_2 with eps = t e/(1 - t e),
    e = mu + gamma_4 (sqrt 2 + mu), t stages and twiddle factors within mu.
    numpy's FFT is mixed radix (2, 3, 4, 5 at these lengths); assume it is
    within the theorem's bound with t doubled, t = 2 ceil(log2 G), and
    twiddles within mu = c u, c = 4. Since ||y||_2 = sqrt(G) ||c||_2 bounds
    every sample's error, each sample is within e0 = eps sqrt(G) ||c||_2 of
    p(g), and M + e0 stands for M. Forming the Bernstein term and the final
    difference takes at most twelve roundings of terms no larger than
    M + e0 + the Bernstein term, so gamma_12 times that sum is subtracted
    too. The second-order terms and the rounding of the error terms' own
    arithmetic stay below a relative 2^-40; the subtracted terms carry a
    factor 1 + 2^-20 for them.
    """
    G = fast_len(8 * (2 * p.n + 1))
    vals = eval_grid(p, G)
    lowest, top = float(np.min(vals.real)), float(np.max(np.abs(vals)))
    u = 2.0**-53
    t = 2 * (G - 1).bit_length()
    e = 4 * u + 4 * u / (1 - 4 * u) * (np.sqrt(2) + 4 * u)
    e0 = t * e / (1 - t * e) * np.sqrt(G) * float(np.linalg.norm(p.coeffs))
    r = (np.pi * p.n / G) ** 2 / 2
    bern = r * (top + e0) / (1 - r)
    arith = 12 * u / (1 - 12 * u) * (top + e0 + bern)
    return float(lowest - (1 + 2.0**-20) * (bern + e0 + arith))


def dirichlet_deriv(n: int, theta):
    """(D, D', D'') at theta, arrays of theta's shape, from one pass: the
    centered Dirichlet kernel of cutoff n (frequencies -n..n) and its first
    two derivatives, in closed form at any real theta (1-periodic).

    Writing N = 2n+1, u = pi*theta and h(u) = sin(Nu)/(N sin u), derivatives
    of h follow from repeated differentiation of N h sin(u) = sin(Nu):

        h'   = (cos(Nu)      - h g') / g
        h''  = (-N sin(Nu)   - h g'' - 2 h' g') / g

    with g = sin u. The kernel value is h and the theta-derivative picks up
    a factor pi per order. Near u = 0 the quotients cancel, so below
    |theta| < 5e-3/n the sextic series

        h ~ 1 - (a/6) u^2 + b4 u^4 + b6 u^6,   a = N^2 - 1,
        b4 = (3N^2 - 7) a / 360,   b6 = -(3N^4 - 18N^2 + 31) a / 15120

    (and its derivatives) is used instead. Against a 40-digit evaluation at
    n = 64..16384 every order m is within 1e-12 (2 pi n)^m on both sides of
    the switch; the worst, 5e-13 for D'', is in the quotients just above it.
    """
    N = 2 * n + 1
    th = np.asarray(theta, dtype=float)
    # reduce to [-1/2, 1/2): the kernel and all derivatives are 1-periodic
    red = th - np.round(th)
    u = np.pi * red

    small = np.abs(red) < 5e-3 / max(n, 1)

    g = np.sin(u)
    g1 = np.cos(u)
    safe_g = np.where(small, 1.0, g)

    sN = np.sin(N * u)
    cN = np.cos(N * u)

    h0 = sN / (N * safe_g)
    h1 = (cN - h0 * g1) / safe_g
    h2 = (-N * sN - h0 * (-g) - 2.0 * h1 * g1) / safe_g

    a = float(N) ** 2 - 1.0
    b4 = (3.0 * N * N - 7.0) * a / 360.0
    b6 = -(3.0 * float(N) ** 4 - 18.0 * N * N + 31.0) * a / 15120.0
    t0 = 1.0 - (a / 6.0) * u**2 + b4 * u**4 + b6 * u**6
    t1 = -(a / 3.0) * u + 4.0 * b4 * u**3 + 6.0 * b6 * u**5
    t2 = -(a / 3.0) + 12.0 * b4 * u**2 + 30.0 * b6 * u**4

    return (np.where(small, t0, h0),
            np.pi * np.where(small, t1, h1),
            np.pi**2 * np.where(small, t2, h2))
