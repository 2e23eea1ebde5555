"""Trigonometric polynomials and the centered Dirichlet kernel.

A polynomial of order n is its dense coefficient array c_k, k = -n..n, so
that p(theta) = sum_k c_k exp(2i pi k theta). Every FFT of the package is a
real one, numpy's rfft or irfft. A real-valued p has a Hermitian row,
c_-k = conj(c_k), and travels as its half c_0..c_n, one longer than its
order; a complex p is the two halves of the rows of Re p and Im p. With
numpy's sign the irfft of a half samples p and the irfft of its
conjugate is the row's real spectrum (`to_spectrum`); `from_spectrum`
turns a real spectrum back into the half.
`phases` is the package's one sampler of such halves on a uniform grid:
G = m L points, L = fast_len(2h+1) from `fast_len`, the length rule of
every FFT in the package (all numpy's), as m inverse real FFTs of length
L per row, one phase at a time, so its callers keep O(L) memory however
fine the grid.
`min_lower_bound` turns such a sampling of a real polynomial into a
rigorous lower bound on its minimum, with the norms of the full row from
its half (`row_norms`); `fft_error_bound` and `TWIDDLE_EPS`
are the sampling's rounding terms in that bound.
`U` and `gamma` are the package's one floating-point model, which every
a-priori rounding bound in it rests on.
The kernel is the centered one,

    D(theta) = sin((2n+1) pi theta) / ((2n+1) sin(pi theta)),

the interpolation building block. `dirichlet_deriv` gives D, D', D'' from
one pass, switching to a sextic series below |theta| < 5e-3/n; each order m
is within 1e-12 of its scale (2 pi n)^m.
"""

from __future__ import annotations

import operator

import numpy as np

# the floating-point model (N. J. Higham, Accuracy and Stability of Numerical
# Algorithms, 2nd ed., section 3.1): every basic operation on doubles is
# exact times 1 + delta with |delta| <= U, the unit roundoff
U = 2.0**-53


def gamma(k: int) -> float:
    """gamma_k = kU/(1 - kU), the bound |theta_k| <= gamma_k on the relative
    error of k roundings (Higham, Lemma 3.1); kU < 1."""
    return k * U / (1 - k * U)


def fast_len(m: int) -> int:
    """Smallest 2^a 3^b 5^c >= m, m >= 1 any integer (numpy's too).

    The package's one FFT length rule: every transform in supres is numpy's
    at such a length, run by its mixed-radix kernels (radices 2 to 5, the
    case fft_error_bound's rounding assumption covers). A large prime factor
    would fall back to Bluestein's algorithm, several times slower.
    """
    m = operator.index(m)
    best = 1 << (m - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-m // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def fft_error_bound(L: int, norm2: float) -> float:
    """e0, the bound on every sample's rounding error when one inverse real
    FFT of length L (a phase of `phases`) samples a polynomial of coefficient
    2-norm norm2.

    In the model of U and gamma, Higham's Theorem 24.2 (section 24.1)
    bounds a radix-2 FFT by ||y^ - y||_2 <= eps ||y||_2 with
    eps = t e/(1 - t e), e = mu + gamma_4 (sqrt 2 + mu), t stages and
    twiddle factors within mu. numpy's FFT is mixed radix (2, 3, 4, 5 at
    fast_len lengths); assume it is within the theorem's bound with t
    doubled, t = 2 ceil(log2 L), and twiddles within mu = c U, c = 4. Since
    ||y||_2 = sqrt(L) norm2 bounds every sample's error, e0 = eps sqrt(L) norm2.

    A phase r > 0 transforms the twiddled coefficients, which differ from
    the exact c_k e^{2 pi i k r/G} by at most r TWIDDLE_EPS |c_k|; an
    error d in the coefficients moves each sample by at most ||d||_1. So
    m phases sample p on G = m L points with every sample within
    fft_error_bound(L, ||c||_2) + (m - 1) TWIDDLE_EPS ||c||_1 of p, to
    first order (the twiddled norm exceeds ||c||_2 by a relative
    (m - 1) TWIDDLE_EPS at most).
    """
    t = 2 * (L - 1).bit_length()
    e = 4 * U + gamma(4) * (np.sqrt(2) + 4 * U)
    return t * e / (1 - t * e) * np.sqrt(L) * norm2


# drift per phase of the twiddled coefficients in `phases`, relative to
# |c_k|: step_k = exp(2 pi i k/G) is within pi gamma_3 (three roundings of
# its angle, which is below pi) + sqrt(2) U (cos and sin each within an ulp)
# of the exact root, and each phase's complex multiply adds sqrt(2) gamma_2
# (Higham, Lemma 3.5); so phase r's coefficient is within r TWIDDLE_EPS |c_k|
# of c_k e^{2 pi i k r/G}, to first order
TWIDDLE_EPS = np.pi * gamma(3) + np.sqrt(2) * (U + gamma(2))


def to_spectrum(halves: np.ndarray, L: int) -> np.ndarray:
    """The real spectra at length L > 2h, sum_s c_s e^{-2 pi i s l/L} with
    numpy's sign, of the Hermitian rows with halves c_0..c_h (one row, or a
    stack on the last axis). A real spectrum is its own conjugate,
    sum_s conj(c_s) e^{2 pi i s l/L}: the irfft of the conjugated halves.
    The inverse of `from_spectrum`."""
    # "forward" puts the 1/L on the forward transform, so the inverse is the
    # plain sum; C order keeps the spectra of a transposed stack row-major
    return np.fft.irfft(np.conj(halves, order="C"), L, norm="forward")


def from_spectrum(spec: np.ndarray, h: int) -> np.ndarray:
    """The half c_0..c_h of the Hermitian row on -h..h whose spectrum at
    length L = len(spec) > 2h (`to_spectrum`) is the real array spec: its
    rfft holds L conj(c_s) at s >= 0. The inverse of `to_spectrum`; the
    rfft's entry 0, a sum of reals, is real, so Im c_0 is exactly 0."""
    return np.fft.rfft(spec)[: h + 1].conj() / len(spec)


def row_norms(half: np.ndarray) -> tuple[float, float]:
    """The 1-norm and the 2-norm of the Hermitian row with the non-empty
    half c_0..c_h, in which each c_k, k >= 1, stands twice:
    |c_0| + 2 sum |c_k| and sqrt(|c_0|^2 + 2 sum |c_k|^2)."""
    a = np.abs(half)
    norm1 = 2 * float(np.sum(a)) - float(a[0])
    # sqrt 2 |c_k| squares to the two terms of c_k and c_-k
    a[1:] *= np.sqrt(2)
    # norm squares the coefficients, which under- or overflow outside
    # 1e-150..1e150; rescale there
    with np.errstate(over="ignore"):
        norm2 = float(np.linalg.norm(a))
    if not 1e-150 < norm2 < 1e150:
        big = float(np.max(a))
        norm2 = big * float(np.linalg.norm(a / big)) if big else 0.0
    return norm1, norm2


def phases(halves: np.ndarray, m: int):
    """The values of the real polynomials with Hermitian coefficient rows of
    halves c_0..c_h (one row, or a stack of rows on the last axis; h is
    the length less one) at the G = m L points g/G, L = fast_len(2h+1), one
    phase at a time: for r = 0..m-1, yields the real values
    p((j m + r)/G), j = 0..L-1, of each row. Callers keep running
    reductions only, so a sampling takes O(L) memory per row however large
    m is, and O(m L log L) time. Raises ValueError, before the first phase,
    on empty halves; that each Im c_0 is 0 is the caller's to ensure.

    Phase r is one inverse real FFT of length L per row, since
    p(j/L + r/G) = sum_k c_k e^{2 pi i k r/G} e^{2 pi i k j/L} and the
    twiddled row is Hermitian too: its half k = 0..h is all the transform
    reads. The twiddled halves advance by one complex multiply per phase,
    by step_k = exp(2 pi i k/G) computed once (their drift: TWIDDLE_EPS).
    """
    h = halves.shape[-1] - 1
    if h < 0:
        raise ValueError("coefficient halves must not be empty")
    L = fast_len(2 * h + 1)
    # irfft reads L/2 + 1 entries: a half padded here once is not padded
    # again on every phase, which costs the transform up to a quarter more
    t = np.zeros(halves.shape[:-1] + (L // 2 + 1,), dtype=np.complex128)
    t[..., : h + 1] = halves
    step = np.exp(2j * np.pi * np.arange(L // 2 + 1) / (m * L))
    # the loop needs only t and step: a caller that drops its own reference
    # to the halves frees them here
    del halves
    for _ in range(m):
        # "forward" puts the 1/L on the forward transform, so the inverse is the plain sum
        yield np.fft.irfft(t, L, norm="forward")
        t *= step


def min_lower_bound(c: np.ndarray) -> float:
    """A lower bound on min over theta of the real-valued p whose Hermitian
    coefficient row on -n..n has the half c = c_0..c_n, in O(n log n) time
    and O(n) memory. Raises ValueError unless c is one non-empty row with
    Im c_0 == 0.

    p is sampled on G = 8L points, L = fast_len(2n+1), by the eight inverse
    real FFTs of `phases`, keeping only the least sample and the largest
    |sample|. Every theta lies between neighbouring samples a and
    b = a + 1/G, where p is within ||p''|| (theta - a)(b - theta)/2 <=
    ||p''||/(8 G^2) of the chord through p(a) and p(b). Bernstein's
    inequality for degree n (A. Zygmund, Trigonometric Series, ch. X),
    ||p''|| <= (2 pi n)^2 ||p||, makes that r ||p|| with
    r = (pi n/G)^2/2 < 0.02, since G >= 8(2n+1). So

        min p >= min_g p(g) - r ||p||,   ||p|| <= M/(1 - r),

    with M the largest |sample| (the second from |p| <= M + r ||p||).

    Rounding bound (in the model of U and gamma), for p with exactly the
    coefficients given: each sample is within
    e0 = fft_error_bound(L, ||c||_2) + 7 TWIDDLE_EPS ||c||_1 of p(g) (see
    fft_error_bound), with the norms of the full row, in which each c_k,
    k >= 1, stands twice (`row_norms`); M + e0 stands for M. Forming the
    Bernstein term and the final difference takes at most twelve roundings
    of terms no larger than M + e0 + the Bernstein term, so gamma_12 times
    that sum is subtracted too. The second-order terms and the rounding of the error
    terms' own arithmetic stay below a relative 2^-40; the subtracted terms
    carry a factor 1 + 2^-20 for them.
    """
    if c.ndim != 1 or len(c) == 0 or np.imag(c[0]) != 0:
        raise ValueError("need one non-empty half row c_0..c_n with Im c_0 == 0")
    n = len(c) - 1
    L, m = fast_len(2 * n + 1), 8
    lowest, top = np.inf, 0.0
    for vals in phases(c, m):
        lo, hi = float(vals.min()), float(vals.max())
        lowest, top = min(lowest, lo), max(top, hi, -lo)
    norm1, norm2 = row_norms(c)
    e0 = fft_error_bound(L, norm2) + (m - 1) * TWIDDLE_EPS * norm1
    r = (np.pi * n / (m * L)) ** 2 / 2
    bern = r * (top + e0) / (1 - r)
    arith = gamma(12) * (top + e0 + bern)
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

    (and its derivatives) overwrites the quotients there, evaluated on those
    points only. Against a 40-digit evaluation at
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

    # asarray: a float theta gives numpy scalars, which take no item writes
    h0 = np.asarray(sN / (N * safe_g))
    h1 = np.asarray((cN - h0 * g1) / safe_g)
    h2 = np.asarray((-N * sN - h0 * (-g) - 2.0 * h1 * g1) / safe_g)

    u = u[small]
    a = float(N) ** 2 - 1.0
    b4 = (3.0 * N * N - 7.0) * a / 360.0
    b6 = -(3.0 * float(N) ** 4 - 18.0 * N * N + 31.0) * a / 15120.0
    h0[small] = 1.0 - (a / 6.0) * u**2 + b4 * u**4 + b6 * u**6
    h1[small] = -(a / 3.0) * u + 4.0 * b4 * u**3 + 6.0 * b6 * u**5
    h2[small] = -(a / 3.0) + 12.0 * b4 * u**2 + 30.0 * b6 * u**4

    return h0, np.pi * h1, np.pi**2 * h2
