"""Truncated sections of the one-atom deconvolution operator.

The finite-n operator Id - A A~* for a single atom at the origin, written in
the basis of translated Dirichlet kernels and sampled on the grid
l/(2n+1), converges entrywise to a closed-form limit matrix Q as n grows.
Q is real, its row l1 = 0 is the first coordinate vector, rows with even
l1 != 0 vanish identically, and every remaining entry is a difference of
one fixed cosine-integral kernel R at two lags. That structure gives an
O(K log K) matvec for the stabilized section I - Q + P, where P projects
onto the span of the first coordinate and one explicit alternating vector.

Entries are available through two independent routes: qk_entry assembles
the printed special-function cases one scalar at a time, while qk_dense
reconstructs the whole matrix from the precomputed kernel. The two must
agree to 1e-12; tests enforce that, and the finite-n matrix qk_finite_n
provides the convergence arbiter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft

from . import specfun as sf
from .budget import check_budget


def dirichlet_limit(ell: int) -> complex:
    """Pointwise limit of the one-sided Dirichlet average at integer lags.

    Equals (e^{i pi l} - 1)/(i pi l) with value 1 at l = 0; exactly zero at
    even nonzero integers, computed by parity so the sparsity is exact.
    """
    if ell == 0:
        return 1.0 + 0j
    if ell % 2 == 0:
        return 0.0 + 0j
    return 2j / (np.pi * ell)


def qk_p0_term(l1: int, l2: int) -> float:
    """The |D|^2 p(0) subtraction: nonzero only on the center column."""
    if l2 != 0:
        return 0.0
    return float(abs(dirichlet_limit(l1)) ** 2)


def qk_entry(K: int, l1: int, l2: int) -> complex:
    """Test oracle: closed-form limit entry at (l1, l2), assembled case by
    case; TestDense::test_matches_entry_route checks qk_dense against it.

    Cases: the l1 = 0 row is e0^T; even l1 != 0 vanishes through the
    Dirichlet prefactor; otherwise the entry is 2 Re(D S1) minus the
    center-column subtraction, with S1 built from four E-kernel values.
    """
    if abs(l1) > K or abs(l2) > K:
        raise ValueError("indices must satisfy |l1|, |l2| <= K")
    if l1 == 0:
        return complex(1.0 if l2 == 0 else 0.0)
    D = dirichlet_limit(l1)
    if D == 0:
        return 0.0 + 0j
    sgn_l2 = -1.0 if l2 % 2 else 1.0
    sgn_l12 = -1.0 if (l1 + l2) % 2 else 1.0
    s1 = (
        sgn_l2 * (sf.e_kernel(l2) - sf.e_kernel(l2 - l1))
        + sgn_l12 * (sf.e_kernel(l1 - l2) - sf.e_kernel(-l2))
    ) / (2j * np.pi * l1)
    return complex(2.0 * np.real(D * s1) - qk_p0_term(l1, l2))


@dataclass(frozen=True)
class ProjectorPinf:
    """Rank-two projector onto the first coordinate and the alternating vector.

    w is unit norm with w(0) = 0 and w(k) proportional to (-1)^k / k, so the
    two ranges are orthogonal and P = e0 e0^T + w w^T is itself a projector.
    """

    K: int
    w: np.ndarray

    @property
    def dim(self) -> int:
        return 2 * self.K + 1

    def apply(self, x: np.ndarray) -> np.ndarray:
        y = self.w * np.dot(self.w, x)
        y[self.K] += x[self.K]
        return y

    def matrix(self) -> np.ndarray:
        e0 = np.zeros(self.dim)
        e0[self.K] = 1.0
        return np.outer(e0, e0) + np.outer(self.w, self.w)


def build_pinf(K: int) -> ProjectorPinf:
    ells = np.arange(-K, K + 1)
    w = np.zeros(2 * K + 1)
    nz = ells != 0
    w[nz] = np.where(ells[nz] % 2 == 0, 1.0, -1.0) / ells[nz]
    w /= np.linalg.norm(w)
    return ProjectorPinf(K, w)


@dataclass(frozen=True)
class AsymptoticOperator:
    """The section I - Q + P held as kernels, prefactors, and the projector.

    r_kernel holds R at lags -2K..2K; prefactor is the row scaling
    4/(pi l1)^2 on odd l1 and zero elsewhere, which realizes the even-row
    sparsity without branching; signs alternates (-1)^l. r_hat is the real
    FFT of r_kernel at length fft_len >= 4K+1: the full linear convolution
    with a length-(2K+1) vector spans lags 0..6K, and at that length the
    circular wrap leaves the lags 2K..4K the matvec keeps untouched.
    """

    K: int
    r_kernel: np.ndarray
    prefactor: np.ndarray
    signs: np.ndarray
    pinf: ProjectorPinf
    fft_len: int
    r_hat: np.ndarray

    @property
    def dim(self) -> int:
        return 2 * self.K + 1


def build_operator(K: int) -> AsymptoticOperator:
    if K < 1:
        raise ValueError("K must be at least 1")
    ells = np.arange(-K, K + 1)
    # R = Re E is real and even: Ci(pi|m|) - gamma - ln(pi|m|), R(0) = 0.
    # Contiguous copy: the strided .real view sums in another order in the
    # matvec's dot products, and the last bits of the reports would move.
    r_kernel = np.ascontiguousarray(sf.e_kernel(np.arange(-2 * K, 2 * K + 1)).real)
    prefactor = np.zeros(2 * K + 1)
    odd = ells % 2 != 0
    prefactor[odd] = 4.0 / (np.pi * ells[odd]) ** 2
    signs = np.where(ells % 2 == 0, 1.0, -1.0)
    fft_len = next_fast_len(4 * K + 1, real=True)
    return AsymptoticOperator(K, r_kernel, prefactor, signs, build_pinf(K),
                              fft_len, rfft(r_kernel, fft_len))


def _conv_r(op: AsymptoticOperator, v: np.ndarray) -> np.ndarray:
    """Lags 2K..4K of the linear convolution v * r_kernel, by one forward
    and one inverse real FFT against the cached kernel transform."""
    if np.iscomplexobj(v):
        return _conv_r(op, v.real) + 1j * _conv_r(op, v.imag)
    K = op.K
    return irfft(rfft(v, op.fft_len) * op.r_hat, op.fft_len)[2 * K : 4 * K + 1]


def _q_apply(op: AsymptoticOperator, x: np.ndarray) -> np.ndarray:
    """y = Q x through one circular convolution with the R kernel."""
    K = op.K
    z = op.signs * x
    alpha = np.dot(op.r_kernel[K : 3 * K + 1], z)
    conv = _conv_r(op, z)
    y = op.prefactor * (alpha - conv - x[K])
    y[K] = x[K]
    return y


def _q_apply_transpose(op: AsymptoticOperator, x: np.ndarray) -> np.ndarray:
    """y = Q^T x; Q is real, so this is also the adjoint."""
    K = op.K
    v = op.prefactor * x
    s = np.sum(v)
    conv = _conv_r(op, v)
    y = op.signs * (op.r_kernel[K : 3 * K + 1] * s - conv)
    y[K] += x[K] - s
    return y


def matvec(op: AsymptoticOperator, x: np.ndarray) -> np.ndarray:
    """(I - Q + P) x in O(K log K)."""
    x = np.asarray(x)
    if x.shape != (op.dim,):
        raise ValueError("vector length must be 2K+1")
    return x - _q_apply(op, x) + op.pinf.apply(x)


def matvec_transpose(op: AsymptoticOperator, x: np.ndarray) -> np.ndarray:
    """(I - Q + P)^T x; P is symmetric, Q transposes through the kernel."""
    x = np.asarray(x)
    if x.shape != (op.dim,):
        raise ValueError("vector length must be 2K+1")
    return x - _q_apply_transpose(op, x) + op.pinf.apply(x)


def qk_dense(K: int) -> np.ndarray:
    """Dense limit matrix Q reconstructed from the R kernel.

    Row l1 = 0 is e0^T, even rows vanish, and odd rows are
    g(l1) [(-1)^{l2} (R(l2) - R(l1 - l2)) - delta_{l2,0}]. Raises
    BudgetExceeded past the memory budget.
    """
    dim = 2 * K + 1
    # 24 peak resident bytes per entry, the lag index table and temporaries
    # included, measured with getrusage at K = 1000..2000
    check_budget(24 * dim * dim, f"dense {dim}x{dim} limit matrix")
    op = build_operator(K)
    ells = np.arange(-K, K + 1)
    rk = op.r_kernel
    # R(l2) and R(l1 - l2) gathered from the single kernel vector
    r_l2 = rk[ells + 2 * K]
    r_diff = rk[(ells[:, None] - ells[None, :]) + 2 * K]
    body = op.signs[None, :] * (r_l2[None, :] - r_diff)
    body[:, K] -= 1.0
    Q = op.prefactor[:, None] * body
    Q[K, :] = 0.0
    Q[K, K] = 1.0
    return Q


def qk_finite_n(K: int, n: int) -> np.ndarray:
    """Test oracle: the finite-n matrix, the one-atom operator applied to
    translated Dirichlet kernels, sampled at l1/(2n+1);
    TestFiniteN::test_converges_to_limit checks qk_dense against it.

    Entry [l1, l2] is 2 Re(D(theta) S1(theta)) - |D(theta)|^2 p(0) at
    theta = l1/(2n+1), where p is the Dirichlet kernel centered at
    l2/(2n+1), D is the one-sided exponential average of degree n, and S1
    collects the window sums of the weighted Toeplitz lift of p against the
    all-ones vector.
    """
    if n < 4 * K:
        raise ValueError("need n >= 4K for the sampling grid to stay local")
    ells = np.arange(-K, K + 1)
    thetas = ells / (2 * n + 1.0)
    k = np.arange(0, n + 1)
    z = np.exp(2j * np.pi * thetas)
    with np.errstate(invalid="ignore", divide="ignore"):
        geo = (z ** (n + 1) - 1.0) / (z - 1.0) / (n + 1)
    D = np.where(ells == 0, 1.0 + 0j, geo)
    phi = np.exp(-2j * np.pi * np.outer(thetas, k))
    s = np.arange(-n, n + 1)
    w = (n + 1.0) - np.abs(s)
    out = np.zeros((2 * K + 1, 2 * K + 1))
    for j2, l2 in enumerate(ells):
        beta = l2 / (2 * n + 1.0)
        ct = np.exp(-2j * np.pi * s * beta) / (2 * n + 1.0) / w
        pref = np.concatenate(([0.0 + 0j], np.cumsum(ct)))
        hu = pref[k + n + 1] - pref[k]
        s1 = phi @ np.conj(hu)
        p0 = 1.0 if l2 == 0 else 0.0
        out[:, j2] = 2.0 * np.real(D * s1) - np.abs(D) ** 2 * p0
    return out

