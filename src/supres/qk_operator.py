"""Truncated sections of the one-atom deconvolution operator.

The finite-n operator Id - A A~* for a single atom at the origin, written in
the basis of translated Dirichlet kernels and sampled on the grid
l/(2n+1), converges entrywise to a closed-form limit matrix Q as n grows.
Q is real, its row l1 = 0 is the first coordinate vector, rows with even
l1 != 0 vanish identically, and every remaining entry is a difference of
one fixed cosine-integral kernel R (specfun.r_kernel) at two lags. That
structure gives an O(K log K) matvec for the stabilized section
I - Q + P, where P projects onto the span of the first coordinate and one
explicit alternating vector w, which is all the operator stores of P.

qk_dense reconstructs the whole matrix from the precomputed kernel. The
tests check it against two independent routes in tests/oracles.py: qk_entry
assembles the printed cases one scalar at a time from its own complex
kernel E, whose real part is R (they must agree to 1e-12), and the
finite-n matrix qk_finite_n is the convergence arbiter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import specfun as sf
from . import trigpoly as tp
from .budget import check_budget


@dataclass(frozen=True, eq=False)
class AsymptoticOperator:
    """The section I - Q + P held as kernels, prefactors, and P's vector w.

    r_kernel holds R at lags -2K..2K; prefactor is the row scaling
    4/(pi l1)^2 on odd l1 and zero elsewhere, which realizes the even-row
    sparsity without branching; signs alternates (-1)^l. r_hat is numpy's
    real FFT of r_kernel at length fft_len = trigpoly.fast_len(4K+1), the
    package's one length rule. The full linear convolution with a
    length-(2K+1) vector spans lags 0..6K, and at any length >= 4K+1 the
    circular wrap leaves the lags 2K..4K the matvec keeps untouched.

    w is unit norm with w(0) = 0 and w(l) proportional to (-1)^l / l, so it
    is orthogonal to the first coordinate e0 and P = e0 e0^T + w w^T is the
    rank-two projector onto their span.
    """

    K: int
    r_kernel: np.ndarray
    prefactor: np.ndarray
    signs: np.ndarray
    w: np.ndarray
    fft_len: int
    r_hat: np.ndarray

    @property
    def dim(self) -> int:
        return 2 * self.K + 1


def build_operator(K: int) -> AsymptoticOperator:
    if K < 1:
        raise ValueError("K must be at least 1")
    ells = np.arange(-K, K + 1)
    r_kernel = sf.r_kernel(np.arange(-2 * K, 2 * K + 1))
    prefactor = np.zeros(2 * K + 1)
    odd = ells % 2 != 0
    prefactor[odd] = 4.0 / (np.pi * ells[odd]) ** 2
    signs = np.where(ells % 2 == 0, 1.0, -1.0)
    fft_len = tp.fast_len(4 * K + 1)
    r_hat = np.fft.rfft(r_kernel, fft_len)
    w = np.zeros(2 * K + 1)
    nz = ells != 0
    w[nz] = signs[nz] / ells[nz]
    w /= np.linalg.norm(w)
    return AsymptoticOperator(K, r_kernel, prefactor, signs, w, fft_len, r_hat)


def _conv_r(op: AsymptoticOperator, v: np.ndarray) -> np.ndarray:
    """Lags 2K..4K of the linear convolution v * r_kernel, by one forward
    and one inverse real FFT against the cached kernel transform."""
    if np.iscomplexobj(v):
        return _conv_r(op, v.real) + 1j * _conv_r(op, v.imag)
    K = op.K
    return np.fft.irfft(np.fft.rfft(v, op.fft_len) * op.r_hat, op.fft_len)[2 * K : 4 * K + 1]


def _project(op: AsymptoticOperator, x: np.ndarray) -> np.ndarray:
    """P x = w (w . x) + x[K] e0; P is symmetric, so both products add it."""
    y = op.w * np.dot(op.w, x)
    y[op.K] += x[op.K]
    return y


def matvec(op: AsymptoticOperator, x: np.ndarray) -> np.ndarray:
    """(I - Q + P) x in O(K log K); Q x takes one convolution with R."""
    x = np.asarray(x)
    if x.shape != (op.dim,):
        raise ValueError("vector length must be 2K+1")
    K = op.K
    z = op.signs * x
    alpha = np.dot(op.r_kernel[K : 3 * K + 1], z)
    conv = _conv_r(op, z)
    qx = op.prefactor * (alpha - conv - x[K])
    qx[K] = x[K]
    return x - qx + _project(op, x)


def matvec_transpose(op: AsymptoticOperator, x: np.ndarray) -> np.ndarray:
    """(I - Q + P)^T x in O(K log K); Q^T x takes one convolution with R,
    and since Q is real this is also the adjoint."""
    x = np.asarray(x)
    if x.shape != (op.dim,):
        raise ValueError("vector length must be 2K+1")
    K = op.K
    v = op.prefactor * x
    s = np.sum(v)
    conv = _conv_r(op, v)
    qtx = op.signs * (op.r_kernel[K : 3 * K + 1] * s - conv)
    qtx[K] += x[K] - s
    return x - qtx + _project(op, x)


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
