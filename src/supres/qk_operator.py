"""Truncated sections of the one-atom deconvolution operator.

The finite-n operator Id - A A~* for a single atom at the origin, written in
the basis of translated Dirichlet kernels and sampled on the grid
l/(2n+1), converges entrywise to a closed-form limit matrix Q as n grows.
Q is real, its row l1 = 0 is the first coordinate vector, rows with even
l1 != 0 vanish identically, and every remaining entry is a difference of
one fixed cosine-integral kernel R (specfun.r_kernel) at two lags. That
structure gives O(K log K) products with the stabilized section I - Q + P
and its transpose, where P projects onto the span of the first coordinate
and one explicit alternating vector w, which is all the operator stores of
P. Q's rows vanish on the even l1 != 0 and Q^T reads only the odd l, so
each product splits the convolution with R by the parity of l into
Toeplitz blocks of half size, done by real FFTs at length fast_len(2K)
(see AsymptoticOperator).

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
    sparsity without branching; signs alternates (-1)^l.

    Split by the parity of l, Q's odd rows are T_OE x_E - T_OO x_O plus
    rank-one terms, and Q^T's even and odd outputs are T_EO v and T_OO v for
    v on the odd l: Toeplitz blocks between the classes E and O, with kernel
    R at odd lags (T_OE, T_EO) or at even lags (T_OO). spectra holds numpy's
    real FFTs of their circulant embeddings, rows (T_OE, T_OO, T_EO), at
    fft_len = trigpoly.fast_len(2K), the package's one length rule.

    The length note: a Toeplitz block with n_out rows and n_in columns uses
    n_in + n_out - 1 lags, and at any length at least that the circular
    wrap leaves every output untouched. The classes hold K and K + 1 of the
    l, so the mixed blocks use 2K lags, and so does T_OO for even K. For odd
    K, T_OO is (K+1) x (K+1) with 2K + 1 lags: its corner lags, R(2K) and
    R(-2K), share one slot mod 2K. That is harmless only because R is even,
    so both corners read the same value.

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
    spectra: np.ndarray

    @property
    def dim(self) -> int:
        return 2 * self.K + 1

    @property
    def odd(self) -> slice:
        """Positions of the odd l in a vector on -K..K."""
        return slice(1 - self.K % 2, None, 2)

    @property
    def even(self) -> slice:
        """Positions of the even l in a vector on -K..K."""
        return slice(self.K % 2, None, 2)


def build_operator(K: int) -> AsymptoticOperator:
    if K < 1:
        raise ValueError("K must be at least 1")
    ells = np.arange(-K, K + 1)
    # R is even: evaluate lags 0..2K and mirror
    half = sf.r_kernel(np.arange(2 * K + 1))
    r_kernel = np.concatenate((half[:0:-1], half))
    prefactor = np.zeros(2 * K + 1)
    odd = ells % 2 != 0
    prefactor[odd] = 4.0 / (np.pi * ells[odd]) ** 2
    signs = np.where(ells % 2 == 0, 1.0, -1.0)
    fft_len = tp.fast_len(2 * K)
    # class sizes and the lag l_O - l_E between the first odd and first even l
    n_o, n_e, shift = K + K % 2, K + 1 - K % 2, 1 - 2 * (K % 2)
    cols = np.zeros((3, fft_len))
    for col, (n_out, n_in, lag0) in zip(cols, ((n_o, n_e, shift), (n_o, n_o, 0),
                                               (n_e, n_o, -shift))):
        d = np.arange(1 - n_in, n_out)
        col[d % fft_len] = r_kernel[2 * K + lag0 + 2 * d]
    w = np.zeros(2 * K + 1)
    nz = ells != 0
    w[nz] = signs[nz] / ells[nz]
    w /= np.linalg.norm(w)
    return AsymptoticOperator(K, r_kernel, prefactor, signs, w, fft_len, np.fft.rfft(cols))


def _project(op: AsymptoticOperator, x: np.ndarray) -> np.ndarray:
    """P x = w (w . x) + x[K] e0; P is symmetric, so both products add it."""
    y = op.w * np.dot(op.w, x)
    y[op.K] += x[op.K]
    return y


def matvec(op: AsymptoticOperator, x: np.ndarray) -> np.ndarray:
    """(I - Q + P) x in O(K log K); Q x takes one 2-row forward and one
    inverse real FFT at half length."""
    x = np.asarray(x)
    if x.shape != (op.dim,) or np.iscomplexobj(x):
        raise ValueError("need a real vector of length 2K+1")
    K, L = op.K, op.fft_len
    n_o = K + K % 2
    z = op.signs * x
    alpha = np.dot(op.r_kernel[K : 3 * K + 1], z)
    buf = np.zeros((2, L))
    buf[0, : op.dim - n_o] = z[op.even]
    buf[1, :n_o] = z[op.odd]
    spec = np.fft.rfft(buf)
    spec *= op.spectra[:2]
    spec[0] += spec[1]
    conv = np.fft.irfft(spec[0], L)[:n_o]
    y = x + _project(op, x)
    y[op.odd] -= op.prefactor[op.odd] * (alpha - conv - x[K])
    y[K] -= x[K]
    return y


def matvec_transpose(op: AsymptoticOperator, x: np.ndarray) -> np.ndarray:
    """(I - Q + P)^T x in O(K log K); Q^T x takes one forward and one 2-row
    inverse real FFT at half length, and since Q is real this is also the
    adjoint."""
    x = np.asarray(x)
    if x.shape != (op.dim,) or np.iscomplexobj(x):
        raise ValueError("need a real vector of length 2K+1")
    K, L = op.K, op.fft_len
    v = op.prefactor[op.odd] * x[op.odd]
    s = np.sum(v)
    out = np.fft.irfft(np.fft.rfft(v, L) * op.spectra[1:], L)
    conv = np.empty(op.dim)
    conv[op.odd] = out[0, : v.size]
    conv[op.even] = out[1, : op.dim - v.size]
    y = x + _project(op, x) - op.signs * (op.r_kernel[K : 3 * K + 1] * s - conv)
    y[K] -= x[K] - s
    return y


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
