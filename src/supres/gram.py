"""Gram-matrix calculus for sum-of-squares certificates.

The central identity is 1 - |eta(theta)|^2 = psi*(theta) Q psi(theta) with
psi the vector of Fourier exponentials and Q = P/dim + X_corr, where P
projects onto the orthogonal complement of the atom columns and X_corr is
the minimum-norm correction solving the diagonal-sum constraint by CG. The
operators here are the diagonal summation T, its weighted right inverse
T~*, the compressed maps A = T(P . P) and A~* = P T~*(.) P, and the
weighted coefficient norm attached to T~*.

Frequency ranges are explicit: certificate-side matrices live on -n..n,
the one-atom operator on 0..n, and T~*(p) defaults to the centered range
-(order//2).. for an order-(dim-1) polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.fft import fft2, ifft2, next_fast_len
from scipy.sparse.linalg import cg

from . import trigpoly as tp
from .certificate import AtomicMeasure, Certificate, eta_coeffs


class SingularGram(ArithmeticError):
    """The atom Gram matrix U*U is numerically singular."""


class IllConditioned(ArithmeticError):
    """The normal equations are too ill conditioned to trust the correction."""


@dataclass(frozen=True)
class GramMatrix:
    """Square matrix on a contiguous frequency range starting at freq_lo.

    Grams produced by the certificate pipeline (projector, correction,
    assembled Q) are Hermitian; the weighted Toeplitz lift of an arbitrary
    polynomial is not, so hermiticity is a queryable property rather than a
    constructor requirement.
    """

    dim: int
    entries: np.ndarray
    freq_lo: int

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=np.complex128)
        if e.shape != (self.dim, self.dim):
            raise ValueError("entries must be a dim x dim matrix")
        if not np.all(np.isfinite(e.view(np.float64))):
            raise ValueError("entries must be finite")
        object.__setattr__(self, "entries", e)

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        scale = max(1.0, float(np.max(np.abs(self.entries))))
        return bool(np.max(np.abs(self.entries - self.entries.conj().T)) <= tol * scale)

    @property
    def freqs(self) -> np.ndarray:
        return np.arange(self.freq_lo, self.freq_lo + self.dim)


def op_T(H: GramMatrix) -> tp.TrigPoly:
    """Sum the diagonals: p_s = sum over k-l = s of H[k,l], order dim-1."""
    d = H.dim
    coeffs = np.array([np.trace(H.entries, offset=-s) for s in range(-(d - 1), d)])
    return tp.TrigPoly(d - 1, coeffs)


def op_Ttilde_star(p: tp.TrigPoly, freq_lo: int | None = None) -> GramMatrix:
    """Weighted Toeplitz lift with entries p_{k-l}/(dim - |k-l|), dim = order+1.

    Right inverse of op_T. Hermitian exactly when p has Hermitian
    coefficients.
    """
    d = p.n + 1
    if freq_lo is None:
        freq_lo = -(p.n // 2)
    idx = np.arange(d)
    s = idx[:, None] - idx[None, :]
    entries = p.coeffs[s + p.n] / (d - np.abs(s))
    return GramMatrix(d, entries, freq_lo)


def norm_W(p: tp.TrigPoly) -> float:
    """Weighted coefficient norm sqrt(sum |p_k|^2 / (n+1-|k|))."""
    w = p.n + 1 - np.abs(tp.freqs(p))
    return float(np.sqrt(np.sum(np.abs(p.coeffs) ** 2 / w)))


def _psi_matrix(m: AtomicMeasure) -> np.ndarray:
    k = np.arange(-m.n, m.n + 1)
    return np.exp(2j * np.pi * np.outer(k, m.atoms))


def projector_PUperp(m: AtomicMeasure) -> GramMatrix:
    """Orthogonal projector onto the complement of span{psi(tau_j)}, on -n..n."""
    d = 2 * m.n + 1
    if m.size == 0:
        return GramMatrix(d, np.eye(d, dtype=np.complex128), freq_lo=-m.n)
    U = _psi_matrix(m)
    G = U.conj().T @ U
    if np.linalg.cond(G) > 1e12:
        raise SingularGram("atom Gram matrix U*U is numerically singular")
    P = np.eye(d) - U @ np.linalg.solve(G, U.conj().T)
    P = (P + P.conj().T) / 2
    return GramMatrix(d, P, freq_lo=-m.n)


def op_A(m: AtomicMeasure, X: GramMatrix) -> tp.TrigPoly:
    """A(X) = T(P X P) with P the atom-complement projector."""
    P = projector_PUperp(m).entries
    return op_T(GramMatrix(X.dim, P @ X.entries @ P, X.freq_lo))


def op_Atilde_star(m: AtomicMeasure, p: tp.TrigPoly) -> GramMatrix:
    """A~*(p) = P T~*(p) P on the certificate-side range -n..n.

    No symmetrization: the output is Hermitian exactly when p is, and the
    exact right-inverse property at |S|=0 needs the raw product.
    """
    if p.n != 2 * m.n:
        raise ValueError("p must have order 2n to match the -n..n Gram dimension")
    P = projector_PUperp(m).entries
    M = op_Ttilde_star(p).entries
    return GramMatrix(2 * m.n + 1, P @ M @ P, freq_lo=-m.n)


def quad_form_poly(H: GramMatrix) -> tp.TrigPoly:
    """Coefficients of theta -> psi*(theta) H psi(theta) for Hermitian H.

    The pairing psi* H psi produces sum_s T(H)_s e^{-2 pi i s theta}, so the
    standard-orientation coefficients are the conjugates of T(H); the
    resulting polynomial is real valued but in general not even.
    """
    return tp.TrigPoly(H.dim - 1, np.conj(op_T(H).coeffs))


def _one_minus_eta_sq(c: Certificate) -> np.ndarray:
    """Coefficients of 1 - |eta|^2 on frequencies -2n..2n."""
    e = eta_coeffs(c).coeffs
    # |eta|^2 has coefficient s at convolution index 2n + s
    one_minus = -np.convolve(e, np.conj(e)[::-1])
    one_minus[2 * c.n] += 1.0
    return one_minus


def p_err(c: Certificate) -> tp.TrigPoly:
    """Residual polynomial (1 - |eta|^2) - psi* P psi / dim, order 2n."""
    q_perp = quad_form_poly(projector_PUperp(c.measure)).coeffs / (2 * c.n + 1)
    return tp.TrigPoly(2 * c.n, _one_minus_eta_sq(c) - q_perp)


def _sigma_matrix(P: np.ndarray) -> np.ndarray:
    """Dense matrix S[s',s] = T(P E_s P)_{s'} of the unweighted part of A A~*.

    S[s',s] = sum_{k,u} P[k,u] P[u-s, k-s'], a 2-D correlation of P with its
    transpose, computed as a 2-D FFT convolution zero-padded past 2d-1 per
    axis so the circular product is the linear one. Hermitian positive
    semidefinite; the full operator A A~* acting on coefficients is
    S diag(1/w), similar to the Hermitian pencil w^{-1/2} S w^{-1/2}.
    """
    full = 2 * P.shape[0] - 1
    shape = (next_fast_len(full),) * 2
    S = ifft2(fft2(P, shape) * fft2(P.T[::-1, ::-1], shape))[:full, :full]
    S = (S + S.conj().T) / 2
    return S


def _weights(n: int) -> np.ndarray:
    d = 2 * n + 1
    s = np.arange(-(d - 1), d)
    return d - np.abs(s)


def _normal_matrix(P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weighted normal matrix w^{-1/2} S w^{-1/2} of A A~*, and w^{-1/2}."""
    rw = 1.0 / np.sqrt(_weights((P.shape[0] - 1) // 2))
    return rw[:, None] * _sigma_matrix(P) * rw[None, :], rw


def lambda_min_AAtilde(m: AtomicMeasure) -> float:
    """Smallest eigenvalue of A A~* off its 2|S|-dimensional analytic kernel.

    Each atom contributes two kernel vectors: w_s e^{2 pi i s tau_j} and
    s w_s e^{2 pi i s tau_j}. Their lifts under T~* are psi psi* and the
    commutator-like (D psi) psi* - psi (D psi)*, both annihilated by the
    outer projectors, so the 2|S| smallest eigenvalues are discarded by
    count.
    """
    sym, _ = _normal_matrix(projector_PUperp(m).entries)
    return float(np.linalg.eigvalsh(sym)[2 * m.size])


# CG on a matrix of condition ~1.5 on its range; the absolute floor sits above
# the rounding noise of p_err (~1e-17 for one atom, which gets X = 0 at once)
_CG_RTOL = 1e-12
_CG_ATOL = 1e-15
_CG_MAXITER = 200

# 1 GB, the cap of qk_operator.qk_dense, at 64 peak resident bytes per entry of
# the (4n+1)^2 normal matrix (62.4 measured with getrusage at n = 512..700)
_GRAM_CAP_BYTES = 1e9
_GRAM_BYTES_PER_ENTRY = 64


def x_corr(m: AtomicMeasure, perr: tp.TrigPoly) -> GramMatrix:
    """Minimum-norm correction X whose quadratic form psi* X psi equals perr.

    Since psi* X psi(theta) = sum_s T(X)_s e^{-2 pi i s theta}, the constraint
    in T-coefficients is A(X) = conj(perr). X = P Toep(w^{-1/2} y) P, with y
    from scipy's CG, started from zero, on w^{-1/2} S w^{-1/2} y = w^{-1/2}
    conj(perr). The matrix is PSD and its kernel, two directions per atom,
    is orthogonal to perr, which has double zeros at the atoms, so CG returns
    the minimum-norm solution. Raises IllConditioned if CG does not converge.
    """
    n = m.n
    if perr.n != 2 * n:
        raise ValueError("perr must have order 2n")
    P = projector_PUperp(m).entries
    sym, rw = _normal_matrix(P)
    y, info = cg(sym, rw * np.conj(perr.coeffs),
                 rtol=_CG_RTOL, atol=_CG_ATOL, maxiter=_CG_MAXITER)
    if info != 0:
        raise IllConditioned(f"conjugate gradients did not converge in {_CG_MAXITER} iterations")
    zeta = rw * y
    idx = np.arange(2 * n + 1)
    X = P @ zeta[(idx[:, None] - idx[None, :]) + 2 * n] @ P
    return GramMatrix(2 * n + 1, (X + X.conj().T) / 2, freq_lo=-n)


def assemble_and_verify(c: Certificate) -> dict:
    """Build Q = P/dim + X_corr and check it reproduces 1 - |eta|^2.

    Returns the Gram matrix together with its minimum eigenvalue, the count
    of eigenvalues below 1e-8 times the spectral norm, sup_poly_err, the l1
    norm of the coefficients of psi* Q psi - (1 - |eta|^2), and residual_rel,
    |T(X) - conj(p_err)| / |p_err| (absolute if p_err is numerically zero).
    The defect polynomial is bounded by sup_poly_err at every theta, not only
    on a grid. Raises ValueError, before allocating, past 1 GB of memory.
    """
    m = c.measure
    n = c.n
    need = _GRAM_BYTES_PER_ENTRY * (4 * n + 1) ** 2
    if need > _GRAM_CAP_BYTES:
        raise ValueError(f"Gram assembly at n={n} needs {need / 1e9:.3g} GB, cap 1 GB")
    d = 2 * n + 1
    perr = p_err(c)
    X = x_corr(m, perr)
    P = projector_PUperp(m).entries
    Q = P / d + X.entries
    Q = (Q + Q.conj().T) / 2
    gram = GramMatrix(d, Q, freq_lo=-n)

    defect = quad_form_poly(gram).coeffs - _one_minus_eta_sq(c)
    # X = P Toep(zeta) P is already projected, so A(X) = T(P X P) = T(X)
    resid = float(np.linalg.norm(op_T(X).coeffs - np.conj(perr.coeffs)))
    scale = float(np.linalg.norm(perr.coeffs))
    if scale > 1e-13:
        resid /= scale

    eigs = np.linalg.eigvalsh(Q)
    spec_norm = float(np.max(np.abs(eigs)))
    deficiency = int(np.sum(eigs < 1e-8 * spec_norm))
    return {
        "gram": gram,
        "min_eig": float(eigs[0]),
        "rank_deficiency": deficiency,
        "sup_poly_err": float(np.sum(np.abs(defect))),
        "residual_rel": resid,
    }


def kernel_Kp(p: tp.TrigPoly, tau: float, theta: float) -> complex:
    """Evaluate K_p(tau, theta) = sum over k,l of p_{k-l}/(d-|k-l|) e^{2 pi i k tau} e^{-2 pi i l theta}.

    Frequencies run over the centered range -(order//2).. of length
    order+1. Satisfies K_q(theta, tau) = conj(K_p(tau, theta)) for
    q_s = conj(p_{-s}); in particular K_p is conjugate-symmetric in its
    arguments when p has Hermitian coefficients.
    """
    M = op_Ttilde_star(p)
    k = M.freqs
    left = np.exp(2j * np.pi * k * tau)
    right = np.exp(-2j * np.pi * k * theta)
    return complex(left @ M.entries @ right)
