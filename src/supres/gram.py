"""Gram-matrix calculus for sum-of-squares certificates.

The central identity is 1 - |eta(theta)|^2 = psi*(theta) Q psi(theta) with
psi the vector of Fourier exponentials and Q = P/dim + X_corr, where P
projects onto the orthogonal complement of the atom columns and X_corr is
the minimum-norm correction solving the diagonal-sum constraint by CG. The
operators here are the diagonal summation T, its weighted right inverse
T~*, the compressed maps A = T(P . P) and A~* = P T~*(.) P, and the
weighted coefficient norm attached to T~*.

Matrices are plain square complex arrays. The certificate-side ones (the
projector, the correction and Q) are indexed by the frequencies -n..n;
diagonal sums do not depend on where a range starts, so T and T~* take and
give square arrays of any size. Each Gram task builds the projector once
and passes it on.
"""

from __future__ import annotations

import numpy as np
from scipy.fft import fft2, ifft2, next_fast_len
from scipy.sparse.linalg import cg

from . import trigpoly as tp
from .budget import check_budget
from .certificate import AtomicMeasure, Certificate, eta_coeffs


class SingularGram(ArithmeticError):
    """The atom Gram matrix U*U is numerically singular."""


class IllConditioned(ArithmeticError):
    """The normal equations are too ill conditioned to trust the correction."""


def op_T(H: np.ndarray) -> tp.TrigPoly:
    """Sum the diagonals: p_s = sum over k-l = s of H[k,l], order dim-1."""
    d = H.shape[0]
    coeffs = np.array([np.trace(H, offset=-s) for s in range(-(d - 1), d)])
    return tp.TrigPoly(d - 1, coeffs)


def op_Ttilde_star(p: tp.TrigPoly) -> np.ndarray:
    """Weighted Toeplitz lift with entries p_{k-l}/(dim - |k-l|), dim = order+1.

    Right inverse of op_T. Hermitian exactly when p has Hermitian
    coefficients.
    """
    d = p.n + 1
    idx = np.arange(d)
    s = idx[:, None] - idx[None, :]
    return p.coeffs[s + p.n] / (d - np.abs(s))


def norm_W(p: tp.TrigPoly) -> float:
    """Test oracle: the weighted coefficient norm sqrt(sum |p_k|^2 / (n+1-|k|)).

    TestXCorr::test_frobenius_bound_chain checks ||X_corr||_F against
    norm_W(p_err) / sqrt(lambda_min_AAtilde), and acceptance criterion 3
    bounds norm_W(p_err) by 1/n.
    """
    w = p.n + 1 - np.abs(tp.freqs(p))
    return float(np.sqrt(np.sum(np.abs(p.coeffs) ** 2 / w)))


def _psi_matrix(m: AtomicMeasure) -> np.ndarray:
    k = np.arange(-m.n, m.n + 1)
    return np.exp(2j * np.pi * np.outer(k, m.atoms))


def projector_PUperp(m: AtomicMeasure) -> np.ndarray:
    """Orthogonal projector onto the complement of span{psi(tau_j)}, on -n..n."""
    d = 2 * m.n + 1
    if m.size == 0:
        return np.eye(d, dtype=np.complex128)
    U = _psi_matrix(m)
    G = U.conj().T @ U
    if np.linalg.cond(G) > 1e12:
        raise SingularGram("atom Gram matrix U*U is numerically singular")
    P = np.eye(d) - U @ np.linalg.solve(G, U.conj().T)
    return (P + P.conj().T) / 2


def op_A(m: AtomicMeasure, X: np.ndarray) -> tp.TrigPoly:
    """Test oracle: A(X) = T(P X P) with P the atom-complement projector.

    The TestXCorr residuals are measured through it, TestOpA checks the
    FFT-built normal matrix against it column by column, and
    TestFiniteN::test_matches_toeplitz_composition composes it with A~*.
    """
    P = projector_PUperp(m)
    return op_T(P @ X @ P)


def op_Atilde_star(m: AtomicMeasure, p: tp.TrigPoly) -> np.ndarray:
    """Test oracle: A~*(p) = P T~*(p) P on the certificate-side range -n..n.

    TestOpA and TestFiniteN::test_matches_toeplitz_composition compose it
    with op_A. No symmetrization: the output is Hermitian exactly when p
    is, and the exact right-inverse property at |S|=0 needs the raw product.
    """
    if p.n != 2 * m.n:
        raise ValueError("p must have order 2n to match the -n..n Gram dimension")
    P = projector_PUperp(m)
    return P @ op_Ttilde_star(p) @ P


def quad_form_poly(H: np.ndarray) -> tp.TrigPoly:
    """Coefficients of theta -> psi*(theta) H psi(theta) for Hermitian H.

    The pairing psi* H psi produces sum_s T(H)_s e^{-2 pi i s theta}, so the
    standard-orientation coefficients are the conjugates of T(H); the
    resulting polynomial is real valued but in general not even.
    """
    return tp.TrigPoly(H.shape[0] - 1, np.conj(op_T(H).coeffs))


def _one_minus_eta_sq(c: Certificate) -> np.ndarray:
    """Coefficients of 1 - |eta|^2 on frequencies -2n..2n."""
    e = eta_coeffs(c).coeffs
    # |eta|^2 has coefficient s at convolution index 2n + s
    one_minus = -np.convolve(e, np.conj(e)[::-1])
    one_minus[2 * c.n] += 1.0
    return one_minus


def p_err(c: Certificate, P: np.ndarray) -> tp.TrigPoly:
    """Residual polynomial (1 - |eta|^2) - psi* P psi / dim, order 2n, for
    the measure's projector P."""
    q_perp = quad_form_poly(P).coeffs / (2 * c.n + 1)
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
    """Test oracle: smallest eigenvalue of A A~* off its 2|S|-dimensional
    analytic kernel, by a dense eigvalsh.

    TestXCorr::test_frobenius_bound_chain, TestLambdaMin and acceptance
    criterion 4 use it. Each
    atom contributes two kernel vectors: w_s e^{2 pi i s tau_j} and
    s w_s e^{2 pi i s tau_j}. Their lifts under T~* are psi psi* and the
    commutator-like (D psi) psi* - psi (D psi)*, both annihilated by the
    outer projectors, so the 2|S| smallest eigenvalues are discarded by
    count.
    """
    sym, _ = _normal_matrix(projector_PUperp(m))
    return float(np.linalg.eigvalsh(sym)[2 * m.size])


# CG on a matrix of condition ~1.5 on its range; the absolute floor sits above
# the rounding noise of p_err (~1e-17 for one atom, which gets X = 0 at once)
_CG_RTOL = 1e-12
_CG_ATOL = 1e-15
_CG_MAXITER = 200

# peak resident bytes per entry of the (4n+1)^2 normal matrix (62.4 measured
# with getrusage at n = 512..700)
_GRAM_BYTES_PER_ENTRY = 64


def x_corr(P: np.ndarray, perr: tp.TrigPoly) -> np.ndarray:
    """Minimum-norm correction X whose quadratic form psi* X psi equals perr,
    for the atom-complement projector P on -n..n.

    Since psi* X psi(theta) = sum_s T(X)_s e^{-2 pi i s theta}, the constraint
    in T-coefficients is A(X) = conj(perr). X = P Toep(w^{-1/2} y) P, with y
    from scipy's CG, started from zero, on w^{-1/2} S w^{-1/2} y = w^{-1/2}
    conj(perr). The matrix is PSD and its kernel, two directions per atom,
    is orthogonal to perr, which has double zeros at the atoms, so CG returns
    the minimum-norm solution. Raises IllConditioned if CG does not converge.
    """
    n = (P.shape[0] - 1) // 2
    if perr.n != 2 * n:
        raise ValueError("perr must have order 2n")
    sym, rw = _normal_matrix(P)
    y, info = cg(sym, rw * np.conj(perr.coeffs),
                 rtol=_CG_RTOL, atol=_CG_ATOL, maxiter=_CG_MAXITER)
    if info != 0:
        raise IllConditioned(f"conjugate gradients did not converge in {_CG_MAXITER} iterations")
    zeta = rw * y
    idx = np.arange(2 * n + 1)
    X = P @ zeta[(idx[:, None] - idx[None, :]) + 2 * n] @ P
    return (X + X.conj().T) / 2


def assemble_and_verify(c: Certificate) -> dict:
    """Build Q = P/dim + X_corr and check it reproduces 1 - |eta|^2.

    Returns the Gram matrix together with its minimum eigenvalue, the count
    of eigenvalues below 1e-8 times the spectral norm, sup_poly_err, the l1
    norm of the coefficients of psi* Q psi - (1 - |eta|^2), and residual_rel,
    |T(X) - conj(p_err)| / |p_err| (absolute if p_err is numerically zero).
    The defect polynomial is bounded by sup_poly_err at every theta, not only
    on a grid. The projector is built once and shared by every step. Raises
    BudgetExceeded, before allocating, past the memory budget.
    """
    n = c.n
    check_budget(_GRAM_BYTES_PER_ENTRY * (4 * n + 1) ** 2, f"Gram assembly at n={n}")
    d = 2 * n + 1
    P = projector_PUperp(c.measure)
    perr = p_err(c, P)
    X = x_corr(P, perr)
    Q = P / d + X
    Q = (Q + Q.conj().T) / 2

    defect = quad_form_poly(Q).coeffs - _one_minus_eta_sq(c)
    # X = P Toep(zeta) P is already projected, so A(X) = T(P X P) = T(X)
    resid = float(np.linalg.norm(op_T(X).coeffs - np.conj(perr.coeffs)))
    scale = float(np.linalg.norm(perr.coeffs))
    if scale > 1e-13:
        resid /= scale

    eigs = np.linalg.eigvalsh(Q)
    spec_norm = float(np.max(np.abs(eigs)))
    deficiency = int(np.sum(eigs < 1e-8 * spec_norm))
    return {
        "gram": Q,
        "min_eig": float(eigs[0]),
        "rank_deficiency": deficiency,
        "sup_poly_err": float(np.sum(np.abs(defect))),
        "residual_rel": resid,
    }
