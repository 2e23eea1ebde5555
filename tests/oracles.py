"""Independent references that the fast paths of supres are checked against.

Each function here is a direct or dense computation of something the package
computes by FFT, by a structured operator or in closed form: the direct sum
of a trigonometric polynomial (in double and in extended precision), the
certificate eta and eta' summed over the atoms' kernels pointwise, the
dense Gram-side maps T, T~*, A = T(P . P), A~* = P T~*(.) P with their
projector and weighted norm, the general FFT step of A(Toep(z)) for any
complex z, the dense matrix of A A~*, and the one-atom
limit entries of qk_operator case by case and at finite n. No code of the
package calls them; tests import them from here. Of the package they use
only the polynomial type, the Dirichlet and E kernels and two private
helpers of gram: the projector factor V and the diagonal weights.

Two oracles stay in the package because the benchmark under perfbench/
reaches them: spectrum.dense_extremes (its worker checks spectrum-sweep
reports against it) and bound_audit.f_inner_quad (its tracer wraps
bound_audit.quad).
"""

from __future__ import annotations

import numpy as np
from scipy.fft import fft2, ifft2, next_fast_len

from supres import specfun as sf
from supres import trigpoly as tp
from supres.certificate import AtomicMeasure, Certificate
from supres.gram import _projector_factor, _weights


def freqs(p: tp.TrigPoly) -> np.ndarray:
    return np.arange(-p.n, p.n + 1)


def eval_direct(p: tp.TrigPoly, theta):
    """Evaluate p at theta (scalar or array). Periodic with period 1.

    The direct sum at arbitrary points, against which
    TestEvalGrid::test_matches_pointwise checks `eval_grid`.
    """
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


def eval_grid_longdouble(p: tp.TrigPoly, G: int) -> np.ndarray:
    """Values p(g/G), g = 0..G-1, as np.clongdouble, by the direct sum in
    extended precision: the reference for the rounding error of `eval_grid`.

    The phase index k g mod G is formed exactly in integers and picks one of
    the G roots of unity, so the phases carry only the long-double rounding
    of 2 pi j/G and of cos and sin, not the double rounding of g/G that
    `eval_direct` would add.
    """
    angle = 8 * np.arctan(np.longdouble(1)) * np.arange(G, dtype=np.longdouble) / G
    roots = np.cos(angle) + 1j * np.sin(angle)
    return roots[np.outer(np.arange(G), freqs(p)) % G] @ p.coeffs.astype(np.clongdouble)


def eval_eta(c: Certificate, theta):
    """(eta, eta') at theta, two complex arrays of theta's shape, as the sum
    of a_j D + b_j D' and a_j D' + b_j D'' over the atoms, O(|S|) per point:
    the pointwise reference for `eta_coeffs` and the atom checks of
    `verify_bounded`."""
    th = np.asarray(theta, dtype=float)
    eta = np.zeros(th.shape, dtype=np.complex128)
    deta = np.zeros(th.shape, dtype=np.complex128)
    for tau, aj, bj in zip(c.measure.atoms, c.a, c.b):
        D0, D1, D2 = tp.dirichlet_deriv(c.n, th - tau)
        eta += aj * D0
        eta += bj * D1
        deta += aj * D1
        deta += bj * D2
    return eta, deta


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
    """The weighted coefficient norm sqrt(sum |p_k|^2 / (n+1-|k|)).

    TestXCorr::test_frobenius_bound_chain checks ||X_corr||_F against
    norm_W(p_err) / sqrt(lambda_min_AAtilde), and acceptance criterion 3
    bounds norm_W(p_err) by 1/n.
    """
    w = p.n + 1 - np.abs(freqs(p))
    return float(np.sqrt(np.sum(np.abs(p.coeffs) ** 2 / w)))


def projector_PUperp(m: AtomicMeasure) -> np.ndarray:
    """Orthogonal projector onto the complement of span{psi(tau_j)}, on -n..n.

    The dense I - V V* of the factor the Gram task uses; op_A,
    op_Atilde_star and lambda_min_AAtilde form it.
    """
    V = _projector_factor(m).V
    P = np.eye(V.shape[0]) - V @ V.conj().T
    return (P + P.conj().T) / 2


def op_A(m: AtomicMeasure, X: np.ndarray) -> tp.TrigPoly:
    """A(X) = T(P X P) with P the atom-complement projector.

    The TestXCorr residuals are measured through it, TestFFTOperator checks
    the matrix-free T(P Toep(z) P) against it, TestOpA checks the 2-D FFT
    matrix of lambda_min_AAtilde against it column by column, and
    TestFiniteN::test_matches_toeplitz_composition composes it with A~*.
    """
    P = projector_PUperp(m)
    return op_T(P @ X @ P)


def op_Atilde_star(m: AtomicMeasure, p: tp.TrigPoly) -> np.ndarray:
    """A~*(p) = P T~*(p) P on the certificate-side range -n..n.

    TestOpA and TestFiniteN::test_matches_toeplitz_composition compose it
    with op_A. No symmetrization: the output is Hermitian exactly when p
    is, and the exact right-inverse property at |S|=0 needs the raw product.
    """
    if p.n != 2 * m.n:
        raise ValueError("p must have order 2n to match the -n..n Gram dimension")
    P = projector_PUperp(m)
    return P @ op_Ttilde_star(p) @ P


def t_ptp(f, z: np.ndarray) -> np.ndarray:
    """T(P Toep(z) P) for any complex coefficients z on -2n..2n, by FFT:
    the general step gram._t_ptp specialises to Hermitian z.

    Expanding P = I - V V* gives w z - sum_j [corr(v_j, Toep(z)* v_j - (V C*)_j)
    + corr(Toep(z) v_j, v_j)] with C = V* Toep(z) V and w the diagonal
    lengths. Toep(z)* is Toep of conj(z_{-s}), whose spectrum at this
    layout is the conjugate of z's. TestFFTOperator checks it against op_A
    on complex z, and TestXCorr runs x_corr on it in place of the package
    step.
    """
    V, spectra = f.V, f.spectra
    n = (V.shape[0] - 1) // 2
    size, length = spectra.shape
    zf = np.fft.fft(tp.to_grid(z, length))
    both = tp.from_grid(np.fft.ifft(np.concatenate([zf * spectra, np.conj(zf) * spectra])), n)
    tv, tsv = both[:size], both[size:]
    C = V.T.conj() @ tv.T
    rows = np.fft.fft(tp.to_grid(np.concatenate([tsv - C.conj() @ V.T, tv]), length))
    cross = spectra * np.conj(rows[:size]) + rows[size:] * np.conj(spectra)
    return _weights(n) * z - tp.from_grid(np.fft.ifft(np.sum(cross, axis=0)), 2 * n)


def quad_form_poly(H: np.ndarray) -> tp.TrigPoly:
    """Coefficients of theta -> psi*(theta) H psi(theta) for Hermitian H.

    The pairing psi* H psi produces sum_s T(H)_s e^{-2 pi i s theta}, so the
    standard-orientation coefficients are the conjugates of T(H); the
    resulting polynomial is real valued but in general not even.
    TestAssemble checks the dense Q's pointwise defect against the
    coefficient-form sup_poly_err through it.
    """
    return tp.TrigPoly(H.shape[0] - 1, np.conj(op_T(H).coeffs))


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


def lambda_min_AAtilde(m: AtomicMeasure) -> float:
    """Smallest eigenvalue of A A~* off its 2|S|-dimensional analytic
    kernel, by a dense eigvalsh of w^{-1/2} S w^{-1/2}.

    TestXCorr::test_frobenius_bound_chain, TestLambdaMin and acceptance
    criterion 4 use it. Each
    atom contributes two kernel vectors: w_s e^{2 pi i s tau_j} and
    s w_s e^{2 pi i s tau_j}. Their lifts under T~* are psi psi* and the
    commutator-like (D psi) psi* - psi (D psi)*, both annihilated by the
    outer projectors, so the 2|S| smallest eigenvalues are discarded by
    count.
    """
    rw = 1.0 / np.sqrt(_weights(m.n))
    sym = rw[:, None] * _sigma_matrix(projector_PUperp(m)) * rw[None, :]
    return float(np.linalg.eigvalsh(sym)[2 * m.size])


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
    """Closed-form limit entry at (l1, l2), assembled case by case;
    TestDense::test_matches_entry_route checks qk_dense against it.

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


def qk_finite_n(K: int, n: int) -> np.ndarray:
    """The finite-n matrix, the one-atom operator applied to translated
    Dirichlet kernels, sampled at l1/(2n+1);
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
