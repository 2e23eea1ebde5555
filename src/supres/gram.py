"""Gram-matrix calculus for sum-of-squares certificates.

The central identity is 1 - |eta(theta)|^2 = psi*(theta) Q psi(theta) with
psi the vector of Fourier exponentials and Q = P (I/dim + Toep(zeta)) P.
Here P = I - V V* projects onto the orthogonal complement of the atom
columns, and zeta, 4n+1 Toeplitz coefficients, is the minimum-norm solution
of the diagonal-sum constraint by CG (`_cg`, scipy's loop on numpy alone:
the module loads no scipy, whose import would cost a gram run more than
its solve). CG applies z -> T(P Toep(z) P),
with T the sum along diagonals, matrix-free: with the spectra of V's |S|
columns taken once per task, and every iterate a Hermitian row, every
sequence of a step is Hermitian and every spectrum real, so a step is
2|S| + 2 real FFTs, half the cost of a complex one, in work arrays reused
across steps, O(|S| n log n) (Toeplitz products and diagonal sums by FFT
as in R. M. Gray, Toeplitz and Circulant Matrices: A Review, 2006). V,
eta, p_err, zeta and every CG iterate travel as the halves k >= 0 of
their Hermitian rows, and CG runs in real arithmetic on them; p_err takes
eta's spectrum as the real spectra of the halves of Re eta and Im eta
(certificate.eta_coeffs), so every transform here is a real FFT, numpy's,
at the one length trigpoly.fast_len(4n+1) (`_factor_len`), with
trigpoly.to_spectrum's sign convention; no half is unfolded to its full
row.
The identity is checked in coefficient form. Q is proved PSD from the size
of the correction, Q >= (1/dim - ||Toep(zeta)||_F) P, the norm one weighted
sum over zeta's half in O(n); the symbol of Toep(zeta), sampled by eight
real FFTs at that same length (trigpoly.min_lower_bound), may raise that
floor. No dense matrix is formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import trigpoly as tp
from .budget import check_budget
from .certificate import AtomicMeasure, Certificate, eta_coeffs


class SingularGram(ArithmeticError):
    """The atom Gram matrix U*U is numerically singular."""


class IllConditioned(ArithmeticError):
    """The normal equations are too ill conditioned to trust the correction."""


def _factor_len(n: int) -> int:
    """4n+1 rounded up by trigpoly.fast_len: the length of every Gram FFT."""
    return tp.fast_len(4 * n + 1)


@dataclass(frozen=True, eq=False)
class _Factor:
    """P = I - V V* on -n..n through its d x |S| factor V, kept by its
    (n+1) x |S| half k = 0..n, with the spectra of V's columns (one real
    row per atom, trigpoly.to_spectrum) at _factor_len(n) >= 4n+1.

    V's columns are Hermitian, v(-k) = conj v(k): so are U's, the
    exponentials psi(tau_j), and G = U*U and its Cholesky factor are real.
    The half therefore holds all of V, and the spectra are real: one
    inverse real FFT of the half gives them, half the cost of a complex
    FFT.

    The irfft of a half row at this length places coefficient k at index
    k mod length, as a circular convolution reads it. Every
    product below is a Toeplitz product, whose outputs -n..n come from lags
    -3n..3n, or a correlation of two vectors on -n..n, with lags -2n..2n; at
    length 4n+1 or more the circular wrap reaches none of the kept outputs
    (the length note of qk_operator.AsymptoticOperator: a Toeplitz block
    with n_out rows and n_in columns needs n_in + n_out - 1 slots).
    """

    V: np.ndarray
    spectra: np.ndarray


def _projector_factor(m: AtomicMeasure) -> _Factor:
    """V = U L^{-*} for the atom columns U = [psi(tau_j)] and the Cholesky
    factor G = U*U = L L*, so that V V* = U G^{-1} U*: both kept by their
    halves k = 0..n, G the sum of Hermitian terms over -n..n, twice the
    real part over k >= 0 less k = 0."""
    # k tau reduced mod 1 before the 2 pi, as eta_coeffs reduces its phases:
    # p_err's double zeros at the atoms rest on the two agreeing
    U = np.exp(2j * np.pi * (np.outer(np.arange(m.n + 1), m.atoms) % 1.0))
    G = 2 * (U.conj().T @ U).real - np.outer(U[0].real, U[0].real)
    if np.linalg.cond(G) > 1e12:
        raise SingularGram("atom Gram matrix U*U is numerically singular")
    V = np.linalg.solve(np.linalg.cholesky(G), U.T).T
    return _Factor(V, tp.to_spectrum(V.T, _factor_len(m.n)))


def _step_work(f: _Factor) -> tuple[np.ndarray, np.ndarray]:
    """_t_ptp's work arrays for f, which every step overwrites: a real
    |S| x L array and a complex |S| x (L/2 + 1) one, the half spectra of its
    rows."""
    size, length = f.spectra.shape
    return np.empty((size, length)), np.empty((size, length // 2 + 1), dtype=np.complex128)


def _t_ptp(f: _Factor, z: np.ndarray, work: tuple) -> np.ndarray:
    """The half s = 0..2n of T(P Toep(z) P) for the Hermitian row on
    -2n..2n with half z, by 2|S| + 2 real FFTs, each half the cost of a
    complex one, in the arrays of work = _step_work(f), which x_corr
    passes to every CG step.

    Toep(z) is Hermitian and its spectrum real; the spectrum reads
    Re z_0 only, while w z keeps Im z_0, so a z with Im z_0 = 0 gives a
    result with Im 0 there (x_corr). Expanding P = I - V V* gives w z - sum_j
    [corr(v_j, Toep(z) v_j - (V C)_j) + corr(Toep(z) v_j, v_j)] with
    C = V* Toep(z) V, real symmetric, and w the diagonal lengths. Every
    sequence here is Hermitian, so every spectrum is real, and a Hermitian
    sequence is kept by its half k >= 0: z's spectrum is
    trigpoly.to_spectrum of its half, the rfft of a real spectrum is L
    times the conjugate of the half (trigpoly.from_spectrum), and the
    irfft of that is the spectrum again. One rfft per atom gives the rows
    Toep(z) v_j, from which C comes and (V C)_j/2 is taken off; one irfft
    per atom gives their spectra F_j - (C s)_j/2, with s_j V's cached
    spectra; and the result's spectrum is sum_j s_j (2 F_j - (C s)_j),
    whose coefficients trigpoly.from_spectrum reads off. tests/oracles.t_ptp
    is the general step, for any complex z, in 4|S| + 2 complex FFTs.
    """
    rows, half = work
    V, spectra = f.V, f.spectra
    n = V.shape[0] - 1
    length = spectra.shape[1]
    np.multiply(spectra, tp.to_spectrum(z, length), out=rows)
    # half's rows: L conj(Toep(z) v_j) at k = 0..L/2
    np.fft.rfft(rows, out=half)
    # L C, a sum over k = -n..n of Hermitian terms: twice the real part over
    # k >= 0 less k = 0
    LC = 2 * (half[:, : n + 1] @ V).real - np.outer(half[:, 0].real, V[0].real)
    # take L conj((V C)_j)/2 off, so that the irfft gives F_j - (C s)_j/2
    corr = V @ (LC / 2)
    half[:, : n + 1] -= np.conjugate(corr, out=corr).T
    half[:, n + 1 :] = 0
    np.fft.irfft(half, length, out=rows)
    return _weights(n) * z - tp.from_spectrum(2 * np.einsum("jl,jl->l", spectra, rows), 2 * n)


def p_err(c: Certificate, f: _Factor) -> np.ndarray:
    """The half s = 0..2n of the Hermitian coefficients on -2n..2n of the
    residual (1 - |eta|^2) - psi* P psi / dim, for the projector factor f
    of the measure; its s = 0 entry is exactly real (trigpoly.from_spectrum).

    With T(P) = dim delta_0 - sum_j corr(v_j, v_j) the constants cancel and
    p_err = conj(sum_j corr(v_j, v_j)) / dim - corr(eta, eta), whose
    spectrum on f's grid is real; conjugating a correlation reverses its
    spectrum. eta's spectrum is re + i im, the real spectra
    (trigpoly.to_spectrum) of the halves of Re eta and Im eta that
    eta_coeffs returns, so |F(eta)|^2 = re^2 + im^2 costs two inverse real
    FFTs.
    """
    n = c.n
    re, im = tp.to_spectrum(eta_coeffs(c), f.spectra.shape[1])
    vv = np.sum(f.spectra**2, axis=0)
    return tp.from_spectrum(np.roll(vv[::-1], 1) / (2 * n + 1) - re * re - im * im, 2 * n)


def _weights(n: int) -> np.ndarray:
    """The diagonal lengths d - s of the d x d Toeplitz matrices, d = 2n+1,
    at s = 0..2n, the half of the even row d - |s|."""
    d = 2 * n + 1
    return d - np.arange(d)


def _toep_norm_upper(zeta: np.ndarray) -> float:
    """An upper bound on ||Toep(zeta)||_F, the d x d Hermitian Toeplitz
    matrix of the row on -2n..2n with half zeta, d = 2n+1, for the floats
    of zeta as given: ||Toep(zeta)||_F^2 = sum_s (d - |s|)|zeta_s|^2, one
    weighted sum over the half, each s >= 1 counted twice.

    Its 2n+1 non-negative terms take three roundings each (two in
    |zeta_s|^2, one in the product with the exact integer weight) and 2n
    more in the sum, so the float sum is at least (1 - U)^(2n+3) times the
    exact one, and its square root times 1 + gamma_{2n+3} bounds the norm;
    three more roundings cover the square root, the product and 1 + gamma's
    own. Squares that underflow add below d 2^-536 to the norm, inside the
    U/d that assemble_and_verify's floor keeps spare.
    """
    n = (len(zeta) - 1) // 2
    weights = _weights(n) * np.where(np.arange(2 * n + 1) > 0, 2, 1)
    return float(np.sqrt(weights @ (zeta.real**2 + zeta.imag**2))) * (1 + tp.gamma(2 * n + 6))


# CG on a matrix of condition ~1.5 on its range; the absolute floor sits above
# the rounding noise of p_err (~1e-17 for one atom, which gets zeta = 0 at once)
_CG_RTOL = 1e-12
_CG_ATOL = 1e-15
_CG_MAXITER = 200

# peak resident bytes per entry of |S| + _SYMBOL_ROWS rows of length L, the
# factor's FFT length >= 4n+1, the Gram assembly's one budget: per atom V's
# half (4), its real spectra (8) and the step's real and half-complex work
# rows (8 each), and for any |S| rows of CG's real vectors, each the halves
# of a row on -2n..2n, and the symbol floor's phases. Measured with getrusage
# in fresh processes (peak minus the RSS before the assembly), one thread,
# at |S| = 4 and 16: 36 B/L per atom and 160 fixed at n = 2^14, 33 and 133
# at n = 2^16
_SYMBOL_BYTES_PER_ENTRY = 72
_SYMBOL_ROWS = 6


def _cg(matvec, b: np.ndarray) -> tuple[np.ndarray, int]:
    """Conjugate gradients for A u = b from u = 0, with A real symmetric PSD
    applied by matvec, and the number of steps taken: the loop of
    scipy.sparse.linalg.cg (scipy 1.17) without a preconditioner, operation
    for operation, so the two return the same floats. It stops when
    |r| < max(_CG_ATOL, _CG_RTOL |b|) at the top of a step, so b = 0 takes
    no step, and raises IllConditioned after _CG_MAXITER steps without."""
    tol = max(_CG_ATOL, _CG_RTOL * float(np.linalg.norm(b)))
    u, r = np.zeros_like(b), b.copy()
    for step in range(_CG_MAXITER):
        if np.linalg.norm(r) < tol:
            return u, step
        rho = np.dot(r, r)
        p = r.copy() if step == 0 else p * (rho / rho_prev) + r
        q = matvec(p)
        alpha = rho / np.dot(p, q)
        u += alpha * p
        r -= alpha * q
        rho_prev = rho
    raise IllConditioned(f"conjugate gradients did not converge in {_CG_MAXITER} iterations")


def x_corr(f: _Factor, perr: np.ndarray) -> tuple[np.ndarray, int]:
    """The half s = 0..2n of the Hermitian Toeplitz coefficients zeta of the
    minimum-norm correction X = P Toep(zeta) P whose quadratic form
    psi* X psi has the coefficients with half perr, and the CG iteration
    count; f is the projector factor.

    Since psi* X psi(theta) = sum_s T(X)_s e^{-2 pi i s theta}, the constraint
    in T-coefficients is A(X) = conj(perr), the row reversed, whose half is
    the conjugate of perr's. zeta = w^{-1/2} y, with y from CG (_cg),
    started from zero, on w^{-1/2} S w^{-1/2} y = w^{-1/2} conj(perr),
    where S z = T(P Toep(z) P) is applied by FFT (_t_ptp). S is PSD and
    its kernel, two directions per atom, is orthogonal to perr, which has
    double zeros at the atoms, so CG returns the minimum-norm solution.
    S and w map Hermitian rows to Hermitian rows, and the inner product of
    two Hermitian rows is real, a_0 b_0 + 2 Re sum_{s>=1} conj(a_s) b_s,
    so CG runs in real arithmetic on the halves scaled by
    D = diag(1, sqrt 2, ..., sqrt 2) and viewed as 2(2n+1) floats: their
    Euclidean norm is the full row's, and _CG_RTOL and _CG_ATOL keep their
    meaning. The Im y_0 slot starts at 0, perr_0 being exactly real, and
    the operator maps 0 there to 0, so Im zeta_0 is exactly 0 and
    Toep(zeta) exactly Hermitian. Raises IllConditioned if CG does not
    converge.
    """
    n = f.V.shape[0] - 1
    if perr.shape != (2 * n + 1,):
        raise ValueError("perr must be the half of a row of order 2n")
    rw = 1.0 / np.sqrt(_weights(n))
    # CG's unknown is u = D w^{1/2} zeta: zeta = into u, and the step's
    # output is scaled by out
    D = np.where(np.arange(2 * n + 1) > 0, np.sqrt(2), 1.0)
    into, out = rw / D, rw * D
    work = _step_work(f)

    def matvec(u):
        return (out * _t_ptp(f, into * u.view(np.complex128), work)).view(np.float64)

    u, iters = _cg(matvec, (out * np.conj(perr)).view(np.float64))
    return into * u.view(np.complex128), iters


# verdict threshold of the gram report: psi* Q psi reproduces 1 - |eta|^2
# when the l1 norm of the defect's coefficients is at most SUP_POLY_ERR_TOL
SUP_POLY_ERR_TOL = 1e-8


def assemble_and_verify(c: Certificate) -> dict:
    """The gram report: solve for zeta, check that Q = P (I/dim + Toep(zeta)) P
    reproduces 1 - |eta|^2, and prove Q positive semidefinite.

    The defect is taken in coefficient form from one fresh T(P Toep(zeta) P)
    with the final zeta, by the Hermitian step: psi* Q psi - (1 - |eta|^2)
    has coefficients conj(T(P Toep(zeta) P)) - p_err, a Hermitian row kept
    by its half. sup_poly_err is the full row's l1 norm (trigpoly.row_norms),
    which bounds the defect at every theta, not only on a grid; residual_rel
    is its l2 norm over |p_err| (absolute if p_err is numerically zero).

    PSD is proved from the size of the correction. For x in the range of P,
    x* Q x = |x|^2/dim + x* Toep(zeta) x >= (1/dim - ||Toep(zeta)||_F)|x|^2,
    and ||Toep(zeta)||_F^2 = sum_s (dim - |s|)|zeta_s|^2 over -2n..2n, one
    weighted sum over zeta's half. Toep(zeta) is Hermitian Toeplitz, so its
    smallest eigenvalue is also at least the minimum of its symbol zeta^ (U.
    Grenander and G. Szego, Toeplitz Forms and Their Applications, 1958),
    bounded below by trigpoly.min_lower_bound; lower is the larger of the
    two bounds, and Q >= psd_floor P with psd_floor = 1/dim + lower, rounded
    down. psd_floor > 0 makes M = I/dim + Toep(zeta) positive definite, so
    x* Q x = (Px)* M (Px) vanishes only where Px = 0: the kernel of Q is
    exactly span psi(tau_j), and rank Q = dim - |S|, the abstract's rank
    statement. Then psd_rigorous is true, rank_deficiency = |S| and
    min_eig = 0.0 (Q psi(tau_j) = 0 exactly); otherwise nothing is proved,
    and both are None.

    Returns atom_count, n, min_eig, psd_floor, psd_rigorous,
    rank_deficiency, sup_poly_err, residual_rel, cg_iters and the verdicts:
    psd_ok (psd_rigorous), defect_ok (sup_poly_err <= SUP_POLY_ERR_TOL) and
    verified (both). Raises BudgetExceeded, before allocating, past the
    memory budget of the O(|S| n) arrays.
    """
    n = c.n
    d = 2 * n + 1
    size = c.measure.size
    check_budget(_SYMBOL_BYTES_PER_ENTRY * (size + _SYMBOL_ROWS) * _factor_len(n),
                 f"Gram assembly at n={n}")
    f = _projector_factor(c.measure)
    perr = p_err(c, f)
    zeta, iters = x_corr(f, perr)

    # the halves of both rows, measured by the full rows' norms
    sup_err, resid = tp.row_norms(np.conj(_t_ptp(f, zeta, _step_work(f))) - perr)
    scale = tp.row_norms(perr)[1]
    if scale > 1e-13:
        resid /= scale

    lower = max(tp.min_lower_bound(zeta), -_toep_norm_upper(zeta))
    # 1/d and the sum are rounded once each: take that much off again
    floor = 1.0 / d + lower - 4 * tp.U * (1.0 / d + abs(lower))
    psd_ok = floor > 0
    min_eig, rank_def = (0.0, size) if psd_ok else (None, None)
    defect_ok = sup_err <= SUP_POLY_ERR_TOL
    return {
        "atom_count": size,
        "n": n,
        "min_eig": min_eig,
        "psd_floor": floor,
        "psd_rigorous": psd_ok,
        "rank_deficiency": rank_def,
        "sup_poly_err": sup_err,
        "residual_rel": resid,
        "cg_iters": iters,
        "psd_ok": psd_ok,
        "defect_ok": defect_ok,
        "verified": psd_ok and defect_ok,
    }
