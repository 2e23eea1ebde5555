"""Gram-matrix calculus for sum-of-squares certificates.

The central identity is 1 - |eta(theta)|^2 = psi*(theta) Q psi(theta) with
psi the vector of Fourier exponentials and Q = P (I/dim + Toep(zeta)) P.
Here P = I - V V* projects onto the orthogonal complement of the atom
columns, and zeta, 4n+1 Toeplitz coefficients, is the minimum-norm solution
of the diagonal-sum constraint by CG. CG applies z -> T(P Toep(z) P),
with T the sum along diagonals, matrix-free: with the spectra of V's |S|
columns taken once per task, and every iterate Hermitian-symmetric, each
step is 2|S| + 2 FFTs in work arrays reused across steps, O(|S| n log n)
(Toeplitz products and diagonal sums by FFT as in R. M. Gray, Toeplitz
and Circulant Matrices: A Review, 2006). They are numpy's, at the one
length trigpoly.fast_len(4n+1) (`_factor_len`). The identity is
checked in coefficient form. Q is proved PSD from the symbol of
Toep(zeta), a trigonometric polynomial sampled by one FFT
(trigpoly.min_lower_bound), in O(n log n); only where that floor is not
positive is the dense Q formed, by a rank-2|S| update of Toep(zeta), for
its eigenvalues.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular, toeplitz
from scipy.sparse.linalg import LinearOperator, cg

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


@dataclass(frozen=True)
class _Factor:
    """P = I - V V* on -n..n through its d x |S| factor V, with the numpy
    FFT spectra of V's columns (one row per atom) at _factor_len(n) >= 4n+1.

    Coefficients sit at index k mod length (`trigpoly.to_grid`). Every
    product below is a Toeplitz product, whose outputs -n..n come from lags
    -3n..3n, or a correlation of two vectors on -n..n, with lags -2n..2n; at
    length 4n+1 or more the circular wrap reaches none of the kept outputs
    (the 4K+1 note of qk_operator.AsymptoticOperator).
    """

    V: np.ndarray
    spectra: np.ndarray


def _projector_factor(m: AtomicMeasure) -> _Factor:
    """V = U L^{-*} for the atom columns U = [psi(tau_j)] and the Cholesky
    factor G = U*U = L L*, so that V V* = U G^{-1} U*."""
    k = np.arange(-m.n, m.n + 1)
    V = np.exp(2j * np.pi * np.outer(k, m.atoms))
    if m.size:
        G = V.conj().T @ V
        if np.linalg.cond(G) > 1e12:
            raise SingularGram("atom Gram matrix U*U is numerically singular")
        V = solve_triangular(np.linalg.cholesky(G), V.conj().T, lower=True).conj().T
    return _Factor(V, np.fft.fft(tp.to_grid(V.T, _factor_len(m.n))))


def _step_work(f: _Factor) -> tuple[np.ndarray, np.ndarray]:
    """_t_ptp's work arrays for f: V's conjugate, and two |S| x length
    arrays that every step overwrites."""
    return f.V.conj(), np.empty((2,) + f.spectra.shape, dtype=np.complex128)


def _t_ptp(f: _Factor, z: np.ndarray, work: tuple) -> np.ndarray:
    """T(P Toep(z) P) for Hermitian coefficients z on -2n..2n, by 2|S| + 2
    FFTs in the arrays of work = _step_work(f), which x_corr passes to
    every CG step.

    z is symmetrised first, z <- (z + conj(z_{-s}))/2, which leaves CG's
    iterates unchanged up to rounding (x_corr). Then Toep(z) is Hermitian
    and its spectrum zf real. Expanding P = I - V V* gives w z - sum_j
    [corr(v_j, Toep(z) v_j - (V C*)_j) + corr(Toep(z) v_j, v_j)] with
    C = V* Toep(z) V and w the diagonal lengths. One inverse batch gives
    the rows Toep(z) v_j, one forward batch their spectra F_j, and the
    spectra of the rows of V C* are conj(C) times V's cached spectra s_j.
    The result is Hermitian, so its spectrum is real:
    Re sum_j conj(s_j) (2 F_j - (conj(C) s)_j). tests/oracles.t_ptp is the
    general step, for any complex z, in 4|S| + 2 FFTs.
    """
    Vc, (rows, vcs) = work
    spectra = f.spectra
    n = (f.V.shape[0] - 1) // 2
    length = spectra.shape[1]
    z = (z + np.conj(z[::-1])) / 2
    np.multiply(spectra, np.fft.fft(tp.to_grid(z, length)).real, out=rows)
    np.fft.ifft(rows, out=rows)
    # C^T, from the rows' coefficients -n..-1 and 0..n
    CT = rows[:, length - n :] @ Vc[:n] + rows[:, : n + 1] @ Vc[n:]
    rows[:, n + 1 : length - n] = 0
    np.fft.fft(rows, out=rows)
    np.matmul(CT.conj().T / 2, spectra, out=vcs)
    rows -= vcs
    spec = 2 * np.vecdot(spectra, rows, axis=0).real
    return _weights(n) * z - tp.from_grid(np.fft.ifft(spec), 2 * n)


def p_err(c: Certificate, f: _Factor) -> tp.TrigPoly:
    """Residual polynomial (1 - |eta|^2) - psi* P psi / dim, order 2n, for
    the projector factor f of the measure.

    With T(P) = dim delta_0 - sum_j corr(v_j, v_j) the constants cancel and
    p_err = conj(sum_j corr(v_j, v_j)) / dim - corr(eta, eta), one inverse
    FFT on f's grid; conjugating a correlation reverses its spectrum.
    """
    eta = np.fft.fft(tp.to_grid(eta_coeffs(c).coeffs, f.spectra.shape[1]))
    vv = np.sum(np.abs(f.spectra) ** 2, axis=0)
    spec = np.roll(vv[::-1], 1) / (2 * c.n + 1) - np.abs(eta) ** 2
    return tp.TrigPoly(2 * c.n, tp.from_grid(np.fft.ifft(spec), 2 * c.n))


def _weights(n: int) -> np.ndarray:
    d = 2 * n + 1
    s = np.arange(-(d - 1), d)
    return d - np.abs(s)


# CG on a matrix of condition ~1.5 on its range; the absolute floor sits above
# the rounding noise of p_err (~1e-17 for one atom, which gets zeta = 0 at once)
_CG_RTOL = 1e-12
_CG_ATOL = 1e-15
_CG_MAXITER = 200

# peak resident bytes per entry of the dim^2 Gram matrix on the dense route:
# Q, one dim^2 temporary and eigvalsh's copy; 32.6..36.2 measured with
# getrusage in fresh processes (peak minus the RSS before the assembly) at
# n = 512..2048, |S| = 2..60
_GRAM_BYTES_PER_ENTRY = 40
# peak resident bytes per entry of |S| + _SYMBOL_ROWS rows of length L, the
# factor's FFT length >= 4n+1, on the symbol route: per atom V, the spectra
# and _t_ptp's work arrays, and rows of CG vectors and the symbol samples
# (8L) for any |S|. Measured with getrusage in fresh processes (peak minus
# the RSS before the assembly) at n = 4096..65536, |S| = 1..60: 52..80.3
# bytes per entry; per atom 49..69 bytes per entry, and 558..717 bytes per
# L for the rest
_SYMBOL_BYTES_PER_ENTRY = 85
_SYMBOL_ROWS = 8


def x_corr(f: _Factor, perr: tp.TrigPoly) -> tuple[np.ndarray, int]:
    """Toeplitz coefficients zeta, on -2n..2n, of the minimum-norm correction
    X = P Toep(zeta) P whose quadratic form psi* X psi equals perr, and the
    CG iteration count; f is the measure's projector factor.

    Since psi* X psi(theta) = sum_s T(X)_s e^{-2 pi i s theta}, the constraint
    in T-coefficients is A(X) = conj(perr). zeta = w^{-1/2} y, with y from
    scipy's CG, started from zero, on w^{-1/2} S w^{-1/2} y = w^{-1/2}
    conj(perr), where S z = T(P Toep(z) P) is applied by FFT. S is PSD and
    its kernel, two directions per atom, is orthogonal to perr, which has
    double zeros at the atoms, so CG returns the minimum-norm solution.
    conj(perr) is Hermitian-symmetric, perr being real, and S and w commute
    with z -> conj(z_{-s}), so every CG iterate is Hermitian-symmetric:
    _t_ptp symmetrises its input, which moves the iterates only by
    rounding, and takes the Hermitian step (tests/oracles.t_ptp is the
    general one). zeta is returned Hermitian-symmetrized, exactly in floating
    point, so Toep(zeta) is Hermitian. Raises IllConditioned if CG does not
    converge.
    """
    n = (f.V.shape[0] - 1) // 2
    if perr.n != 2 * n:
        raise ValueError("perr must have order 2n")
    rw = 1.0 / np.sqrt(_weights(n))
    work = _step_work(f)
    op = LinearOperator((4 * n + 1,) * 2, dtype=np.complex128,
                        matvec=lambda y: rw * _t_ptp(f, rw * np.ravel(y), work))
    iters = 0

    def count(_):
        nonlocal iters
        iters += 1

    y, info = cg(op, rw * np.conj(perr.coeffs), rtol=_CG_RTOL, atol=_CG_ATOL,
                 maxiter=_CG_MAXITER, callback=count)
    if info != 0:
        raise IllConditioned(f"conjugate gradients did not converge in {_CG_MAXITER} iterations")
    zeta = rw * y
    return (zeta + np.conj(zeta[::-1])) / 2, iters


# verdict thresholds of the gram report: Q counts as positive semidefinite when
# the symbol floor proves it, or else when the dense Q's smallest eigenvalue is
# at least MIN_EIG_FLOOR (eigvalsh rounding of the |S| exact zeros, the atom
# directions P removes, stays far above it), and psi* Q psi reproduces
# 1 - |eta|^2 when the l1 norm of the defect's coefficients is at most
# SUP_POLY_ERR_TOL
MIN_EIG_FLOOR = -1e-9
SUP_POLY_ERR_TOL = 1e-8


def _dense_gram(f: _Factor, zeta: np.ndarray) -> np.ndarray:
    """The dense Q = P (I/dim + Toep(zeta)) P for the projector factor f,
    by a rank-2|S| update of Toep(zeta).

    P T P = T - (V M* + M V*) with M = T V - V C/2 and C = V* T V, since T
    and C are Hermitian; V/(2 dim) in M adds the -V V*/dim of P/dim.
    """
    V = f.V
    d = V.shape[0]
    n = (d - 1) // 2
    Q = toeplitz(zeta[2 * n :], zeta[2 * n :: -1])
    TV = Q @ V
    C = V.conj().T @ TV
    M = TV - V @ ((C + C.conj().T) / 4) + V / (2 * d)
    Q -= np.hstack([V, M]) @ np.hstack([M, V]).conj().T
    Q.flat[:: d + 1] += 1.0 / d
    Q += Q.conj().T
    Q *= 0.5
    return Q


def assemble_and_verify(c: Certificate) -> dict:
    """The gram report: solve for zeta, check that Q = P (I/dim + Toep(zeta)) P
    reproduces 1 - |eta|^2, and prove Q positive semidefinite.

    The defect is taken in coefficient form from one fresh T(P Toep(zeta) P)
    with the final zeta, by the Hermitian step, whose symmetrisation leaves
    that zeta unchanged: psi* Q psi - (1 - |eta|^2) has coefficients
    conj(T(P Toep(zeta) P)) - p_err. sup_poly_err is their l1 norm, which
    bounds the defect at every theta, not only on a grid; residual_rel is
    their l2 norm over |p_err| (absolute if p_err is numerically zero).

    PSD has two routes. Toep(zeta) is Hermitian Toeplitz, so its smallest
    eigenvalue is at least the minimum of its symbol zeta^ (U. Grenander and
    G. Szego, Toeplitz Forms and Their Applications, 1958), and
    Q >= psd_floor P with psd_floor = 1/dim + a lower bound on min zeta^
    (trigpoly.min_lower_bound). When psd_floor > 0 no dense Q is formed:
    Q is PSD with the atom columns as its kernel, so rank_deficiency = |S|,
    min_eig = 0.0 (Q psi(tau_j) = 0 exactly) and psd_rigorous is true.
    Otherwise Q is formed densely (_dense_gram) for eigvalsh: min_eig is
    its smallest eigenvalue, rank_deficiency the count below 1e-8 times the
    spectral norm, psd_floor the estimate lambda_{|S|+1} and psd_rigorous
    false.

    Returns atom_count, n, min_eig, psd_floor, psd_rigorous,
    rank_deficiency, sup_poly_err, residual_rel, cg_iters and the verdicts:
    psd_ok (psd_rigorous, or min_eig >= MIN_EIG_FLOOR), defect_ok
    (sup_poly_err <= SUP_POLY_ERR_TOL) and verified (both). Raises
    BudgetExceeded, before allocating, past the memory budget of the
    O(|S| n) arrays, and before the dense Q past its d^2 budget.
    """
    n = c.n
    d = 2 * n + 1
    size = c.measure.size
    check_budget(_SYMBOL_BYTES_PER_ENTRY * (size + _SYMBOL_ROWS) * _factor_len(n),
                 f"Gram assembly at n={n}")
    f = _projector_factor(c.measure)
    perr = p_err(c, f)
    zeta, iters = x_corr(f, perr)

    defect = np.conj(_t_ptp(f, zeta, _step_work(f))) - perr.coeffs
    resid = float(np.linalg.norm(defect))
    scale = float(np.linalg.norm(perr.coeffs))
    if scale > 1e-13:
        resid /= scale

    lower = tp.min_lower_bound(tp.TrigPoly(2 * n, zeta))
    # 1/d and the sum are rounded once each: take that much off again
    floor = 1.0 / d + lower - 2.0**-51 * (1.0 / d + abs(lower))
    rigorous = floor > 0
    if rigorous:
        min_eig, rank_def = 0.0, size
    else:
        check_budget(_GRAM_BYTES_PER_ENTRY * d**2, f"dense Gram matrix at n={n}")
        eigs = np.linalg.eigvalsh(_dense_gram(f, zeta))
        min_eig, floor = float(eigs[0]), float(eigs[size])
        rank_def = int(np.sum(eigs < 1e-8 * float(np.max(np.abs(eigs)))))
    sup_err = float(np.sum(np.abs(defect)))
    psd_ok = rigorous or min_eig >= MIN_EIG_FLOOR
    defect_ok = sup_err <= SUP_POLY_ERR_TOL
    return {
        "atom_count": size,
        "n": n,
        "min_eig": min_eig,
        "psd_floor": floor,
        "psd_rigorous": rigorous,
        "rank_deficiency": rank_def,
        "sup_poly_err": sup_err,
        "residual_rel": resid,
        "cg_iters": iters,
        "psd_ok": psd_ok,
        "defect_ok": defect_ok,
        "verified": psd_ok and defect_ok,
    }
