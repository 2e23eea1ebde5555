"""Extremal singular values of the stabilized section by Lanczos.

Both ends are eigenvalues of the real symmetric map M^T M, found together by
one Lanczos pass with full reorthogonalisation, on numpy alone: the Krylov
space it builds serves the top and the bottom alike, so no shift and no
second run are needed. The pass takes at most _MAX_STEPS steps; a map whose
ends it cannot converge in them raises NonConvergence. A run is its
numbers: `lanczos_extremes` returns each end's value and residual
||A x - lam x|| / ||x|| on its Ritz vector x, and the count of products. The
residual gives the usual a-posteriori guarantee (Parlett, The Symmetric
Eigenvalue Problem, Thm 4.5.1): the estimate lies within residual of some
true eigenvalue, which the report maps back to the singular-value scale.
It is recomputed with a fresh product, so a wrong iteration can fail the
check but not pass it. A residual above RESIDUAL_TOL, or NaN (from a zero
vector), is refused as NonConvergence.
That places *a* singular value near each estimate; it does not prove that
none lies below sigma_min, so condition_holds is a residual-based estimate,
not a proof. `sweep_report`, the spectrum command's report, repeats
`spectrum_report` at K/4, K/2 and K: the spectrum is flat in K past 100.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import qk_operator as qk
from . import trigpoly as tp
from .budget import check_budget


class NonConvergence(RuntimeError):
    """Lanczos gave up, or a Ritz pair missed the residual target."""


# RESIDUAL_TOL is the absolute residual each returned Ritz pair of M^T M must
# meet, else NonConvergence. It sets no computation: a run stops on ARPACK's
# relative test at tol = 0, each end's estimate beta |s_last| at most
# U max(U^(2/3), |theta|) for the unit roundoff U, which meets any absolute
# target above rounding; on the section both ends pass it within 16-21 steps
# (7800 runs at K = 10..4096, 600 seeds each).
RESIDUAL_TOL = 1e-8
_EPS23 = tp.U ** (2 / 3)
# A pass takes at most _MAX_STEPS steps (the basis rows the memory budget
# pays for), testing for convergence, an eigh of T, from step _FIRST_CHECK
# on: the section needs 16-21 steps.
_MAX_STEPS = 23
_FIRST_CHECK = 16


def _extreme_pairs(T: np.ndarray):
    """((theta, s) of the bottom end, (theta, s) of the top end) of the
    symmetric T: its extreme eigenvalues and unit eigenvectors."""
    theta, S = np.linalg.eigh(T)
    return (theta[0], S[:, 0]), (theta[-1], S[:, -1])


def _ritz_ends(apply: Callable, dim: int, v: np.ndarray):
    """[(theta, x) of the bottom end, (theta, x) of the top end], the Ritz
    pairs of one Lanczos pass from v, or None if the pass ends unconverged.

    The pass takes at most min(_MAX_STEPS, dim) steps. Each new vector is
    orthogonalised against the whole basis V twice, and T = V^T A V is built
    in place. The pass stops when both ends' Ritz estimates beta |s_last|
    reach rounding relative to |theta| (see RESIDUAL_TOL) or the Krylov
    space is exhausted (dim steps, or beta = 0).
    """
    steps = min(_MAX_STEPS, dim)
    V = np.empty((steps, dim))
    T = np.zeros((steps, steps))
    V[0] = v / np.linalg.norm(v)
    for j in range(steps):
        # a copy, since apply may return its argument
        w = np.array(apply(V[j]), dtype=float)
        basis = V[: j + 1]
        for _ in range(2):
            h = basis @ w
            w -= h @ basis
            T[j, j] += h[j]
        beta = float(np.linalg.norm(w))
        n = j + 1
        if n >= _FIRST_CHECK or n == steps or beta == 0.0:
            ends = _extreme_pairs(T[:n, :n])
            if n == dim or beta == 0.0 or all(
                    beta * abs(s[-1]) <= tp.U * max(_EPS23, abs(theta))
                    for theta, s in ends):
                return [(theta, s @ basis) for theta, s in ends]
        if n < steps:
            T[j, n] = T[n, j] = beta
            np.divide(w, beta, out=V[n])
    return None


def lanczos_extremes(apply: Callable, dim: int, seed=0):
    """((value, residual) of the bottom end, (value, residual) of the top
    end, products) of a real symmetric map, from one Lanczos pass.

    The pass (`_ritz_ends`) starts from default_rng(seed).uniform(-1, 1, dim).
    Each returned Ritz vector x with value lam has the residual
    ||A x - lam x|| / ||x||, from a fresh product, some eigenvalue of A
    lying that close to lam, checked against RESIDUAL_TOL. products counts
    applications of the map in the pass, the two residual checks included.
    Raises NonConvergence when the pass ends unconverged after _MAX_STEPS
    steps or when a residual misses RESIDUAL_TOL; a residual that is NaN, as
    from a zero vector, misses it too.
    """
    count = 0

    def counted(x):
        nonlocal count
        count += 1
        return apply(x)

    pairs = _ritz_ends(counted, dim, np.random.default_rng(seed).uniform(-1.0, 1.0, dim))
    if pairs is None:
        raise NonConvergence(f"Lanczos did not converge after {count} products")
    ends = [(float(lam), float(np.linalg.norm(counted(x) - lam * x) / np.linalg.norm(x)))
            for lam, x in pairs]
    for (_, res), end in zip(ends, ("bottom", "top")):
        if not res <= RESIDUAL_TOL:  # a NaN residual fails too
            raise NonConvergence(
                f"Lanczos {end} residual {res:.3e} above the target {RESIDUAL_TOL:.3e} "
                f"after {count} products")
    return ends[0], ends[1], count


def _sigma_scale(lam: float, res: float) -> tuple[float, float]:
    """(sigma, residual) on the singular-value scale for an eigenvalue lam
    of M^T M with residual res.

    |sigma - sigma_true| <= res / (sigma + sigma_true), and the true value is
    at least sqrt(lam - res).
    """
    sigma = float(np.sqrt(max(lam, 0.0)))
    denom = sigma + float(np.sqrt(max(lam - res, 0.0)))
    return sigma, res / denom if denom > 0 else float(np.sqrt(res))


def dense_extremes(K: int) -> tuple[float, float]:
    """Test oracle: (sigma_min, sigma_max) of the dense section by a full
    SVD, for oracle-scale K. Kept here, unlike the oracles in
    tests/oracles.py, only because perfbench's worker checks spectrum-sweep
    reports against it; the tests pin it to oracles.section_extremes."""
    op = qk.build_operator(K)
    P = np.outer(op.w, op.w)
    P[K, K] = 1.0
    A = np.eye(op.dim) - qk.qk_dense(K) + P
    svals = np.linalg.svd(A, compute_uv=False)
    return float(svals[-1]), float(svals[0])


# peak resident bytes per unit of K above the pre-solve baseline, in the
# worst case of all _MAX_STEPS basis rows touched: 871, 814 and 784,
# measured with getrusage in fresh processes, one thread, at K = 2^16, 2^17
# and 2^18. The basis, 16 _MAX_STEPS bytes per K, is most of it, the
# operator and the products' FFT buffers the rest; the section's own runs
# of 16-21 steps peak lower. 900 still admits K = 2^20
_SECTION_BYTES_PER_K = 900


def spectrum_report(K: int, seed=0) -> dict:
    """Build the section at K and estimate its extremal singular values.

    The report: K; sigma_max and sigma_min with residual_max and
    residual_min, their a-posteriori errors on the singular-value scale;
    iters_max and iters_min, the M^T M products of the Lanczos run; and
    condition_holds, sigma_min - residual_min > 1/2. Raises BudgetExceeded,
    before allocating, past the memory budget.
    """
    check_budget(_SECTION_BYTES_PER_K * K, f"spectrum section at K={K}")
    op = qk.build_operator(K)

    def squared(x):
        return qk.matvec_transpose(op, qk.matvec(op, x))

    bottom, top, products = lanczos_extremes(squared, op.dim, seed)
    sigma_max, res_max = _sigma_scale(*top)
    sigma_min, res_min = _sigma_scale(*bottom)
    return {
        "K": K,
        "sigma_max": sigma_max,
        "sigma_min": sigma_min,
        "residual_max": res_max,
        "residual_min": res_min,
        "iters_max": products,
        "iters_min": products,
        "condition_holds": bool(sigma_min - res_min > 0.5),
    }


def sweep_report(K: int, seed=0) -> dict:
    """spectrum_report at K, plus under "sweep" the reports at max(4, K // 4),
    max(4, K // 2) and K, ascending, one seed. K >= 4; the sizes are solved
    largest first, so the budget at K refuses before any size is solved."""
    if K < 4:
        raise ValueError(f"section size K must be at least 4, got {K}")
    reports = [spectrum_report(k, seed=seed)
               for k in sorted({max(4, K // 4), max(4, K // 2), K}, reverse=True)]
    return {**reports[0], "sweep": reports[::-1]}
