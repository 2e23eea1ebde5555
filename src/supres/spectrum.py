"""Extremal singular values of the stabilized section by Lanczos.

Both ends are eigenvalues of the real symmetric map M^T M, found together by
one run of ARPACK's implicitly restarted Lanczos method
(scipy.sparse.linalg.eigsh with which="BE", k=2): the Krylov space it builds
serves the top and the bottom alike, so no shift and no second run are
needed. A run is its numbers: `lanczos_extremes` returns each end's value
and residual ||A x - lam x|| / ||x|| on its Ritz vector x, and the count of
products. The residual gives the usual a-posteriori guarantee (Parlett, The
Symmetric Eigenvalue Problem, Thm 4.5.1): the estimate lies within residual
of some true eigenvalue, which the report maps back to the singular-value
scale. A residual above RESIDUAL_TOL, or NaN (from a zero vector), is
refused as NonConvergence. That places *a* singular value near each
estimate; it does not prove that none lies below sigma_min, so
condition_holds is a residual-based estimate, not a proof. `sweep_report`,
the spectrum command's report, repeats `spectrum_report` at K/4, K/2 and K:
the spectrum is flat in K past 100.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from . import qk_operator as qk
from .budget import check_budget


class NonConvergence(RuntimeError):
    """Lanczos gave up, or a Ritz pair missed the residual target."""


# ARPACK's stopping test is relative, ||r|| <= rtol |lam|, so it runs at
# rtol = 0 (machine precision), which meets any absolute target above
# eps |lam|; RESIDUAL_TOL is the absolute residual each returned Ritz pair of
# M^T M must meet, else NonConvergence. It sets no computation: on the
# section both ends converge to rounding within ARPACK's first 20-step cycle.
RESIDUAL_TOL = 1e-8
# cap on ARPACK's restart cycles, far above the one cycle the section takes;
# it only ends a run that would otherwise not stop
_MAX_RESTARTS = 20000


def lanczos_extremes(apply: Callable, dim: int, seed=0):
    """((value, residual) of the bottom end, (value, residual) of the top
    end, products) of a real symmetric map, from one Lanczos run.

    ARPACK runs at rtol = 0 for at most _MAX_RESTARTS restart cycles. Each
    returned Ritz vector x with value lam has the residual
    ||A x - lam x|| / ||x||, some eigenvalue of A lying that close to lam,
    checked against RESIDUAL_TOL. products counts applications of the map
    in the run, the two residual checks included. Raises NonConvergence
    when ARPACK gives up or a residual misses RESIDUAL_TOL; a residual that
    is NaN, as from a zero vector, misses it too.
    """
    count = 0

    def counted(x):
        nonlocal count
        count += 1
        return apply(x)

    A = LinearOperator((dim, dim), matvec=counted, dtype=float)
    v0 = np.random.default_rng(seed).uniform(-1.0, 1.0, dim)
    try:
        w, V = eigsh(A, k=2, which="BE", v0=v0, tol=0.0, maxiter=_MAX_RESTARTS)
    except ArpackNoConvergence as exc:
        raise NonConvergence(
            f"Lanczos did not converge after {count} products: {exc}") from exc
    ends = [(float(lam), float(np.linalg.norm(counted(x) - lam * x) / np.linalg.norm(x)))
            for lam, x in zip(w, V.T)]
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
    SVD, for oracle-scale K; the spectrum tests check the Lanczos estimates
    against it. Kept here, unlike the oracles in tests/oracles.py, because
    perfbench's worker checks spectrum-sweep reports against it."""
    op = qk.build_operator(K)
    P = np.outer(op.w, op.w)
    P[K, K] = 1.0
    A = np.eye(op.dim) - qk.qk_dense(K) + P
    svals = np.linalg.svd(A, compute_uv=False)
    return float(svals[-1]), float(svals[0])


# peak resident bytes per unit of K above the pre-solve baseline: 708-714
# measured with getrusage in fresh processes at K = 2^16..2^18, mostly the
# ~20 ARPACK work vectors of length 2K+1; 900 still admits K = 2^20
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
    max(4, K // 2) and K, ascending, one seed. K >= 4; the budget at K, the
    largest size, is checked before any size is solved."""
    if K < 4:
        raise ValueError(f"section size K must be at least 4, got {K}")
    check_budget(_SECTION_BYTES_PER_K * K, f"spectrum section at K={K}")
    reports = [spectrum_report(k, seed=seed)
               for k in sorted({max(4, K // 4), max(4, K // 2), K})]
    return {**reports[-1], "sweep": reports}
