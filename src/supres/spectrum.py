"""Extremal singular values of the stabilized section by Lanczos.

Both ends are eigenvalues of the real symmetric map M^T M, found together by
one run of ARPACK's implicitly restarted Lanczos method
(scipy.sparse.linalg.eigsh with which="BE", k=2): the Krylov space it builds
serves the top and the bottom alike, so no shift and no second run are
needed. A Rayleigh-quotient residual on each returned Ritz vector gives the
usual a-posteriori guarantee: the estimate lies within residual of some true
eigenvalue, which the report maps back to the singular-value scale. That
places *a* singular value near each estimate; it does not prove that none
lies below sigma_min, so condition_holds is a residual-based estimate, not a
proof.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from . import qk_operator as qk
from .budget import check_budget


class ZeroVector(ValueError):
    """A residual bound was requested for the zero vector."""


class NonConvergence(RuntimeError):
    """Lanczos gave up, or a Ritz pair missed the residual target."""


@dataclass(frozen=True)
class Eigenpair:
    value: float
    vector: np.ndarray
    residual: float
    iters: int


# ARPACK's stopping test is relative, ||r|| <= rtol |lam|, so it runs at
# rtol = 0 (machine precision), which meets any absolute target above
# eps |lam|; RESIDUAL_TOL is the absolute residual each returned Ritz pair of
# M^T M must meet, else NonConvergence. It sets no computation: on the
# section both ends converge to rounding within ARPACK's first 20-step cycle.
RESIDUAL_TOL = 1e-8
# cap on ARPACK's restart cycles, far above the one cycle the section takes;
# it only ends a run that would otherwise not stop
_MAX_RESTARTS = 20000


def aposteriori_bound(apply: Callable, x: np.ndarray, lam: float) -> float:
    """||A x - lam x|| / ||x||: distance from lam to the nearest eigenvalue
    of the Hermitian map A."""
    nx = float(np.linalg.norm(x))
    if nx == 0.0:
        raise ZeroVector("residual bound needs a nonzero vector")
    return float(np.linalg.norm(apply(x) - lam * x)) / nx


def lanczos_extremes(apply: Callable, dim: int, seed=0) -> tuple[Eigenpair, Eigenpair]:
    """(bottom, top) eigenpairs of a real symmetric map from one Lanczos run.

    ARPACK runs at rtol = 0 for at most _MAX_RESTARTS restart cycles, and
    the residual of each returned Ritz vector is checked against
    RESIDUAL_TOL. iters, the same for both pairs, counts applications of
    the map in the run, the two residual checks included. Raises
    NonConvergence when ARPACK gives up or a residual misses RESIDUAL_TOL.
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
    ends = [(float(lam), x, aposteriori_bound(counted, x, lam)) for lam, x in zip(w, V.T)]
    for (_, _, res), end in zip(ends, ("bottom", "top")):
        if not res <= RESIDUAL_TOL:  # a NaN residual fails too
            raise NonConvergence(
                f"Lanczos {end} residual {res:.3e} above the target {RESIDUAL_TOL:.3e} "
                f"after {count} products")
    bottom, top = (Eigenpair(lam, x, res, count) for lam, x, res in ends)
    return bottom, top


def _sigma_scale(pair: Eigenpair) -> tuple[float, float]:
    """(sigma, residual) on the singular-value scale for an eigenpair of M^T M.

    |sigma - sigma_true| <= res / (sigma + sigma_true), and the true value is
    at least sqrt(lam - res).
    """
    sigma = float(np.sqrt(max(pair.value, 0.0)))
    denom = sigma + float(np.sqrt(max(pair.value - pair.residual, 0.0)))
    return sigma, pair.residual / denom if denom > 0 else float(np.sqrt(pair.residual))


def dense_extremes(K: int) -> tuple[float, float]:
    """Test oracle: (sigma_min, sigma_max) of the dense section by a full
    SVD, for oracle-scale K; the spectrum tests check the Lanczos estimates
    against it."""
    op = qk.build_operator(K)
    A = np.eye(op.dim) - qk.qk_dense(K) + op.pinf.matrix()
    svals = np.linalg.svd(A, compute_uv=False)
    return float(svals[-1]), float(svals[0])


# peak resident bytes per unit of K above the pre-solve baseline: 708-715
# measured with getrusage in fresh processes at K = 2^16..2^18, mostly the
# ~20 ARPACK work vectors of length 2K+1; 900 still admits K = 2^20
_SECTION_BYTES_PER_K = 900


def check_section_budget(K: int) -> None:
    """Raise BudgetExceeded when a section at K would exceed the memory budget."""
    check_budget(_SECTION_BYTES_PER_K * K, f"spectrum section at K={K}")


def spectrum_report(K: int, seed=0) -> dict:
    """Build the section at K and estimate its extremal singular values.

    The report: K; sigma_max and sigma_min with residual_max and
    residual_min, their a-posteriori errors on the singular-value scale;
    iters_max and iters_min, the M^T M products of the Lanczos run; and
    condition_holds, sigma_min - residual_min > 1/2. Raises BudgetExceeded,
    before allocating, past the memory budget.
    """
    check_section_budget(K)
    op = qk.build_operator(K)

    def squared(x):
        return qk.matvec_transpose(op, qk.matvec(op, x))

    bottom, top = lanczos_extremes(squared, op.dim, seed)
    sigma_max, res_max = _sigma_scale(top)
    sigma_min, res_min = _sigma_scale(bottom)
    return {
        "K": K,
        "sigma_max": sigma_max,
        "sigma_min": sigma_min,
        "residual_max": res_max,
        "residual_min": res_min,
        "iters_max": top.iters,
        "iters_min": bottom.iters,
        "condition_holds": bool(sigma_min - res_min > 0.5),
    }
