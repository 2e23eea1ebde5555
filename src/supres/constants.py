"""Reproductions of the scalar constants behind the truncation argument.

Four computations: the log-linear fixed points that pin the envelope
constant C1, the root eta* of the interpolation-margin inequality, the
decay curve f(K) that turns a truncation level into a deviation bound, and
the truncation budget B1-B6. All are pure functions of the printed inputs
below; the report bundles them with those inputs.
"""

from __future__ import annotations

import math

from scipy.special import lambertw

ZETA_2 = math.pi**2 / 6.0

# the printed inputs of the fixed-point equation x = (3 + 3 EPS)/LAM (M1 + M2 log x)
LAM = 0.9
M1 = 152
M2 = 76
EPS = 1.0 / 300.0
# envelope constant taken downstream, just above the large fixed point 2496.7
C1 = 2500.0
# The curve's stated prefactor 2/(.0112) is exactly ten times the value that
# reproduces the published data points (f(2e13) = 0.0080675...); 2/0.112 is
# used. The discrepancy is logged here rather than hidden: with the stated
# prefactor every sample of f(K) would come out 10x larger.
ETA_CURVE = 0.112
# truncation level at which the budget is reported
K_TARGET = 1e13


def c1_bound() -> tuple[float, float]:
    """Both fixed points of x = kappa (M1 + M2 log x), kappa = (3 + 3 EPS)/LAM.

    With a = kappa M2, x = -a W_k(-e^{-M1/M2}/a) on the Lambert W branches
    k = 0 and -1 (Corless et al., Adv. Comput. Math. 5, 1996). They give the
    printed roots (0.1354, 2496.7); the large one justifies C1 = 2500.
    """
    a = (3.0 + 3.0 * EPS) / LAM * M2
    z = -math.exp(-M1 / M2) / a
    return tuple(-a * float(lambertw(z, k).real) for k in (0, -1))


def interpolation_margin(eta: float, C1: float) -> float:
    """42 eta + 4 eta log(1 + (C1 - 1)/(2 eta) + C1): the quantity that must
    reach 1 for the margin argument to close."""
    return 42.0 * eta + 4.0 * eta * math.log(1.0 + (C1 - 1.0) / (2.0 * eta) + C1)


def eta_star(C1: float = C1) -> float:
    """Root of interpolation_margin(eta) = 1 by bisection on (1e-6, 1).

    The margin is strictly increasing in eta and exceeds 1 at eta = 1 for
    any C1 > 1, so the bracket always holds.
    """
    if C1 <= 1:
        raise ValueError("C1 must exceed 1")
    lo, hi = 1e-6, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if interpolation_margin(mid, C1) < 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def k_bound_value(K: float) -> float:
    """Deviation bound f(K) for one truncation level, prefactor 2/ETA_CURVE."""
    lg = math.log
    c1 = 4.0 * C1 / lg(K) + 8.0 * C1
    c1p = (C1 / lg(K + 1.0)) * (21.0 + 9.0 * lg(K / C1) + 3.0 * lg(K))
    num = (c1 + c1p + C1 / lg(K + 1.0)) * (2.0 * M1 + 2.0 * M2 * lg(1.0 + K) + 1.0) * lg(1.0 + K)
    return (2.0 / ETA_CURVE) * math.sqrt(ZETA_2) * num / (1.0 + K)


def k_bound_curve(K_values) -> list[tuple[float, float]]:
    """Sample f(K) over the given truncation levels (each must be >= 2)."""
    out = []
    for K in K_values:
        if K < 2:
            raise ValueError("truncation levels must be at least 2")
        out.append((float(K), k_bound_value(float(K))))
    return out


_BUDGET_THRESHOLDS = {
    "B1": 1e-4,
    "B2": 0.01,
    "B3": 0.01,
    "B4": 0.02,
    "B5": 0.1,
    "B6": 0.1,
}


def _budget_bounds(K_target: float) -> dict:
    """The six tail bounds as functions of the split point K1."""
    grow = C1 + C1 * math.log(K_target)
    return {
        "B1": lambda K1: 4.0 * math.sqrt(ZETA_2) / math.pi**3 * 100.0 * grow / K1**2,
        "B2": lambda K1: 16.0 / math.pi**3 * 100.0 * grow / K1**2,
        "B3": lambda K1: 8.5e4 / K1,
        "B4": lambda K1: 1.35e5 / K1,
        "B5": lambda K1: 7.54e9 / K1,
        "B6": lambda K1: 1.46e9 / K1,
    }


def truncation_budget(K_target: float) -> dict:
    """Smallest power-of-two split K1 driving each tail bound under its
    threshold, for a run truncated at K_target.

    Doubling search, so each reported K1 is within a factor 2 of the exact
    crossover.
    """
    bounds = _budget_bounds(K_target)
    report = {"K_target": float(K_target), "bounds": {}, "feasible": True}
    for name, fn in bounds.items():
        thr = _BUDGET_THRESHOLDS[name]
        K1 = 1.0
        while fn(K1) > thr and K1 < 2.0**60:
            K1 *= 2.0
        ok = fn(K1) <= thr
        report["bounds"][name] = {
            "threshold": thr,
            "K1": K1,
            "value_at_K1": float(fn(K1)),
            "met": bool(ok),
        }
        report["feasible"] = report["feasible"] and ok
    return report


def constants_report() -> dict:
    """The full constants reproduction: both C1 fixed points (C1_root_small,
    C1_root_large), eta_star at C1, fK_samples as (K, f(K)) at 25
    log-spaced levels from 1e12 to 2e13, the printed inputs (M1ppp, M2,
    lam, eps) and the truncation_budget at K_TARGET."""
    small, large = c1_bound()
    ks = [10.0 ** (12.0 + i * (math.log10(2e13) - 12.0) / 24) for i in range(25)]
    return {
        "C1_root_small": small,
        "C1_root_large": large,
        "eta_star": eta_star(C1),
        "fK_samples": k_bound_curve(ks),
        "M1ppp": M1,
        "M2": M2,
        "lam": LAM,
        "eps": EPS,
        "truncation_budget": truncation_budget(K_TARGET),
    }
