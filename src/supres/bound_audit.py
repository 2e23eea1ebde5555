"""Closed-form spot checks of the inner-integral envelope bounds.

The object under audit is F(s; theta), the integral over t from 0 to -theta
of sum_{j=1}^{n+1} exp(2 pi i j (s+t)). Eleven subdomains of the
(s, theta) rectangle [-1/2, 1/2] x [0, 1/2] each carry one printed upper
bound for |Re F| and one for |Im F|. check_master_bounds samples every
subdomain, evaluates F in closed form with an a-priori rounding-error bound,
and records any sample where the measured part exceeds its bound by more
than that rounding bound.

Each bound is transcribed term by term with absolute values around the
individual summands: a few printed distance factors change sign on their
own subdomain (the small-theta branches reuse an expression derived for
s < 0 on s > 0, where theta - s flips sign), and several log ratios pass
through 1. Wrapping the terms keeps every formula positive on its domain
without altering its magnitude where the printed form is already positive.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad

from .budget import check_budget

DOMAINS = ("D0+", "D1+", "D2+", "D3+", "D4+",
           "D0-", "D1-", "D2-", "D3-", "D4-", "D5-")


# peak bytes per term of one closed-form evaluation: the index, the sine
# quotients and the phase with its cosine or sine (32.3 measured with getrusage
# at n = 2e6, 32.1 at n = 8e6)
_KERNEL_BYTES_PER_TERM = 33

# peak bytes per term of one evaluation of the quadrature oracle's kernel: the
# index, the phase and its exponential (40.0 measured with getrusage at n = 2e6)
_QUAD_BYTES_PER_TERM = 40

# bytes per audited sample: its two report rows (718-720 measured with
# getrusage over 110000 and 220000 samples at n = 4; budgeted at 1100, which
# keeps the documented cap of about 900000 samples)
_SAMPLE_BYTES = 1100

_U = 2.0**-53  # unit roundoff of IEEE double precision

# assumed accuracy of np.sin and np.cos: within 2 ulps of the exact value, so
# a relative error of at most 4u
_C_F = 4


def _gamma(k: int) -> float:
    return k * _U / (1.0 - k * _U)


def f_inner(s: float, theta: float, n: int) -> tuple[complex, float]:
    """F(s; theta) in closed form, with an a-priori bound on its rounding error.

    Each term of the integrand integrates exactly:
    F = -sum_{j=1}^{m} e^{2 pi i j a} sin(pi j theta)/(pi j), with a = s - theta/2
    and m = n + 1. The sine form has no cancellation as theta -> 0.

    Rounding bound (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., section 3.1; u = 2^-53, gamma_k = ku/(1-ku)). Assume np.sin and
    np.cos are within 2 ulps, i.e. a relative error of at most c u with c = 4,
    and that nothing underflows (theta and |a| are 0 or above 2^-1000).
    With y_j = 2 pi j a, z_j = pi j theta and q_j = sin(z_j)/(pi j), the
    code forms
      - y^_j = fl(fl(2 pi^ a^) j) from a^ = fl(s - theta/2) and pi^ = fl(pi):
        four roundings, so |y^_j - y_j| <= gamma_4 |y_j|; cos and sin are
        1-Lipschitz, so e^_j = cos y^_j + i sin y^_j has
        |e^_j - e_j| <= gamma_4 2 pi j |a| + c u;
      - z^_j = fl(fl(pi^ theta) j): |z^_j - z_j| <= gamma_3 z_j;
      - q^_j = fl(fl(sin z^_j) / fl(pi^ j)): the sine adds c u, the quotient
        three more roundings, so |q^_j - q_j| <= gamma_3 theta
        + (c u + gamma_3)|q^_j| to first order;
      - the two dot products of cos y^ and sin y^ with q^, in any order:
        an error of gamma_m sum_j |e^_j q^_j| in modulus (each part is
        within gamma_m of its own absolute sum, and the two absolute sums
        form a vector of length at most sum_j |e^_j q^_j|).
    Summing |e^_j - e_j||q^_j| + |q^_j - q_j| + the dot-product error gives
      |F^ - F| <= gamma_4 2 pi |a| sum_j j |q^_j| + m gamma_3 theta
                  + (2 c u + gamma_3 + gamma_m) sum_j |q^_j|.
    The second-order terms and the rounding of evaluating this sum in
    floating point stay below a relative 2^-21 while m <= 2^30, which the
    memory budget ensures; the returned bound carries a factor 1 + 2^-20
    for them.

    Raises BudgetExceeded when the m terms would exceed the memory budget.
    """
    if not 0.0 <= theta <= 0.5:
        raise ValueError("theta must lie in [0, 1/2]")
    check_budget(_KERNEL_BYTES_PER_TERM * (n + 1), f"audit kernel at n={n}")
    j = np.arange(1, n + 2, dtype=np.float64)
    q = np.sin(np.pi * theta * j) / (np.pi * j)
    a = s - 0.5 * theta
    y = 2.0 * np.pi * a * j
    value = -complex(np.dot(np.cos(y), q), np.dot(np.sin(y), q))
    np.abs(q, out=q)
    bound = (_gamma(4) * 2.0 * np.pi * abs(a) * np.dot(j, q)
             + (n + 1) * _gamma(3) * theta
             + (2 * _C_F * _U + _gamma(3) + _gamma(n + 1)) * q.sum())
    return value, float((1.0 + 2.0**-20) * bound)


def f_inner_quad(s: float, theta: float, n: int) -> tuple[complex, float]:
    """Test oracle: F(s; theta) by adaptive quadrature, with its absolute-error
    estimate (the sum of the real and imaginary parts' estimates). Raises
    BudgetExceeded when one evaluation of the n+1 kernel terms would exceed
    the memory budget."""
    if not 0.0 <= theta <= 0.5:
        raise ValueError("theta must lie in [0, 1/2]")
    check_budget(_QUAD_BYTES_PER_TERM * (n + 1), f"audit kernel at n={n}")
    if theta == 0.0:
        return 0.0 + 0j, 0.0
    j = np.arange(1, n + 2)

    def kernel(t):
        return np.exp(2j * np.pi * (s + t) * j).sum()

    # integration runs from 0 down to -theta; the peak of the summed kernel
    # sits at t = -s, which needs an explicit breakpoint when interior
    pts = [-s] if 0.0 < s < theta else None
    re, re_err = quad(lambda t: kernel(t).real, 0.0, -theta,
                      points=pts, limit=200, epsabs=1e-11, epsrel=1e-11)
    im, im_err = quad(lambda t: kernel(t).imag, 0.0, -theta,
                      points=pts, limit=200, epsabs=1e-11, epsrel=1e-11)
    return complex(re, im), float(re_err + im_err)


def classify_domain(s: float, theta: float, n: int) -> str:
    """Label the subdomain containing (s, theta); ties go to the lower index.

    h = 1/(2n+3) is the kernel-width unit that separates the near-diagonal,
    near-axis, and wraparound regions.
    """
    if not (-0.5 <= s <= 0.5 and 0.0 <= theta <= 0.5):
        raise ValueError("point outside the audited rectangle")
    h = 1.0 / (2 * n + 3)
    if s >= h and theta >= h and s <= theta - h:
        return "D0+"
    if 0.0 <= s <= h and theta <= s + h:
        return "D1+"
    if s >= h and abs(s - theta) <= h:
        return "D2+"
    if 0.0 <= s <= h and theta >= s + h:
        return "D3+"
    if s >= h and s >= theta + h:
        return "D4+"
    if s <= -h and s - theta >= -0.5:
        return "D0-"
    if -h <= s < 0.0 and theta >= h and s - theta >= -0.5:
        return "D1-"
    if -h <= s < 0.0 and theta <= h:
        return "D2-"
    if s <= -h and -1.0 + h <= s - theta <= -0.5:
        return "D3-"
    if -h <= s < 0.0 and s - theta <= -0.5:
        return "D4-"
    if s - theta <= -1.0 + h:
        return "D5-"
    raise AssertionError(f"unclassified point ({s}, {theta}) at n={n}")


def _cconst(n: int) -> float:
    return (0.5 + 1.0 / math.pi) / (4.0 * (2 * n + 3))


def _peak_pair(s: float, theta: float, n: int) -> float:
    # shared small-theta branch: 3/2 |theta/(theta-s)| + |theta/(8(2n+3)s(s-theta))|
    return (1.5 * abs(theta / (theta - s))
            + abs(theta / (8.0 * (2 * n + 3) * s * (s - theta))))


def bound_real(label: str, s: float, theta: float, n: int) -> float:
    """Printed upper bound for |Re F| on the labeled subdomain."""
    c = _cconst(n)
    h = 1.0 / (2 * n + 3)
    t2 = theta / 2.0
    if label == "D0-":
        if theta <= h:
            return _peak_pair(s, theta, n) + t2
        return c * (abs(1.0 / s) + abs(1.0 / (theta - s))) + t2
    if label == "D1-":
        return math.pi / 4.0 + c * (abs(1.0 / (-s + h)) + abs(1.0 / (theta - s))) + t2
    if label == "D2-":
        return (2 * n + 3) * math.pi * theta / 4.0 + t2
    if label == "D3-":
        return c * (2.0 + abs(1.0 / (1.0 + s - theta))) + c * (abs(1.0 / s) + 2.0) + t2
    if label == "D4-":
        return (c * (2.0 + abs(1.0 / (1.0 + s - theta))) + math.pi / 4.0
                + c * (abs(1.0 / (h - s)) + 2.0))
    if label == "D5-":
        return (math.pi / 4.0 + c * (2.0 + abs(1.0 / (1.0 + s - theta + h)))
                + c * (2.0 + abs(1.0 / s)) + t2)
    if label == "D0+":
        return (math.pi / 2.0
                + c * (2.0 * (2 * n + 3) + abs(1.0 / s) + abs(1.0 / (theta - s))) + t2)
    if label == "D1+":
        return math.pi * (2 * n + 3) * theta / 4.0 + t2
    if label == "D2+":
        return (math.pi / 2.0
                + c * (abs(1.0 / s) + abs(1.0 / (s - theta + 2.0 * h))) + t2)
    if label == "D3+":
        return ((2 * n + 3) * math.pi / 4.0 * (s + h)
                + c * ((2 * n + 3) + abs(1.0 / (s - theta))) + t2)
    if label == "D4+":
        if theta <= h:
            return _peak_pair(s, theta, n) + t2
        return c * (abs(1.0 / s) + abs(1.0 / (s - theta))) + t2
    raise ValueError(f"unknown domain {label}")


def bound_imag(label: str, s: float, theta: float, n: int) -> float:
    """Printed upper bound for |Im F| on the labeled subdomain."""
    c = _cconst(n)
    h = 1.0 / (2 * n + 3)
    if label == "D0-":
        logterm = 0.25 * abs(math.log(-s / (theta - s)))
        if theta <= h:
            return _peak_pair(s, theta, n) + logterm
        return c * (abs(1.0 / s) + abs(1.0 / (s - theta))) + logterm
    if label == "D1-":
        return (c * (abs(1.0 / (theta - s)) + abs(1.0 / (1.0 / n - s)))
                + math.pi * (n + 1) / (4.0 * n)
                + abs(math.log((theta - s) / (1.0 / n - s))))
    if label == "D2-":
        return math.pi * (n + 1) * theta / 4.0
    if label == "D3-":
        return (0.25 * (abs(math.log(1.0 / -s)) + abs(math.log(1.0 / (1.0 + s - theta))))
                + 2.0 * math.log(2.0)
                + c * (4.0 + abs(1.0 / s) + abs(1.0 / (1.0 + s - theta))))
    if label == "D4-":
        # the c-term multiplies the log sum here, unlike every other line
        return (math.pi * (n + 1) / (4.0 * n)
                + c * (abs(1.0 / (1.0 + s - theta)) + abs(1.0 / (-s + 1.0 / n)) + 4.0)
                * abs(math.log(0.5 / (1.0 + s - theta)) + math.log(0.5 / (-s + 1.0 / n))))
    if label == "D5-":
        return (math.pi / 2.0
                + 0.25 * abs(math.log(0.5 / -s + 0.5 / (1.0 + s - theta + 1.0 / n)))
                + c * (2.0 + abs(1.0 / (1.0 + s - theta + 1.0 / n)) + abs(1.0 / s)))
    if label == "D0+":
        ratio = s / (theta - s)
        return (c * (abs(1.0 / s) + abs(1.0 / (theta - s)))
                + math.log(max(ratio, 1.0 / ratio)))
    if label == "D1+":
        return math.pi * (n + 1) * theta / 2.0
    if label == "D2+":
        return (math.pi * (n + 1) / (2.0 * n)
                + c * (abs(1.0 / s) + abs(1.0 / (s - theta + 2.0 / n)))
                + 0.25 * abs(math.log(abs(s / (s - theta + 2.0 / n)))))
    if label == "D3+":
        return (c * (abs(1.0 / (theta - s)) + abs(1.0 / (2.0 / n - s)))
                + 0.25 * abs(math.log((theta - s) / (2.0 / n - s)))
                + math.pi * (n + 1) / n)
    if label == "D4+":
        logterm = 0.25 * abs(math.log(s / (s - theta)))
        if theta <= h:
            return (abs(4.0 * math.pi**2 * theta / (8.0 * (s - theta)))
                    + abs(theta / (8.0 * (2 * n + 3) * s * (s - theta))) + logterm)
        return c * (abs(1.0 / s) + abs(1.0 / (s - theta))) + logterm
    raise ValueError(f"unknown domain {label}")


# rejection-sampling boxes (s_lo, s_hi, theta_lo(s), theta_hi(s)) per domain
def _proposal(label: str, n: int, rng) -> tuple[float, float]:
    h = 1.0 / (2 * n + 3)
    for _ in range(10000):
        if label == "D0+":
            s = rng.uniform(h, 0.5 - h)
            th = rng.uniform(s + h, 0.5)
        elif label == "D1+":
            s = rng.uniform(0.0, h)
            th = rng.uniform(0.0, s + h)
        elif label == "D2+":
            s = rng.uniform(h, 0.5)
            th = rng.uniform(max(s - h, 0.0), min(s + h, 0.5))
        elif label == "D3+":
            s = rng.uniform(0.0, h)
            th = rng.uniform(s + h, 0.5)
        elif label == "D4+":
            s = rng.uniform(2 * h, 0.5)
            th = rng.uniform(0.0, s - h)
        elif label == "D0-":
            s = rng.uniform(-0.5, -h)
            th = rng.uniform(0.0, min(0.5, s + 0.5))
        elif label == "D1-":
            s = rng.uniform(-h, 0.0)
            th = rng.uniform(h, s + 0.5)
        elif label == "D2-":
            s = rng.uniform(-h, 0.0)
            th = rng.uniform(0.0, h)
        elif label == "D3-":
            s = rng.uniform(-0.5, -h)
            th = rng.uniform(s + 0.5, min(0.5, s + 1.0 - h))
        elif label == "D4-":
            s = rng.uniform(-h, 0.0)
            th = rng.uniform(s + 0.5, 0.5)
        else:  # D5-
            s = rng.uniform(-0.5, -0.5 + h)
            th = rng.uniform(s + 1.0 - h, 0.5)
        if th < 0.0 or th > 0.5:
            continue
        if classify_domain(s, th, n) == label:
            return s, th
    raise RuntimeError(f"proposal box for {label} failed at n={n}")


# a violation is hard when the measured part exceeds HARD_FACTOR times its
# bound; a violation within the factor is reported but does not fail the audit
HARD_FACTOR = 2.0


def check_master_bounds(n: int, sample_count: int = 110, seed=0) -> dict:
    """Sample every subdomain and compare |Re F| and |Im F| to their bounds.

    The sample count is rounded down to a multiple of the eleven subdomains;
    a count below eleven raises ValueError, and so does one whose report
    rows would exceed the memory budget (BudgetExceeded). A sample is a
    violation when the measured part exceeds the bound by more than the
    rounding bound of f_inner.

    The report: n and samples; violations lists the violating samples, one
    row (domain, s, theta, measured, bound) each, and violation_count counts
    them; hard_violation_count counts those beyond HARD_FACTOR times their
    bound. Margins are (bound - measured)/bound over all samples, so 1 is
    maximal slack and negative numbers are violations: min_margin,
    mean_margin, and per_domain_min per part of a subdomain ("D0+/Re",
    ...). eval_err_max is the largest rounding bound of f_inner.
    """
    if n < 4:
        raise ValueError("need n >= 4")
    if sample_count < len(DOMAINS):
        raise ValueError(f"need at least {len(DOMAINS)} samples, one per subdomain")
    per = sample_count // len(DOMAINS)
    check_budget(_SAMPLE_BYTES * per * len(DOMAINS), f"audit of {sample_count} samples")
    rng = np.random.default_rng(seed)
    # rows (domain, s, theta, measured, bound, rounding bound)
    rows = []
    for label in DOMAINS:
        for _ in range(per):
            s, th = _proposal(label, n, rng)
            val, err = f_inner(s, th, n)
            rows.append((f"{label}/Re", s, th, abs(val.real), bound_real(label, s, th, n), err))
            rows.append((f"{label}/Im", s, th, abs(val.imag), bound_imag(label, s, th, n), err))
    rows.sort(key=lambda r: r[:3])
    keys = ("domain", "s", "theta", "measured", "bound")
    violations = [dict(zip(keys, r)) for r in rows if r[3] > r[4] + r[5]]
    margins, per_domain = [], {}
    for domain, _, _, measured, bound, _ in rows:
        if bound > 0:
            margin = (bound - measured) / bound
            margins.append(margin)
            per_domain[domain] = min(per_domain.get(domain, math.inf), margin)
    return {
        "n": n,
        "samples": len(rows) // 2,
        "violation_count": len(violations),
        "hard_violation_count": sum(v["measured"] > HARD_FACTOR * v["bound"]
                                    for v in violations),
        "min_margin": min(margins),
        "mean_margin": float(np.mean(margins)),
        "per_domain_min": per_domain,
        "eval_err_max": max(r[5] for r in rows),
        "violations": violations,
    }
