"""Closed-form spot checks of the inner-integral envelope bounds.

The object under audit is F(s; theta), the integral over t from 0 to -theta
of sum_{j=1}^{n+1} exp(2 pi i j (s+t)). Eleven subdomains of the
(s, theta) rectangle [-1/2, 1/2] x [0, 1/2] each carry one printed upper
bound for |Re F| and one for |Im F|. check_master_bounds samples every
subdomain, evaluates F in closed form with an a-priori rounding-error bound,
and records any sample where the measured part exceeds its bound by more
than that rounding bound.

Each subdomain is one row of the table _DOMAINS: its sampling box and its
two printed bounds. The box draws s from an interval, then theta from an
interval over that s; it covers the whole subdomain, and _proposal keeps a
draw once it lies in the rectangle and classify_domain, the one definition
of the partition and of its tie-breaking, gives it the row's label.

Each bound is transcribed term by term with absolute values around the
individual summands: a few printed distance factors change sign on their
own subdomain (the small-theta branches reuse an expression derived for
s < 0 on s > 0, where theta - s flips sign), and several log ratios pass
through 1. Wrapping the terms keeps every formula positive on its domain
without altering its magnitude where the printed form is already positive.

The D4- bound on |Im F| is kept as transcribed, and fails at large n. At
s -> 0-, theta = 1/2, f_inner's a is -1/4 and e^{2 pi i j a} sin(pi j/2) is
-i for odd j, 0 for even j: Im F = (1/pi) sum_{odd j <= n+1} 1/j, which
grows like ln(n)/(2 pi). Unlike every other line, D4- multiplies its log
sum (about ln n) by the c-term, whose 1/(-s + 1/n) ~ n/(1 + n|s|) makes its
log coefficient (1/2 + 1/pi)/(8(1 + n|s|)) <= 0.102 < 1/(2 pi). From n ~
2500 it fails: 7 soft D4-/Im violations at n = 4096 (110 samples, seed 0).

The D2- bound on |Im F|, pi(n+1)theta/4, is also kept as transcribed, and
fails at the smallest n. On a 200 x 200 grid of D2- (-h <= s < 0,
0 < theta <= h) the ratio |Im F|/bound peaks near s = -0.74h at small
theta: 1.009 at n = 4, where 944 of the 40000 points exceed the bound, and
0.995 at n = 5 (0.972 at n = 8, 0.930 at n = 64). So an audit at n = 4 can
report soft D2-/Im violations: one in 110 samples at seed 3, six in 2200
at seed 0.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from . import trigpoly as tp
from .budget import check_budget

# peak bytes per term of one closed-form evaluation: the index, the sine
# quotients and the phase with its cosine or sine (32.3 measured with getrusage
# at n = 2e6, 32.1 at n = 8e6)
_KERNEL_BYTES_PER_TERM = 33

# bytes per audited sample: its two report rows, and the drawn sample and its
# value, held until the rows are built (843-845 measured with getrusage over
# 110000 and 220000 samples at n = 4; budgeted at 1100, which keeps the
# documented cap of about 900000 samples)
_SAMPLE_BYTES = 1100

# assumed accuracy of np.sin and np.cos: within 2 ulps of the exact value, so
# a relative error of at most 4U
_C_F = 4

# terms per f_inner call in an audit: a block holds max(1, _BLOCK_TERMS //
# (n+1)) samples, enough to share numpy's per-call cost among many samples at
# small n, few enough that a block's three arrays of terms (256 KB each) stay
# in a 2 MB L2 cache. Of 2^13..2^16, 2^15 gave the fastest audit, or one
# within 1% of it, at every n from 1024 to 16384 (one thread)
_BLOCK_TERMS = 2**15


def f_inner(s: float | np.ndarray, theta: float | np.ndarray,
            n: int) -> tuple[np.ndarray, np.ndarray]:
    """F(s; theta) in closed form, with an a-priori bound on its rounding error.

    s and theta are floats or arrays of one shape, one sample (s, theta) per
    entry; the value (complex) and the bound (float) come back in that
    shape, 0-d for float input.

    Each term of the integrand integrates exactly:
    F = -sum_{j=1}^{m} e^{2 pi i j a} sin(pi j theta)/(pi j), with a = s - theta/2
    and m = n + 1. The sine form has no cancellation as theta -> 0.

    Rounding bound, in the floating-point model of trigpoly.U and
    trigpoly.gamma. Assume np.sin and np.cos are within 2 ulps, i.e. a
    relative error of at most c U with c = 4, and that nothing underflows
    (theta and |a| are 0 or above 2^-1000).
    With y_j = 2 pi j a, z_j = pi j theta and q_j = sin(z_j)/(pi j), the
    code forms
      - y^_j = fl(fl(2 pi^ a^) j) from a^ = fl(s - theta/2) and pi^ = fl(pi):
        four roundings, so |y^_j - y_j| <= gamma_4 |y_j|; cos and sin are
        1-Lipschitz, so e^_j = cos y^_j + i sin y^_j has
        |e^_j - e_j| <= gamma_4 2 pi j |a| + c U;
      - z^_j = fl(fl(pi^ theta) j): |z^_j - z_j| <= gamma_3 z_j;
      - q^_j = fl(fl(sin z^_j) / fl(pi^ j)): the sine adds c U, the quotient
        three more roundings, so |q^_j - q_j| <= gamma_3 theta
        + (c U + gamma_3)|q^_j| to first order;
      - the two dot products of cos y^ and sin y^ with q^, in any order:
        an error of gamma_m sum_j |e^_j q^_j| in modulus (each part is
        within gamma_m of its own absolute sum, and the two absolute sums
        form a vector of length at most sum_j |e^_j q^_j|).
    Summing |e^_j - e_j||q^_j| + |q^_j - q_j| + the dot-product error gives
      |F^ - F| <= gamma_4 2 pi |a| sum_j j |q^_j| + m gamma_3 theta
                  + (2 c U + gamma_3 + gamma_m) sum_j |q^_j|.
    The second-order terms and the rounding of evaluating this sum in
    floating point stay below a relative 2^-21 while m <= 2^30, which the
    memory budget ensures; the returned bound carries a factor 1 + 2^-20
    for them.

    Many samples are evaluated as the rows of one array: the sines, cosines
    and quotients are formed once for all rows, elementwise, and each row's
    three sums (Re, Im and sum_j j |q^_j|) are separate np.dot calls, so a
    sample rounds exactly as it does alone, and the derivation holds row by
    row.

    Raises ValueError when s and theta differ in shape or a theta lies
    outside [0, 1/2], and BudgetExceeded when the terms of all samples would
    exceed the memory budget.
    """
    s, theta = np.asarray(s, dtype=np.float64), np.asarray(theta, dtype=np.float64)
    if s.shape != theta.shape:
        raise ValueError("s and theta must have one shape")
    if not ((theta >= 0.0) & (theta <= 0.5)).all():
        raise ValueError("theta must lie in [0, 1/2]")
    check_budget(_KERNEL_BYTES_PER_TERM * theta.size * (n + 1), f"audit kernel at n={n}")
    shape = theta.shape
    a = (s - 0.5 * theta).reshape(-1, 1)
    theta = theta.reshape(-1, 1)
    j = np.arange(1, n + 2, dtype=np.float64)
    q = np.pi * theta * j
    np.sin(q, out=q)
    q /= np.pi * j
    y = 2.0 * np.pi * a * j
    cos_y = np.cos(y)
    sin_y = np.sin(y, out=y)
    # -F's real and imaginary parts, then sum_j j |q^_j|, one np.dot per row
    re, im, jq = np.empty((3, len(q)))
    for i, q_row in enumerate(q):
        re[i] = np.dot(cos_y[i], q_row)
        im[i] = np.dot(sin_y[i], q_row)
    np.abs(q, out=q)
    for i, q_row in enumerate(q):
        jq[i] = np.dot(j, q_row)
    bound = (tp.gamma(4) * 2.0 * np.pi * np.abs(a[:, 0]) * jq
             + (n + 1) * tp.gamma(3) * theta[:, 0]
             + (2 * _C_F * tp.U + tp.gamma(3) + tp.gamma(n + 1)) * q.sum(axis=1))
    value = np.empty(len(q), dtype=np.complex128)
    value.real, value.imag = -re, -im
    return value.reshape(shape), ((1.0 + 2.0**-20) * bound).reshape(shape)


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


# one row per subdomain, in the order of classify_domain's tests:
# draw(rng, h) draws (s, theta) from the box, one rng.uniform call for each;
# real(s, theta, n, h, c) and imag(s, theta, n, h, c) are the printed bounds
# for |Re F| and |Im F|, with h = 1/(2n+3) and c = _cconst(n)
_Domain = namedtuple("_Domain", "draw real imag")

_DOMAINS = {
    "D0+": _Domain(
        lambda rng, h: (s := rng.uniform(h, 0.5 - h), rng.uniform(s + h, 0.5)),
        lambda s, theta, n, h, c: (math.pi / 2.0 + c * (2.0 * (2 * n + 3) + abs(1.0 / s)
                                                        + abs(1.0 / (theta - s))) + theta / 2.0),
        lambda s, theta, n, h, c: (c * (abs(1.0 / s) + abs(1.0 / (theta - s)))
                                   + math.log(max(r := s / (theta - s), 1.0 / r)))),
    "D1+": _Domain(
        lambda rng, h: (s := rng.uniform(0.0, h), rng.uniform(0.0, s + h)),
        lambda s, theta, n, h, c: math.pi * (2 * n + 3) * theta / 4.0 + theta / 2.0,
        lambda s, theta, n, h, c: math.pi * (n + 1) * theta / 2.0),
    "D2+": _Domain(
        lambda rng, h: (s := rng.uniform(h, 0.5), rng.uniform(max(s - h, 0.0), min(s + h, 0.5))),
        lambda s, theta, n, h, c: (math.pi / 2.0
                                   + c * (abs(1.0 / s) + abs(1.0 / (s - theta + 2.0 * h)))
                                   + theta / 2.0),
        lambda s, theta, n, h, c: (math.pi * (n + 1) / (2.0 * n)
                                   + c * (abs(1.0 / s) + abs(1.0 / (s - theta + 2.0 / n)))
                                   + 0.25 * abs(math.log(abs(s / (s - theta + 2.0 / n)))))),
    "D3+": _Domain(
        lambda rng, h: (s := rng.uniform(0.0, h), rng.uniform(s + h, 0.5)),
        lambda s, theta, n, h, c: ((2 * n + 3) * math.pi / 4.0 * (s + h)
                                   + c * ((2 * n + 3) + abs(1.0 / (s - theta))) + theta / 2.0),
        lambda s, theta, n, h, c: (c * (abs(1.0 / (theta - s)) + abs(1.0 / (2.0 / n - s)))
                                   + 0.25 * abs(math.log((theta - s) / (2.0 / n - s)))
                                   + math.pi * (n + 1) / n)),
    "D4+": _Domain(
        lambda rng, h: (s := rng.uniform(h, 0.5), rng.uniform(0.0, s - h)),
        lambda s, theta, n, h, c: ((_peak_pair(s, theta, n) if theta <= h
                                    else c * (abs(1.0 / s) + abs(1.0 / (s - theta))))
                                   + theta / 2.0),
        lambda s, theta, n, h, c: ((abs(4.0 * math.pi**2 * theta / (8.0 * (s - theta)))
                                    + abs(theta / (8.0 * (2 * n + 3) * s * (s - theta)))
                                    if theta <= h else c * (abs(1.0 / s) + abs(1.0 / (s - theta))))
                                   + 0.25 * abs(math.log(s / (s - theta))))),
    "D0-": _Domain(
        lambda rng, h: (s := rng.uniform(-0.5, -h), rng.uniform(0.0, min(0.5, s + 0.5))),
        lambda s, theta, n, h, c: ((_peak_pair(s, theta, n) if theta <= h
                                    else c * (abs(1.0 / s) + abs(1.0 / (theta - s))))
                                   + theta / 2.0),
        lambda s, theta, n, h, c: ((_peak_pair(s, theta, n) if theta <= h
                                    else c * (abs(1.0 / s) + abs(1.0 / (s - theta))))
                                   + 0.25 * abs(math.log(-s / (theta - s))))),
    "D1-": _Domain(
        lambda rng, h: (s := rng.uniform(-h, 0.0), rng.uniform(h, s + 0.5)),
        lambda s, theta, n, h, c: (math.pi / 4.0
                                   + c * (abs(1.0 / (-s + h)) + abs(1.0 / (theta - s)))
                                   + theta / 2.0),
        lambda s, theta, n, h, c: (c * (abs(1.0 / (theta - s)) + abs(1.0 / (1.0 / n - s)))
                                   + math.pi * (n + 1) / (4.0 * n)
                                   + abs(math.log((theta - s) / (1.0 / n - s))))),
    "D2-": _Domain(
        lambda rng, h: (rng.uniform(-h, 0.0), rng.uniform(0.0, h)),
        lambda s, theta, n, h, c: (2 * n + 3) * math.pi * theta / 4.0 + theta / 2.0,
        lambda s, theta, n, h, c: math.pi * (n + 1) * theta / 4.0),
    "D3-": _Domain(
        lambda rng, h: (s := rng.uniform(-0.5, -h), rng.uniform(s + 0.5, min(0.5, s + 1.0 - h))),
        lambda s, theta, n, h, c: (c * (2.0 + abs(1.0 / (1.0 + s - theta)))
                                   + c * (abs(1.0 / s) + 2.0) + theta / 2.0),
        lambda s, theta, n, h, c: (0.25 * (abs(math.log(1.0 / -s))
                                           + abs(math.log(1.0 / (1.0 + s - theta))))
                                   + 2.0 * math.log(2.0)
                                   + c * (4.0 + abs(1.0 / s) + abs(1.0 / (1.0 + s - theta))))),
    "D4-": _Domain(
        lambda rng, h: (s := rng.uniform(-h, 0.0), rng.uniform(s + 0.5, 0.5)),
        lambda s, theta, n, h, c: (c * (2.0 + abs(1.0 / (1.0 + s - theta))) + math.pi / 4.0
                                   + c * (abs(1.0 / (h - s)) + 2.0)),
        lambda s, theta, n, h, c: (math.pi * (n + 1) / (4.0 * n)
                                   + c * (abs(1.0 / (1.0 + s - theta)) + abs(1.0 / (-s + 1.0 / n))
                                          + 4.0)
                                   * abs(math.log(0.5 / (1.0 + s - theta))
                                         + math.log(0.5 / (-s + 1.0 / n))))),
    "D5-": _Domain(
        lambda rng, h: (s := rng.uniform(-0.5, -0.5 + h), rng.uniform(s + 1.0 - h, 0.5)),
        lambda s, theta, n, h, c: (math.pi / 4.0 + c * (2.0 + abs(1.0 / (1.0 + s - theta + h)))
                                   + c * (2.0 + abs(1.0 / s)) + theta / 2.0),
        lambda s, theta, n, h, c: (math.pi / 2.0
                                   + 0.25 * abs(math.log(0.5 / -s
                                                         + 0.5 / (1.0 + s - theta + 1.0 / n)))
                                   + c * (2.0 + abs(1.0 / (1.0 + s - theta + 1.0 / n))
                                          + abs(1.0 / s)))),
}

DOMAINS = tuple(_DOMAINS)


def _domain(label: str) -> _Domain:
    if label not in _DOMAINS:
        raise ValueError(f"unknown domain {label}")
    return _DOMAINS[label]


def bound_real(label: str, s: float, theta: float, n: int) -> float:
    """Printed upper bound for |Re F| on the labeled subdomain."""
    return _domain(label).real(s, theta, n, 1.0 / (2 * n + 3), _cconst(n))


def bound_imag(label: str, s: float, theta: float, n: int) -> float:
    """Printed upper bound for |Im F| on the labeled subdomain."""
    return _domain(label).imag(s, theta, n, 1.0 / (2 * n + 3), _cconst(n))


def _proposal(label: str, n: int, rng) -> tuple[float, float]:
    h = 1.0 / (2 * n + 3)
    draw = _DOMAINS[label].draw
    for _ in range(10000):
        s, th = draw(rng, h)
        if 0.0 <= th <= 0.5 and classify_domain(s, th, n) == label:
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

    All samples are drawn first, subdomain by subdomain, and then evaluated
    by f_inner in blocks of max(1, _BLOCK_TERMS // (n+1)) samples, one call
    per block. f_inner rounds each sample as it would alone, so the report
    does not depend on the block size.

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
    block = max(1, _BLOCK_TERMS // (n + 1))
    # f_inner checks each block too; checked here, a block too large for
    # the budget is refused before any sample is drawn
    check_budget(_KERNEL_BYTES_PER_TERM * block * (n + 1), f"audit kernel at n={n}")
    rng = np.random.default_rng(seed)
    labels = [label for label in DOMAINS for _ in range(per)]
    samples = [_proposal(label, n, rng) for label in labels]
    s, theta = np.array(samples).T
    values, errs = (np.concatenate(part) for part in zip(*(
        f_inner(s[i:i + block], theta[i:i + block], n) for i in range(0, len(samples), block))))
    # rows (domain, s, theta, measured, bound, rounding bound)
    rows = []
    for label, (si, th), re, im, err in zip(labels, samples, np.abs(values.real).tolist(),
                                            np.abs(values.imag).tolist(), errs.tolist()):
        rows.append((f"{label}/Re", si, th, re, bound_real(label, si, th, n), err))
        rows.append((f"{label}/Im", si, th, im, bound_imag(label, si, th, n), err))
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


def __getattr__(name: str):
    # perfbench's span recorder reads bound_audit.quad to wrap it; resolving
    # it on demand keeps scipy out of the audit. Goes when ROADMAP item 1a
    # drops the recorder's wrap.
    if name == "quad":
        from scipy.integrate import quad
        return quad
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
