"""Acceptance gate: ten end-to-end criteria at fixed tolerances.

Each criterion is one test, run in order; pytest -v gives the pass/fail
line per criterion, and the prints (visible with -s, or -rA) carry the
measured margins. Criterion 4 reports sub-threshold eigenvalues instead
of failing, and criterion 9 reports violations that stay within twice
the bound; everything else asserts at the stated tolerance.
"""

import cmath
import math
import time
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from supres import qk_operator as qk
from supres.bound_audit import check_master_bounds
from supres.certificate import AtomicMeasure, solve_certificate, verify_bounded
from supres.constants import (_budget_bounds, c1_bound, eta_star, k_bound_value,
                              truncation_budget)
from supres.gram import _projector_factor, assemble_and_verify, p_err
from supres.spectrum import dense_extremes, spectrum_report

from oracles import dirichlet_limit, eval_eta, lambda_min_AAtilde, norm_W, qk_finite_n

_BATCH = []


def random_measure(rng, n, size, min_sep):
    while True:
        atoms = np.sort(rng.uniform(0.0, 1.0, size=size))
        gaps = np.diff(np.concatenate([atoms, [atoms[0] + 1.0]]))
        if size == 1 or np.min(gaps) >= min_sep:
            break
    phases = rng.uniform(0.0, 2.0 * np.pi, size=size)
    return AtomicMeasure(n, atoms, np.exp(1j * phases))


def _line(num, msg):
    print(f"criterion {num}: PASS - {msg}")


def test_criterion_01_certificate_interpolation():
    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    worst_interp = worst_ratio = 0.0
    for _ in range(25):
        size = int(rng.integers(1, 5))
        n = int(rng.integers(64, 513))
        m = random_measure(rng, n, size, 4.0 * np.log(size + 1.0) / n)
        c = solve_certificate(m)
        _BATCH.append(c)
        eta, deta = eval_eta(c, m.atoms)
        interp = float(np.max(np.abs(eta - m.signs)))
        deriv = float(np.max(np.abs(deta)))
        assert interp <= 1e-9
        assert deriv <= 1e-7 * n * n
        worst_interp = max(worst_interp, interp)
        worst_ratio = max(worst_ratio, deriv / (1e-7 * n * n))
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _line(1, f"25 instances, worst interp {worst_interp:.2e}, "
             f"worst deriv ratio {worst_ratio:.2e}, {elapsed:.2f}s")


def test_criterion_02_boundedness():
    assert len(_BATCH) == 25
    worst = 0.0
    for c in _BATCH:
        vb = verify_bounded(c, grid_mult=10)
        assert vb["certified"], (c.n, c.measure.atoms.tolist())
        worst = max(worst, vb["sup_off_atom"])
    _line(2, f"all 25 certificates bounded, worst off-atom sup {worst:.4f}")


def test_criterion_03_gram_identity():
    t0 = time.perf_counter()
    m = AtomicMeasure(128, np.array([0.1, 0.5]), np.array([1.0 + 0j, -1.0 + 0j]))
    res = assemble_and_verify(solve_certificate(m))
    assert res["sup_poly_err"] <= 1e-8
    assert res["min_eig"] >= -1e-9

    m2 = AtomicMeasure(256, np.array([0.1, 0.5]), np.array([1.0 + 0j, -1.0 + 0j]))
    w = norm_W(p_err(solve_certificate(m2), _projector_factor(m2)))
    assert w <= 1.0 / 256.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _line(3, f"sup defect {res['sup_poly_err']:.2e}, min eig {res['min_eig']:.2e}, "
             f"W-norm {w:.2e} <= 1/256, {elapsed:.2f}s")


def test_criterion_04_lambda_min_reported():
    rng = np.random.default_rng(1)
    vals, low = [], []
    for _ in range(10):
        size = int(rng.integers(1, 3))
        m = random_measure(rng, 64, size, 0.25)
        lam = lambda_min_AAtilde(m)
        assert math.isfinite(lam) and lam > 0
        vals.append(lam)
        if lam < 0.1:
            low.append((m.atoms.tolist(), lam))
    for atoms, lam in low:
        print(f"criterion 4: reported lambda_min {lam:.4f} < 0.1 at atoms {atoms}")
    _line(4, f"10 instances, lambda_min in [{min(vals):.3f}, {max(vals):.3f}], "
             f"{len(low)} below 0.1 (reported, not fatal)")


def _entry_by_quadrature(l1, l2):
    """Deviation-operator entry from the defining double integral.

    Independent of the closed-form route: the inner integral over t is done
    exactly, the outer one by adaptive quadrature on real and imaginary
    parts.
    """
    def inner(x):
        a, b = (0.0, 1.0 - x) if x >= 0 else (-x, 1.0)
        if l1 == 0:
            return b - a
        return (cmath.exp(-1j * math.pi * l1 * a)
                - cmath.exp(-1j * math.pi * l1 * b)) / (1j * math.pi * l1)

    def fx(x):
        return cmath.exp(-1j * math.pi * l2 * x) / (1.0 - abs(x)) * inner(x)

    s1 = 0.0 + 0.0j
    for lo, hi in ((-1.0, 0.0), (0.0, 1.0)):
        re = quad(lambda x: fx(x).real, lo, hi,
                  epsabs=1e-11, epsrel=1e-11, limit=200)[0]
        im = quad(lambda x: fx(x).imag, lo, hi,
                  epsabs=1e-11, epsrel=1e-11, limit=200)[0]
        s1 += 0.5 * (re + 1j * im)

    d = dirichlet_limit(l1)
    val = 2.0 * (d * s1).real
    if l2 == 0:
        val -= abs(d) ** 2
    return val


def test_criterion_05_operator_routes_agree():
    dense30 = qk.qk_dense(30)
    rng = np.random.default_rng(3)
    worst_entry = 0.0
    for _ in range(50):
        l1 = int(rng.integers(-30, 31))
        l2 = int(rng.integers(-30, 31))
        gap = abs(_entry_by_quadrature(l1, l2) - dense30[l1 + 30, l2 + 30])
        worst_entry = max(worst_entry, gap)
    assert worst_entry <= 1e-8

    K = 200
    dense = qk.qk_dense(K)
    op = qk.build_operator(K)
    x = rng.standard_normal(2 * K + 1) + 1j * rng.standard_normal(2 * K + 1)
    ref = x - dense @ x + op.pinf.apply(x)
    gap_mv = float(np.max(np.abs(qk.matvec(op, x) - ref)))
    assert gap_mv <= 1e-11

    dense20 = qk.qk_dense(20)
    gaps = [float(np.max(np.abs(qk_finite_n(20, n) - dense20)))
            for n in (500, 1000, 2000)]
    assert gaps[0] > gaps[1] > gaps[2]
    _line(5, f"quadrature gap {worst_entry:.2e}, matvec gap {gap_mv:.2e}, "
             f"finite-n gaps {gaps[0]:.2e} > {gaps[1]:.2e} > {gaps[2]:.2e}")


def test_criterion_06_spectrum():
    t0 = time.perf_counter()
    rep40 = spectrum_report(40)
    assert 0.50 <= rep40["sigma_min"] <= 0.75
    assert 1.30 <= rep40["sigma_max"] <= 1.42

    mins = []
    for K in (40, 100, 200, 400):
        rep = spectrum_report(K) if K != 40 else rep40
        lo, hi = dense_extremes(K)
        assert abs(rep["sigma_min"] - lo) <= rep["residual_min"] + 1e-12
        assert abs(rep["sigma_max"] - hi) <= rep["residual_max"] + 1e-12
        if K != 40:
            assert rep["condition_holds"] and rep["sigma_min"] > 0.5
            mins.append(rep["sigma_min"])
    spread = (max(mins) - min(mins)) / min(mins)
    assert spread <= 0.05
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _line(6, f"sigma_min(40) {rep40['sigma_min']:.4f}, sigma_max(40) "
             f"{rep40['sigma_max']:.4f}, spread over K in (100,200,400) "
             f"{spread:.2e}, {elapsed:.1f}s")


def test_criterion_07_constants():
    t0 = time.perf_counter()
    small, large = c1_bound()
    assert small == pytest.approx(0.1354, abs=1e-3)
    assert large == pytest.approx(2496.7, abs=1.0)
    es = eta_star(2500.0)
    assert es == pytest.approx(0.0112, abs=5e-4)
    fk = k_bound_value(2e13)
    assert fk == pytest.approx(0.00807, rel=0.10)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _line(7, f"roots ({small:.4f}, {large:.1f}), eta* {es:.6f}, "
             f"f(2e13) {fk:.5f}, {elapsed:.3f}s")


def test_criterion_08_truncation_budgets():
    budget = truncation_budget(1e13)
    assert budget["feasible"]
    bounds = _budget_bounds(1e13)
    printed = {"B1": 1e6, "B2": 1e6, "B3": 1e7, "B4": 1e7,
               "B5": 7.54e10, "B6": 1.46e10}
    for name, k1_printed in printed.items():
        b = budget["bounds"][name]
        assert bounds[name](k1_printed) <= b["threshold"]
        assert b["K1"] <= 2.0 * k1_printed
    for name in ("B5", "B6"):
        assert budget["bounds"][name]["K1"] >= printed[name]
    found = {k: budget["bounds"][k]["K1"] for k in printed}
    _line(8, "printed splits satisfy every tail bound; doubling search gives "
             + ", ".join(f"{k}=2^{int(v).bit_length() - 1}" for k, v in found.items()))


def test_criterion_09_bound_audit():
    t0 = time.perf_counter()
    total, hard, soft = 0, [], []
    for n in (8, 16, 32):
        rep = check_master_bounds(n, sample_count=176, seed=0)
        total += rep["samples"]
        for v in rep["violations"]:
            (hard if v["measured"] > 2.0 * v["bound"] else soft).append((n, v))
    assert total >= 500
    for n, v in soft:
        print(f"criterion 9: within-2x violation at n={n}: {v['domain']} "
              f"s={v['s']:.6f} theta={v['theta']:.6f}")
    assert not hard
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _line(9, f"{total} samples over 11 subdomains at n in (8,16,32), "
             f"{len(soft)} within-2x reports, 0 beyond 2x, {elapsed:.1f}s")


def test_criterion_10_scale():
    K = 2 ** 20
    tracemalloc.start()
    try:
        op = qk.build_operator(K)
        rng = np.random.default_rng(0)
        x = rng.standard_normal(2 * K + 1) + 1j * rng.standard_normal(2 * K + 1)
        y = qk.matvec(op, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    t0 = time.perf_counter()
    y2 = qk.matvec(op, x)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    assert np.array_equal(y, y2)
    allowed = 10 * (4 * K + 1) * 16 + 8 * (2 * K + 1) * 16
    assert peak <= allowed
    _line(10, f"matvec at K=2^20 in {elapsed:.2f}s, peak memory "
              f"{peak / 1e6:.0f}MB within {allowed / 1e6:.0f}MB allowance")
