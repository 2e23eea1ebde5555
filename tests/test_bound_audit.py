import itertools
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import quad

from supres import bound_audit as ba
from supres import cli
from supres.budget import BudgetExceeded

from oracles import f_inner_quad


def closed_form(s, theta, n):
    # antiderivative of each geometric term, summed
    j = np.arange(1, n + 2)
    return np.sum(
        np.exp(2j * np.pi * j * s) * (np.exp(-2j * np.pi * j * theta) - 1.0)
        / (2j * np.pi * j)
    )


class TestFInner:
    def test_zero_width(self):
        assert ba.f_inner(0.2, 0.0, 10) == (0.0, 0.0)

    def test_frozen_value(self):
        v, _ = ba.f_inner(0.3, 0.1, 10)
        assert v.real == pytest.approx(0.044934138663, abs=1e-9)
        assert v.imag == pytest.approx(-0.059268817679, abs=1e-9)

    def test_rounding_bound_frozen(self):
        # exact floats, so that a change to the model U, gamma moves them
        got = [ba.f_inner(s, theta, n)[1]
               for s, theta, n in ((0.1, 0.25, 16), (-0.3, 0.01, 1000), (0.0, 0.5, 4096))]
        assert got == [3.930748593750282e-15, 2.93513288377637e-13, 1.833270782468255e-12]

    def test_against_closed_form(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            s = rng.uniform(-0.5, 0.5)
            theta = rng.uniform(0.0, 0.5)
            n = int(rng.integers(4, 40))
            v, err = ba.f_inner(s, theta, n)
            ref, ref_err = f_inner_quad(s, theta, n)
            assert abs(v - ref) <= ref_err + err
            assert abs(v - closed_form(s, theta, n)) <= 1e-12

    def test_rounding_bound_against_long_double(self):
        # the same sum in extended precision: its own error is some 2^-11 of
        # the double-precision bound
        pi = np.arctan(np.longdouble(1)) * 4
        rng = np.random.default_rng(4)
        for n in (16, 64, 1024):
            j = np.arange(1, n + 2, dtype=np.longdouble)
            for label in ba.DOMAINS:
                for _ in range(4):
                    s, th = ba._proposal(label, n, rng)
                    v, bound = ba.f_inner(s, th, n)
                    sl, tl = np.longdouble(s), np.longdouble(th)
                    q = np.sin(pi * tl * j) / (pi * j)
                    y = 2 * pi * (sl - tl / 2) * j
                    re = np.longdouble(v.real) + (np.cos(y) * q).sum()
                    im = np.longdouble(v.imag) + (np.sin(y) * q).sum()
                    assert 0.0 < bound < 1e-11
                    assert float(np.hypot(re, im)) <= bound, (n, label, s, th)

    def test_error_estimate_small(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            s = rng.uniform(-0.5, 0.5)
            theta = rng.uniform(0.01, 0.5)
            _, err = ba.f_inner(s, theta, 16)
            assert err <= 1e-9

    def test_real_part_kernel_form(self):
        # Re F also equals the integral of the ratio-of-sines kernel
        s, theta, n = 0.27, 0.18, 12

        def g(t):
            x = s + t
            return (np.sin((2 * n + 3) * np.pi * x) - np.sin(np.pi * x)) / (
                2.0 * np.sin(np.pi * x)
            )

        ref, ref_err = quad(g, 0.0, -theta, limit=200)
        assert ba.f_inner(s, theta, n)[0].real == pytest.approx(
            ref, abs=max(1e-9, 10 * ref_err)
        )

    def test_riemann_sum_agreement(self):
        n, s, theta = 10, 0.3, 0.1
        m = 200000
        tm = -theta + (np.arange(m) + 0.5) * (theta / m)
        j = np.arange(1, n + 2)
        vals = np.exp(2j * np.pi * np.outer(s + tm, j)).sum(axis=1)
        riemann = -vals.sum() * (theta / m)
        assert abs(ba.f_inner(s, theta, n)[0] - riemann) < 1e-6

    def test_rejects_bad_theta(self):
        with pytest.raises(ValueError):
            ba.f_inner(0.1, 0.6, 8)

    def test_over_memory_budget_refused_before_allocating(self):
        import tracemalloc

        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded, match="GB"):
                ba.f_inner(0.1, 0.2, 10**8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @pytest.mark.parametrize("n", [4, 16, 64, 4096, ba._BLOCK_TERMS + 5])
    def test_rows_round_as_one_row_calls(self, n):
        # many samples in one call give, bit for bit, what each gives alone,
        # theta = 0 rows included; above _BLOCK_TERMS an audit's block is one
        # row, and a call on several rows still rounds row by row
        rng = np.random.default_rng(n)
        per = 2 if n <= 4096 else 1
        samples = [ba._proposal(label, n, rng) for label in ba.DOMAINS for _ in range(per)]
        samples += [(0.2, 0.0), (-0.4, 0.0)]
        s, theta = np.array(samples).T
        values, bounds = ba.f_inner(s, theta, n)
        assert values.shape == bounds.shape == s.shape
        for i, (si, th) in enumerate(samples):
            value, bound = ba.f_inner(si, th, n)
            assert values[i] == value and bounds[i] == bound, (n, si, th)
        assert (values[-2:] == 0.0).all() and (bounds[-2:] == 0.0).all()

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError, match="one shape"):
            ba.f_inner(np.zeros(3), np.zeros(2), 8)

    def test_quadrature_oracle_zero_width(self):
        assert f_inner_quad(0.2, 0.0, 10) == (0.0, 0.0)


def test_tracer_name_resolves_to_scipy_quad():
    # perfbench's span recorder wraps bound_audit.quad; the name resolves
    # on demand, so importing the audit alone loads no scipy.integrate
    assert ba.quad is quad
    assert "quad" not in vars(ba)
    src = os.path.dirname(os.path.dirname(ba.__file__))
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys; sys.path.insert(0, {src!r}); import supres.bound_audit; "
         "print('scipy.integrate' in sys.modules)"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


class TestClassify:
    def test_known_points(self):
        assert ba.classify_domain(0.3, 0.3, 10) == "D2+"
        assert ba.classify_domain(-0.4, 0.05, 10) == "D0-"
        assert ba.classify_domain(0.1, 0.4, 10) == "D0+"

    def test_total_on_random_points(self):
        rng = np.random.default_rng(1)
        for n in (8, 16, 32):
            pts = rng.uniform([-0.5, 0.0], [0.5, 0.5], size=(3400, 2))
            for s, t in pts:
                assert ba.classify_domain(s, t, n) in ba.DOMAINS

    def test_boundary_goes_to_lower_index(self):
        n = 10
        h = 1.0 / (2 * n + 3)
        # on the line s = theta - h both D0+ and D2+ predicates hold
        assert ba.classify_domain(0.2, 0.2 + h, n) == "D0+"
        # s exactly h with small theta satisfies D1+ before D2+
        assert ba.classify_domain(h, h / 2, n) == "D1+"

    def test_rejects_outside_rectangle(self):
        with pytest.raises(ValueError):
            ba.classify_domain(0.7, 0.1, 8)


class ScriptedRng:
    """Stands in for the generator _proposal draws from: uniform(lo, hi)
    records its bounds and returns the next of the scripted values, which
    repeat."""

    def __init__(self, values):
        self.values = itertools.cycle(values)
        self.bounds = []

    def uniform(self, lo, hi):
        self.bounds.append((lo, hi))
        return next(self.values)


class TestProposal:
    @pytest.mark.parametrize("n", [4, 16, 64, 1024])
    def test_each_box_covers_its_subdomain(self, n):
        # every point of the rectangle lies in the s-box of its subdomain and
        # in the theta-box over its s; the bands near s = 0 (the corner band
        # holds D4+'s strip h <= s < 2h next to D1+) and s = -1/2, 1/2 hold
        # the narrow subdomains
        rng = np.random.default_rng(n)
        h = 1.0 / (2 * n + 3)
        points = np.vstack([rng.uniform(lo, hi, size=(1000, 2)) for lo, hi in (
            ([-0.5, 0.0], [0.5, 0.5]),
            ([-3 * h, 0.0], [3 * h, 0.5]),
            ([-3 * h, 0.0], [3 * h, 3 * h]),
            ([-0.5, 0.0], [-0.5 + 3 * h, 0.5]),
            ([0.5 - 3 * h, 0.0], [0.5, 0.5]))])
        for s, theta in points:
            label = ba.classify_domain(s, theta, n)
            scripted = ScriptedRng([s, theta])
            assert ba._proposal(label, n, scripted) == (s, theta)
            (s_lo, s_hi), (theta_lo, theta_hi) = scripted.bounds
            assert s_lo <= s <= s_hi and theta_lo <= theta <= theta_hi, (
                label, s, theta, scripted.bounds)

    @pytest.mark.parametrize("label", ba.DOMAINS)
    def test_gives_up_naming_its_label(self, label):
        # a draw always in another subdomain, or always above theta = 1/2,
        # is rejected until the proposal gives up
        other = (-0.4, 0.05) if label == "D2+" else (0.3, 0.3)
        for script in (other, (0.1, 0.6)):
            scripted = ScriptedRng(script)
            with pytest.raises(RuntimeError, match=f"box for {re.escape(label)} failed at n=8"):
                ba._proposal(label, 8, scripted)
            assert len(scripted.bounds) == 2 * 10000

    @pytest.mark.parametrize("n", [4, 16, 64, 1024])
    def test_d4_plus_bounds_hold_next_to_d1_plus(self, n):
        # the strip h <= s < 2h, theta <= s - h of D4+, audited since its box
        # draws s from [h, 1/2]
        rng = np.random.default_rng(n)
        h = 1.0 / (2 * n + 3)
        s = rng.uniform(h, 2 * h, 200)
        theta = rng.uniform(0.0, s - h)
        values, errs = ba.f_inner(s, theta, n)
        for si, th, value, err in zip(s, theta, values, errs):
            assert ba.classify_domain(si, th, n) == "D4+"
            assert abs(value.real) <= ba.bound_real("D4+", si, th, n) + err
            assert abs(value.imag) <= ba.bound_imag("D4+", si, th, n) + err


class TestBounds:
    def test_unknown_label(self):
        with pytest.raises(ValueError):
            ba.bound_real("D9+", 0.1, 0.1, 8)
        with pytest.raises(ValueError):
            ba.bound_imag("D9+", 0.1, 0.1, 8)

    def test_bounds_positive_on_their_domains(self):
        rng = np.random.default_rng(3)
        for label in ba.DOMAINS:
            for n in (8, 32):
                for _ in range(5):
                    s, th = ba._proposal(label, n, rng)
                    assert ba.bound_real(label, s, th, n) >= 0.0
                    assert ba.bound_imag(label, s, th, n) >= 0.0


class TestAudit:
    def test_no_violations_small_run(self):
        for n in (8, 16, 32):
            rep = ba.check_master_bounds(n, 44, seed=5)
            assert rep["violations"] == []
            assert rep["violation_count"] == rep["hard_violation_count"] == 0
            assert rep["min_margin"] > 0.0

    def test_d4_minus_imag_bound_fails_at_paper_scale(self, capsys):
        # the transcribed D4-/Im bound grows more slowly in n than Im F near
        # theta = 1/2, s = 0 (module docstring): none fails at n = 1024; at
        # n = 4096 seven D4-/Im samples do, every one below HARD_FACTOR times
        # its bound, so the audit command still exits 0
        assert ba.check_master_bounds(1024, 110, seed=0)["violation_count"] == 0
        rep = ba.check_master_bounds(4096, 110, seed=0)
        assert rep["violation_count"] == 7
        assert {v["domain"] for v in rep["violations"]} == {"D4-/Im"}
        assert rep["hard_violation_count"] == 0
        assert rep["per_domain_min"]["D4-/Im"] == pytest.approx(-0.033, abs=5e-4)
        assert min(m for d, m in rep["per_domain_min"].items() if d != "D4-/Im") > 0
        assert cli.main(["audit", "--n", "4096"]) == 0
        assert json.loads(capsys.readouterr().out)["violation_count"] == 7

    def test_d2_minus_imag_bound_fails_at_n_4(self, capsys):
        # the transcribed D2-/Im bound pi(n+1)theta/4 sits just below Im F
        # near s = -0.74h, small theta, at the smallest n (module docstring):
        # one soft violation at n = 4, seed 3, and the audit still exits 0
        rep = ba.check_master_bounds(4, 110, seed=3)
        assert rep["violation_count"] == 1
        assert rep["hard_violation_count"] == 0
        (v,) = rep["violations"]
        assert v["domain"] == "D2-/Im"
        assert v["s"] == pytest.approx(-0.0606, abs=5e-5)
        assert v["theta"] == pytest.approx(0.0179, abs=5e-5)
        assert v["measured"] == pytest.approx(0.070504, abs=5e-7)
        assert v["bound"] == pytest.approx(0.070407, abs=5e-7)
        assert cli.main(["audit", "--n", "4", "--seed", "3"]) == 0
        assert json.loads(capsys.readouterr().out)["violation_count"] == 1

    def test_modulus_below_bound_sum(self):
        rng = np.random.default_rng(8)
        for label in ba.DOMAINS:
            s, th = ba._proposal(label, 16, rng)
            v, err = ba.f_inner(s, th, 16)
            total = ba.bound_real(label, s, th, 16) + ba.bound_imag(label, s, th, 16)
            assert abs(v) <= total + err

    def test_deterministic(self):
        a = ba.check_master_bounds(8, 22, seed=3)
        b = ba.check_master_bounds(8, 22, seed=3)
        assert a == b

    def test_report_shape(self):
        rep = ba.check_master_bounds(8, 33, seed=1)
        assert rep["n"] == 8
        assert rep["samples"] == 33
        assert len(rep["per_domain_min"]) == 2 * len(ba.DOMAINS)
        assert rep["min_margin"] == min(rep["per_domain_min"].values())

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            ba.check_master_bounds(3, 11)

    @pytest.mark.parametrize("count", [-5, 0, 10])
    def test_rejects_fewer_samples_than_subdomains(self, count):
        with pytest.raises(ValueError, match="at least 11 samples"):
            ba.check_master_bounds(8, count)

    def test_samples_evaluated_in_blocks(self, monkeypatch):
        # one f_inner call per block of samples, not one per sample
        calls, f_inner = [], ba.f_inner

        def counted(s, theta, n):
            calls.append(np.size(s))
            return f_inner(s, theta, n)

        monkeypatch.setattr(ba, "f_inner", counted)
        ba.check_master_bounds(16, 110)
        assert calls == [110]
        calls.clear()
        ba.check_master_bounds(4096, 110)
        rows = ba._BLOCK_TERMS // 4097
        assert 1 < rows < 110
        assert len(calls) == -(-110 // rows) and sum(calls) == 110

    @pytest.mark.parametrize("n, terms", [(16, 17), (16, 3 * 17), (16, 7 * 17 + 16),
                                          (64, 65 * 40), (64, 10**6)])
    def test_report_does_not_depend_on_block_size(self, monkeypatch, n, terms):
        # blocks of 1, 3 and 7 rows and 40 rows straddle the 110 samples'
        # block boundaries; 10**6 terms is one block
        ref = ba.check_master_bounds(n, 110, seed=4)
        monkeypatch.setattr(ba, "_BLOCK_TERMS", terms)
        assert ba.check_master_bounds(n, 110, seed=4) == ref

    def test_sample_count_rounds_down_to_subdomain_multiple(self):
        assert ba.check_master_bounds(8, 50, seed=2)["samples"] == 44

    def test_sample_rows_over_memory_budget_refused(self):
        with pytest.raises(BudgetExceeded, match="GB"):
            ba.check_master_bounds(8, 10**9)

    def test_kernel_over_memory_budget_refused_before_sampling(self, monkeypatch):
        monkeypatch.setattr(ba, "_proposal", None)
        with pytest.raises(BudgetExceeded, match="audit kernel"):
            ba.check_master_bounds(10**8, 110)

    def test_eval_err_max_is_the_largest_rounding_bound(self):
        rep = ba.check_master_bounds(16, 22, seed=6)
        rng = np.random.default_rng(6)
        errs = [ba.f_inner(*ba._proposal(label, 16, rng), 16)[1]
                for label in ba.DOMAINS for _ in range(2)]
        assert rep["eval_err_max"] == max(errs)
