import numpy as np
import pytest
from scipy.integrate import quad

from supres import bound_audit as ba
from supres.budget import BudgetExceeded


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

    def test_against_closed_form(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            s = rng.uniform(-0.5, 0.5)
            theta = rng.uniform(0.0, 0.5)
            n = int(rng.integers(4, 40))
            v, err = ba.f_inner(s, theta, n)
            ref, ref_err = ba.f_inner_quad(s, theta, n)
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

    def test_quadrature_oracle_zero_width(self):
        assert ba.f_inner_quad(0.2, 0.0, 10) == (0.0, 0.0)


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

    def test_sample_count_rounds_down_to_subdomain_multiple(self):
        assert ba.check_master_bounds(8, 50, seed=2)["samples"] == 44

    def test_sample_rows_over_memory_budget_refused(self):
        with pytest.raises(BudgetExceeded, match="GB"):
            ba.check_master_bounds(8, 10**9)

    def test_eval_err_max_is_the_largest_rounding_bound(self):
        rep = ba.check_master_bounds(16, 22, seed=6)
        rng = np.random.default_rng(6)
        errs = [ba.f_inner(*ba._proposal(label, 16, rng), 16)[1]
                for label in ba.DOMAINS for _ in range(2)]
        assert rep["eval_err_max"] == max(errs)
