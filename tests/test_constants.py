import math

import pytest

from supres import constants as co


class TestC1Bound:
    def test_default_roots(self):
        small, large = co.c1_bound()
        assert small == pytest.approx(0.1354, abs=1e-3)
        assert large == pytest.approx(2496.7, abs=1.0)

    def test_roots_satisfy_fixed_point(self):
        small, large = co.c1_bound()
        kappa = (3.0 + 3.0 / 300.0) / 0.9
        for x in (small, large):
            assert x == pytest.approx(kappa * (152.0 + 76.0 * math.log(x)), rel=1e-6)


class TestEtaStar:
    def test_published_value(self):
        assert co.eta_star(2500.0) == pytest.approx(0.0112, abs=5e-4)

    def test_residual(self):
        eta = co.eta_star(2500.0)
        assert co.interpolation_margin(eta, 2500.0) == pytest.approx(1.0, abs=1e-8)

    def test_monotone_in_c1(self):
        roots = [co.eta_star(c) for c in (1e3, 2.5e3, 1e4)]
        assert roots[0] > roots[1] > roots[2]

    def test_rejects_c1_at_most_one(self):
        with pytest.raises(ValueError):
            co.eta_star(1.0)


class TestKBoundCurve:
    def test_published_endpoint(self):
        assert co.k_bound_value(2e13) == pytest.approx(0.00806752452785, rel=1e-10)

    def test_deviation_at_headline_truncation(self):
        assert co.k_bound_value(1e13) == pytest.approx(0.015, abs=2e-3)

    def test_interior_sample(self):
        assert co.k_bound_value(9795918367347.45) == pytest.approx(
            0.0157061073364924, abs=1e-12
        )

    def test_decreasing(self):
        assert co.k_bound_value(1e12) > co.k_bound_value(1e13)

    def test_curve_validates_levels(self):
        with pytest.raises(ValueError):
            co.k_bound_curve([1.0])
        samples = co.k_bound_curve([1e6, 1e9, 1e12])
        assert [k for k, _ in samples] == [1e6, 1e9, 1e12]
        assert samples[0][1] > samples[1][1] > samples[2][1]


class TestReport:
    def test_fields_and_invariants(self):
        rep = co.constants_report()
        assert rep["C1_root_large"] > rep["C1_root_small"] > 0
        assert 0.0 < rep["eta_star"] < 1.0
        assert rep["M1ppp"] == 152 and rep["M2"] == 76
        assert rep["lam"] == 0.9
        vals = [v for _, v in rep["fK_samples"]]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_bitwise_reproducible(self):
        assert co.constants_report() == co.constants_report()

    def test_carries_the_budget_at_the_target(self):
        rep = co.constants_report()
        assert co.K_TARGET == 1e13
        assert rep["truncation_budget"] == co.truncation_budget(1e13)


class TestBudget:
    def test_default_thresholds_met(self):
        rep = co.truncation_budget(1e13)
        assert rep["feasible"]
        k1 = {name: b["K1"] for name, b in rep["bounds"].items()}
        assert k1 == {
            "B1": 2.0**17,
            "B2": 2.0**15,
            "B3": 2.0**24,
            "B4": 2.0**23,
            "B5": 2.0**37,
            "B6": 2.0**34,
        }

    def test_each_bound_met_within_factor_two(self):
        rep = co.truncation_budget(1e13)
        bounds = co._budget_bounds(1e13)
        for name, b in rep["bounds"].items():
            assert b["value_at_K1"] <= b["threshold"]
            if b["K1"] > 1:
                assert bounds[name](b["K1"] / 2.0) > b["threshold"]

    def test_closed_form_spot_values(self):
        bounds = co._budget_bounds(1e13)
        assert bounds["B3"](1e7) <= 0.01
        assert bounds["B4"](1e7) <= 0.02
        assert bounds["B5"](7.54e10) <= 0.1
        assert bounds["B6"](1.46e10) <= 0.1

    def test_growth_with_target(self):
        # the log K factor makes the quadratic bounds need a larger split
        lo = co.truncation_budget(1e8)["bounds"]["B1"]["K1"]
        hi = co.truncation_budget(1e13)["bounds"]["B1"]["K1"]
        assert hi >= lo
