import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from supres import trigpoly as tp


def random_poly(rng, n):
    c = rng.normal(size=2 * n + 1) + 1j * rng.normal(size=2 * n + 1)
    return tp.TrigPoly(n, c)


class TestEval:
    def test_constant(self):
        p = tp.TrigPoly(0, [1.0])
        for th in (0.0, 0.3, 0.77):
            assert tp.eval(p, th) == pytest.approx(1.0)

    def test_centered_dirichlet_peak(self):
        spec = tp.DirichletSpec(17)
        d = tp.dirichlet_poly(spec)
        assert tp.eval(d, 0.0) == pytest.approx(1.0, abs=1e-14)

    def test_centered_dirichlet_grid_zeros(self):
        n = 17
        d = tp.dirichlet_poly(tp.DirichletSpec(n))
        for k in (1, 2, 5, -3, n):
            assert abs(tp.eval(d, k / (2 * n + 1))) < 1e-13

    def test_one_sided_modulus(self):
        n = 9
        d = tp.dirichlet_poly(tp.DirichletSpec(n, "one_sided"))
        th = np.linspace(0.01, 0.49, 37)
        expected = np.abs(np.sin((n + 1) * np.pi * th) / ((n + 1) * np.sin(np.pi * th)))
        assert np.max(np.abs(np.abs(tp.eval(d, th)) - expected)) < 1e-12

    def test_array_matches_scalar(self):
        rng = np.random.default_rng(3)
        p = random_poly(rng, 11)
        th = rng.uniform(0, 1, 9)
        arr = tp.eval(p, th)
        for i, t in enumerate(th):
            assert arr[i] == pytest.approx(tp.eval(p, float(t)), abs=1e-13)


class TestEvalGrid:
    @pytest.mark.parametrize("n, G", [(0, 1), (0, 7), (1, 3), (7, 15), (7, 150),
                                      (64, 129), (64, 1000), (64, 1290)])
    def test_matches_pointwise(self, n, G):
        p = random_poly(np.random.default_rng(n + G), n)
        np.testing.assert_allclose(tp.eval_grid(p, G), tp.eval(p, np.arange(G) / G),
                                   rtol=0, atol=1e-11)

    def test_grid_must_exceed_twice_the_order(self):
        p = random_poly(np.random.default_rng(0), 5)
        with pytest.raises(ValueError, match="needs > 10"):
            tp.eval_grid(p, 10)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(0, 12),
    theta=st.floats(0, 1, exclude_max=True, allow_nan=False),
    seed=st.integers(0, 2**31),
)
def test_periodicity(n, theta, seed):
    rng = np.random.default_rng(seed)
    p = random_poly(rng, n)
    l1 = np.sum(np.abs(p.coeffs))
    assert abs(tp.eval(p, theta) - tp.eval(p, theta + 1.0)) <= 1e-12 * max(l1, 1.0)


@settings(max_examples=50, deadline=None)
@given(n=st.integers(0, 20), seed=st.integers(0, 2**31))
def test_parseval_on_grid(n, seed):
    rng = np.random.default_rng(seed)
    p = random_poly(rng, n)
    grid = np.arange(2 * n + 1) / (2 * n + 1)
    mean_sq = np.mean(np.abs(tp.eval(p, grid)) ** 2)
    total = np.sum(np.abs(p.coeffs) ** 2)
    assert mean_sq == pytest.approx(total, rel=1e-10)


class TestDirichletDeriv:
    def test_values_at_zero(self):
        for n in (5, 20, 128):
            spec = tp.DirichletSpec(n)
            assert tp.dirichlet_deriv(spec, 0.0, 0) == pytest.approx(1.0)
            assert tp.dirichlet_deriv(spec, 0.0, 1) == 0.0
            assert tp.dirichlet_deriv(spec, 0.0, 2) == pytest.approx(
                -4 * np.pi**2 * n * (n + 1) / 3, rel=1e-12
            )
            assert tp.dirichlet_deriv(spec, 0.0, 3) == 0.0

    def test_first_derivative_fd(self):
        # frozen finite-difference oracle setup: n=20, theta=0.3, step 1e-5
        spec = tp.DirichletSpec(20)
        h = 1e-5
        fd = (tp.dirichlet_deriv(spec, 0.3 + h, 0) - tp.dirichlet_deriv(spec, 0.3 - h, 0)) / (2 * h)
        assert tp.dirichlet_deriv(spec, 0.3, 1) == pytest.approx(fd, rel=1e-6)

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_higher_orders_fd(self, order):
        spec = tp.DirichletSpec(13)
        h = 1e-5
        for th in (0.11, 0.27, -0.4, 0.49):
            fd = (
                tp.dirichlet_deriv(spec, th + h, order - 1)
                - tp.dirichlet_deriv(spec, th - h, order - 1)
            ) / (2 * h)
            val = tp.dirichlet_deriv(spec, th, order)
            assert val == pytest.approx(fd, rel=1e-5, abs=1e-7)

    def test_matches_coefficient_sum(self):
        n = 15
        spec = tp.DirichletSpec(n)
        d = tp.dirichlet_poly(spec)
        k = tp.freqs(d)
        th = np.linspace(-0.45, 0.45, 19)
        for order in range(4):
            c = d.coeffs * (2j * np.pi * k) ** order
            direct = tp.eval(tp.TrigPoly(n, c), th)
            assert np.max(np.abs(tp.dirichlet_deriv(spec, th, order) - direct.real)) < 1e-8 * (
                2 * np.pi * n
            ) ** order + 1e-12

    def test_periodic(self):
        spec = tp.DirichletSpec(31)
        for order in range(4):
            a = tp.dirichlet_deriv(spec, 0.2, order)
            b = tp.dirichlet_deriv(spec, 1.2, order)
            assert a == pytest.approx(b, rel=1e-10, abs=1e-9)

    def test_one_sided_rejected(self):
        with pytest.raises(ValueError):
            tp.dirichlet_deriv(tp.DirichletSpec(4, "one_sided"), 0.1, 1)


class TestTruncate:
    def test_full_basis_exact(self):
        rng = np.random.default_rng(7)
        p = random_poly(rng, 30)
        p_K, p_err = tp.dirichlet_truncate(p, 30)
        assert np.max(np.abs(p_err.coeffs)) < 1e-12
        assert np.max(np.abs(p_K.coeffs - p.coeffs)) < 1e-12

    def test_sum_identity(self):
        rng = np.random.default_rng(8)
        p = random_poly(rng, 30)
        p_K, p_err = tp.dirichlet_truncate(p, 7)
        th = np.linspace(0, 1, 1000, endpoint=False)
        resid = tp.eval(p_K, th) + tp.eval(p_err, th) - tp.eval(p, th)
        assert np.max(np.abs(resid)) <= 1e-10

    def test_error_decay_near_center(self):
        # single off-grid kernel spike at half a grid spacing: the local
        # truncation error shrinks as the sampled window grows
        n = 200
        N = 2 * n + 1
        tau = 0.5 / N
        k = np.arange(-n, n + 1)
        eta = tp.TrigPoly(n, np.exp(-2j * np.pi * k * tau) / N)
        sups = []
        for K in (10, 20, 40):
            _, p_err = tp.dirichlet_truncate(eta, K)
            th = np.linspace(-K / n, K / n, 2001)
            sups.append(np.max(np.abs(tp.eval(p_err, th))))
            assert sups[-1] <= 3 * np.log(1 + K) / (1 + K)
        assert sups[0] > sups[1] > sups[2]


def test_bad_coeff_length():
    with pytest.raises(ValueError):
        tp.TrigPoly(3, np.ones(6))
