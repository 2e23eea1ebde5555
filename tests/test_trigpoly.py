import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from supres import trigpoly as tp

from oracles import eval_direct, eval_grid_longdouble, freqs


def random_poly(rng, n):
    c = rng.normal(size=2 * n + 1) + 1j * rng.normal(size=2 * n + 1)
    return tp.TrigPoly(n, c)


def centered_dirichlet(n):
    """The centered kernel: coefficient 1/(2n+1) at every frequency -n..n."""
    return tp.TrigPoly(n, np.full(2 * n + 1, 1.0 / (2 * n + 1)))


class TestEval:
    def test_constant(self):
        p = tp.TrigPoly(0, [1.0])
        for th in (0.0, 0.3, 0.77):
            assert eval_direct(p, th) == pytest.approx(1.0)

    def test_centered_dirichlet_peak(self):
        d = centered_dirichlet(17)
        assert eval_direct(d, 0.0) == pytest.approx(1.0, abs=1e-14)

    def test_centered_dirichlet_grid_zeros(self):
        n = 17
        d = centered_dirichlet(n)
        for k in (1, 2, 5, -3, n):
            assert abs(eval_direct(d, k / (2 * n + 1))) < 1e-13

    def test_one_sided_modulus(self):
        n = 9
        # one-sided kernel: 1/(n+1) at frequencies 0..n, zero below
        c = np.zeros(2 * n + 1)
        c[n:] = 1.0 / (n + 1)
        d = tp.TrigPoly(n, c)
        th = np.linspace(0.01, 0.49, 37)
        expected = np.abs(np.sin((n + 1) * np.pi * th) / ((n + 1) * np.sin(np.pi * th)))
        assert np.max(np.abs(np.abs(eval_direct(d, th)) - expected)) < 1e-12

    def test_array_matches_scalar(self):
        rng = np.random.default_rng(3)
        p = random_poly(rng, 11)
        th = rng.uniform(0, 1, 9)
        arr = eval_direct(p, th)
        for i, t in enumerate(th):
            assert arr[i] == pytest.approx(eval_direct(p, float(t)), abs=1e-13)


class TestEvalGrid:
    @pytest.mark.parametrize("n, G", [(0, 1), (0, 7), (1, 3), (7, 15), (7, 150),
                                      (64, 129), (64, 1000), (64, 1290)])
    def test_matches_pointwise(self, n, G):
        p = random_poly(np.random.default_rng(n + G), n)
        np.testing.assert_allclose(tp.eval_grid(p, G), eval_direct(p, np.arange(G) / G),
                                   rtol=0, atol=1e-11)

    def test_fast_len_is_next_five_smooth(self):
        def smooth(x):
            for q in (2, 3, 5):
                while x % q == 0:
                    x //= q
            return x == 1

        for m in list(range(1, 3000)) + [28970, 81930, 327690]:
            G = tp.fast_len(m)
            assert G >= m and smooth(G), m
            assert not any(smooth(x) for x in range(m, G)), m
        # the scan sizes whose prime factors 2731 and 331 sent the FFT to Bluestein
        assert tp.fast_len(81930) == 82944
        assert tp.fast_len(327690) == 328050

    def test_grid_must_exceed_twice_the_order(self):
        p = random_poly(np.random.default_rng(0), 5)
        with pytest.raises(ValueError, match="needs > 10"):
            tp.eval_grid(p, 10)

    @pytest.mark.parametrize("h, length", [(0, 1), (0, 4), (3, 7), (3, 16)])
    def test_layout_round_trip(self, h, length):
        # rows of coefficients -h..h, coefficient k at index k mod length
        x = np.random.default_rng(h + length).normal(size=(2, 2 * h + 1)) + 0j
        buf = tp.to_grid(x, length)
        k = np.arange(-h, h + 1)
        np.testing.assert_array_equal(buf[:, k % length], x)
        assert np.count_nonzero(buf) == x.size
        np.testing.assert_array_equal(tp.from_grid(buf, h), x)


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
    assert abs(eval_direct(p, theta) - eval_direct(p, theta + 1.0)) <= 1e-12 * max(l1, 1.0)


@settings(max_examples=50, deadline=None)
@given(n=st.integers(0, 20), seed=st.integers(0, 2**31))
def test_parseval_on_grid(n, seed):
    rng = np.random.default_rng(seed)
    p = random_poly(rng, n)
    grid = np.arange(2 * n + 1) / (2 * n + 1)
    mean_sq = np.mean(np.abs(eval_direct(p, grid)) ** 2)
    total = np.sum(np.abs(p.coeffs) ** 2)
    assert mean_sq == pytest.approx(total, rel=1e-10)


class TestDirichletDeriv:
    def test_values_at_zero(self):
        for n in (5, 20, 128):
            D0, D1, D2 = tp.dirichlet_deriv(n, 0.0)
            assert D0 == pytest.approx(1.0)
            assert D1 == 0.0
            assert D2 == pytest.approx(-4 * np.pi**2 * n * (n + 1) / 3, rel=1e-12)

    def test_first_derivative_fd(self):
        # frozen finite-difference oracle setup: n=20, theta=0.3, step 1e-5
        h = 1e-5
        fd = (tp.dirichlet_deriv(20, 0.3 + h)[0] - tp.dirichlet_deriv(20, 0.3 - h)[0]) / (2 * h)
        assert tp.dirichlet_deriv(20, 0.3)[1] == pytest.approx(fd, rel=1e-6)

    @pytest.mark.parametrize("order", [1, 2])
    def test_higher_orders_fd(self, order):
        h = 1e-5
        for th in (0.11, 0.27, -0.4, 0.49):
            fd = (
                tp.dirichlet_deriv(13, th + h)[order - 1]
                - tp.dirichlet_deriv(13, th - h)[order - 1]
            ) / (2 * h)
            val = tp.dirichlet_deriv(13, th)[order]
            assert val == pytest.approx(fd, rel=1e-5, abs=1e-7)

    def test_matches_coefficient_sum(self):
        n = 15
        d = centered_dirichlet(n)
        k = freqs(d)
        th = np.linspace(-0.45, 0.45, 19)
        for order, val in enumerate(tp.dirichlet_deriv(n, th)):
            c = d.coeffs * (2j * np.pi * k) ** order
            direct = eval_direct(tp.TrigPoly(n, c), th)
            assert np.max(np.abs(val - direct.real)) < 1e-8 * (2 * np.pi * n) ** order + 1e-12
        # near the series switch at 5e-3/n, on both sides, where the closed-form
        # quotients cancel
        r = np.array([1.01e-4, 3e-4, 1e-3, 4e-3, 1e-2])
        for n in (64, 1024, 16384):
            d = centered_dirichlet(n)
            k = freqs(d)
            th = np.concatenate([r, -r]) / n
            for order, val in enumerate(tp.dirichlet_deriv(n, th)):
                c = d.coeffs * (2j * np.pi * k) ** order
                direct = eval_direct(tp.TrigPoly(n, c), th)
                assert np.max(np.abs(val - direct.real)) < 1e-11 * (2 * np.pi * n) ** order

    def test_periodic(self):
        for a, b in zip(tp.dirichlet_deriv(31, 0.2), tp.dirichlet_deriv(31, 1.2)):
            assert a == pytest.approx(b, rel=1e-10, abs=1e-9)


def hermitian_poly(rng, n, decay=0.0):
    """Random real-valued p of order n: c_-k = conj(c_k), |c_k| ~ (1+|k|)^-decay."""
    c = random_poly(rng, n).coeffs * (1.0 + np.abs(np.arange(-n, n + 1))) ** -decay
    return tp.TrigPoly(n, (c + np.conj(c[::-1])) / 2)


def fine_min(p):
    """Minimum of p on a grid 64 times finer than min_lower_bound's."""
    return float(np.min(tp.eval_grid(p, 64 * tp.fast_len(8 * (2 * p.n + 1))).real))


class TestMinLowerBound:
    @pytest.mark.parametrize("n", [0, 1, 2, 7, 40, 300, 1024])
    @pytest.mark.parametrize("decay", [0.0, 1.0, 2.0])
    def test_below_fine_grid_minimum(self, n, decay):
        # sound: never above the symbol's minimum on a 64x finer grid; and
        # within the Bernstein term r/(1 - r) < 0.02 of the largest value
        rng = np.random.default_rng(1000 * n + int(decay))
        for _ in range(5):
            p = hermitian_poly(rng, n, decay)
            low, top = fine_min(p), float(np.max(np.abs(tp.eval_grid(p, 16 * n + 8))))
            bound = tp.min_lower_bound(p)
            assert bound <= low
            assert bound >= low - 0.02 * top

    def test_constant(self):
        assert tp.min_lower_bound(tp.TrigPoly(0, [0.25])) == pytest.approx(0.25, rel=1e-14)
        assert tp.min_lower_bound(tp.TrigPoly(0, [0.25])) <= 0.25

    @pytest.mark.parametrize("n", [1, 5, 64, 513])
    def test_top_frequency_cosine(self, n):
        # cos(2 pi n theta) bends fastest of all order-n polynomials of its
        # norm, so the Bernstein term is met with equality in its second
        # derivative; its minimum -1 must still be covered
        c = np.zeros(2 * n + 1)
        c[0] = c[-1] = 0.5
        bound = tp.min_lower_bound(tp.TrigPoly(n, c))
        assert -1.02 <= bound <= -1.0


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 2.0**-60,
                    reason="needs an extended-precision long double")
def test_fft_rounding_within_assumed_bound():
    # min_lower_bound assumes numpy's mixed-radix FFT meets Higham's radix-2
    # bound ||y^ - y||_2 <= eps ||y||_2 = e0 with t = 2 ceil(log2 G) stages and
    # twiddles within mu = 4u; check it against a long-double direct sum on
    # its own grid sizes G = fast_len(8(2n+1)) and on gram's factor lengths
    # fast_len(4n+1), which together take radices 2, 3 and 5
    u = 2.0**-53
    e = 4 * u + 4 * u / (1 - 4 * u) * (np.sqrt(2) + 4 * u)
    rng = np.random.default_rng(16)
    radices = set()
    for n in range(101):
        p = hermitian_poly(rng, n)
        for G in (tp.fast_len(8 * (2 * n + 1)), tp.fast_len(4 * n + 1)):
            t = 2 * (G - 1).bit_length()
            e0 = t * e / (1 - t * e) * np.sqrt(G) * np.linalg.norm(p.coeffs)
            err = tp.eval_grid(p, G) - eval_grid_longdouble(p, G)
            assert float(np.sqrt(np.sum(np.abs(err) ** 2))) <= e0, (n, G)
            radices |= {q for q in (2, 3, 5) if G % q == 0}
    assert radices == {2, 3, 5}


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=0, max_value=200),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       shift=st.floats(min_value=-3.0, max_value=3.0))
def test_min_lower_bound_property(n, seed, shift):
    p = hermitian_poly(np.random.default_rng(seed), n, decay=1.0)
    p = tp.TrigPoly(n, p.coeffs + shift * (np.arange(-n, n + 1) == 0))
    assert tp.min_lower_bound(p) <= fine_min(p)


def test_bad_coeff_length():
    with pytest.raises(ValueError):
        tp.TrigPoly(3, np.ones(6))
