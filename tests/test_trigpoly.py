import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from supres import trigpoly as tp

from oracles import (eval_direct, eval_grid, eval_grid_longdouble, freqs, from_grid, to_grid,
                     unfold)


def random_poly(rng, n):
    """Random complex coefficients on -n..n."""
    return rng.normal(size=2 * n + 1) + 1j * rng.normal(size=2 * n + 1)


def hermitian_poly(rng, n, decay=0.0):
    """Random real-valued p of order n: c_-k = conj(c_k), |c_k| ~ (1+|k|)^-decay."""
    c = random_poly(rng, n) * (1.0 + np.abs(np.arange(-n, n + 1))) ** -decay
    return (c + np.conj(c[::-1])) / 2


def centered_dirichlet(n):
    """The centered kernel: coefficient 1/(2n+1) at every frequency -n..n."""
    return np.full(2 * n + 1, 1.0 / (2 * n + 1), dtype=complex)


class TestEval:
    def test_constant(self):
        p = np.array([1.0 + 0j])
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
        c = np.zeros(2 * n + 1, dtype=complex)
        c[n:] = 1.0 / (n + 1)
        th = np.linspace(0.01, 0.49, 37)
        expected = np.abs(np.sin((n + 1) * np.pi * th) / ((n + 1) * np.sin(np.pi * th)))
        assert np.max(np.abs(np.abs(eval_direct(c, th)) - expected)) < 1e-12

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
        np.testing.assert_allclose(eval_grid(p, G), eval_direct(p, np.arange(G) / G),
                                   rtol=0, atol=1e-11)

    @pytest.mark.parametrize("m", [4, 8, 10, 12])
    def test_phases_match_one_fft(self, m):
        # phase r of trigpoly.phases holds the real samples g = j m + r of
        # the G = m fast_len(2n+1) point grid, by inverse real FFTs: of one
        # Hermitian row's half, and of a two-row batch, the halves of the
        # rows of Re q and Im q of a complex q, which give the real and
        # imaginary parts of q
        rng = np.random.default_rng(m)
        for n in range(101):
            G = m * tp.fast_len(2 * n + 1)
            p = hermitian_poly(rng, n)
            got = np.stack(list(tp.phases(p[n:], m)), axis=-1).ravel()
            assert got.dtype == np.float64
            np.testing.assert_allclose(got, eval_grid(p, G).real, rtol=0,
                                       atol=1e-13 * float(np.sum(np.abs(p))))
            halves = np.stack([hermitian_poly(rng, n)[n:] for _ in range(2)])
            q = unfold(halves[0]) + 1j * unfold(halves[1])
            got = np.stack(list(tp.phases(halves, m)), axis=-1).reshape(2, G)
            assert got.dtype == np.float64
            want = eval_grid(q, G)
            np.testing.assert_allclose(got, [want.real, want.imag], rtol=0,
                                       atol=1e-13 * float(np.sum(np.abs(q))))

    @pytest.mark.parametrize("h, length", [(0, 1), (0, 4), (3, 7), (3, 16), (5, 11)])
    def test_from_spectrum_inverts_the_real_spectrum(self, h, length):
        # a Hermitian row's spectrum, the full complex FFT of its layout, is
        # real; to_spectrum forms it from the row's half, and from_spectrum
        # reads the half back from it, with Im c_0 exactly 0
        c = hermitian_poly(np.random.default_rng(h + length), h)
        spec = np.fft.fft(to_grid(c, length))
        assert np.max(np.abs(spec.imag)) <= 1e-14
        got = tp.to_spectrum(c[h:], length)
        assert got.dtype == np.float64 and got.shape == (length,)
        np.testing.assert_allclose(got, spec.real, rtol=0, atol=1e-14)
        back = tp.from_spectrum(got, h)
        assert back.shape == (h + 1,) and back[0].imag == 0
        np.testing.assert_allclose(back, c[h:], rtol=0, atol=1e-15)

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

    def test_fast_len_takes_any_integer(self):
        assert tp.fast_len(np.int64(81930)) == tp.fast_len(81930) == 82944
        with pytest.raises(TypeError):
            tp.fast_len(81930.0)

    def test_grid_must_exceed_twice_the_order(self):
        p = random_poly(np.random.default_rng(0), 5)
        with pytest.raises(ValueError, match="needs > 10"):
            to_grid(p, 10)

    @pytest.mark.parametrize("h, length", [(0, 1), (0, 4), (3, 7), (3, 16)])
    def test_layout_round_trip(self, h, length):
        # rows of coefficients -h..h, coefficient k at index k mod length
        x = np.random.default_rng(h + length).normal(size=(2, 2 * h + 1)) + 0j
        buf = to_grid(x, length)
        k = np.arange(-h, h + 1)
        np.testing.assert_array_equal(buf[:, k % length], x)
        assert np.count_nonzero(buf) == x.size
        np.testing.assert_array_equal(from_grid(buf, h), x)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(0, 12),
    theta=st.floats(0, 1, exclude_max=True, allow_nan=False),
    seed=st.integers(0, 2**31),
)
def test_periodicity(n, theta, seed):
    rng = np.random.default_rng(seed)
    p = random_poly(rng, n)
    l1 = np.sum(np.abs(p))
    assert abs(eval_direct(p, theta) - eval_direct(p, theta + 1.0)) <= 1e-12 * max(l1, 1.0)


@settings(max_examples=50, deadline=None)
@given(n=st.integers(0, 20), seed=st.integers(0, 2**31))
def test_parseval_on_grid(n, seed):
    rng = np.random.default_rng(seed)
    p = random_poly(rng, n)
    grid = np.arange(2 * n + 1) / (2 * n + 1)
    mean_sq = np.mean(np.abs(eval_direct(p, grid)) ** 2)
    total = np.sum(np.abs(p) ** 2)
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
            direct = eval_direct(d * (2j * np.pi * k) ** order, th)
            assert np.max(np.abs(val - direct.real)) < 1e-8 * (2 * np.pi * n) ** order + 1e-12
        # near the series switch at 5e-3/n, on both sides, where the closed-form
        # quotients cancel
        r = np.array([1.01e-4, 3e-4, 1e-3, 4e-3, 1e-2])
        for n in (64, 1024, 16384):
            d = centered_dirichlet(n)
            k = freqs(d)
            th = np.concatenate([r, -r]) / n
            for order, val in enumerate(tp.dirichlet_deriv(n, th)):
                direct = eval_direct(d * (2j * np.pi * k) ** order, th)
                assert np.max(np.abs(val - direct.real)) < 1e-11 * (2 * np.pi * n) ** order

    def test_periodic(self):
        for a, b in zip(tp.dirichlet_deriv(31, 0.2), tp.dirichlet_deriv(31, 1.2)):
            assert a == pytest.approx(b, rel=1e-10, abs=1e-9)

    def test_series_points_written_in_place(self):
        # the series overwrites only the points below the switch: one call on
        # an array that mixes them with exact integers and ordinary theta, 1-d
        # and 2-d, equals calls point by point, bit for bit
        rng = np.random.default_rng(12)
        for n in (1, 8, 64, 1024, 16384):
            switch = 5e-3 / n
            th = np.concatenate([[-2.0, 0.0, 1.0, 3.0], switch * np.array([-1.5, -1, -0.5, 0.5, 1, 1.5]),
                                 rng.uniform(-switch, switch, 6), rng.uniform(-1, 1, 8)])
            for arr in (th, th[:, None] - th[:10]):
                batch = tp.dirichlet_deriv(n, arr)
                for idx in np.ndindex(arr.shape):
                    point = tp.dirichlet_deriv(n, arr[idx])
                    assert [v[idx] for v in batch] == [p[()] for p in point], (n, arr[idx])
                assert all(v.shape == arr.shape and v.dtype == float for v in batch)

    @pytest.mark.parametrize("theta", [0.3, 1e-9, 0.0, 2])
    def test_scalar_input_types(self, theta):
        # a float theta gives D as a 0-d array and D', D'' as numpy floats
        D0, D1, D2 = tp.dirichlet_deriv(16, theta)
        assert type(D0) is np.ndarray and D0.shape == ()
        assert type(D1) is np.float64 and type(D2) is np.float64


def fine_min(p):
    """Minimum of p, the full row on -n..n, on a grid 64 times finer than
    min_lower_bound's."""
    return float(np.min(eval_grid(p, 64 * tp.fast_len(8 * len(p))).real))


class TestMinLowerBound:
    @pytest.mark.parametrize("n", [0, 1, 2, 7, 40, 300, 1024])
    @pytest.mark.parametrize("decay", [0.0, 1.0, 2.0])
    def test_below_fine_grid_minimum(self, n, decay):
        # sound: never above the symbol's minimum on a 64x finer grid; and
        # within the Bernstein term r/(1 - r) < 0.02 of the largest value
        rng = np.random.default_rng(1000 * n + int(decay))
        for _ in range(5):
            p = hermitian_poly(rng, n, decay)
            low, top = fine_min(p), float(np.max(np.abs(eval_grid(p, 16 * n + 8))))
            bound = tp.min_lower_bound(p[n:])
            assert bound <= low
            assert bound >= low - 0.02 * top

    def test_constant(self):
        assert tp.min_lower_bound(np.array([0.25 + 0j])) == pytest.approx(0.25, rel=1e-14)
        assert tp.min_lower_bound(np.array([0.25 + 0j])) <= 0.25

    @pytest.mark.parametrize("c0", [1.0, -1.0, 3.7e-9, -2.5e6, 1e100, -7e-100, 1e200, -7e-200])
    def test_constant_loses_the_fft_term(self, c0):
        # the constant c0 as the half of a row of order h = 0..3: its samples are exactly
        # c0, so what min_lower_bound takes off it is at least its Bernstein
        # term r|c0|/(1 - r), the FFT rounding term at length L = fast_len(2h+1)
        # and the twiddle term of its 8 phases, each with the factor 1 + 2^-20
        # for second-order terms. At h = 0, L = 1 and the FFT term is exactly
        # 0, but the twiddle term is not; at h >= 1 the Bernstein term is
        # taken in full, so both rounding terms must show. At 1e200 and
        # 7e-200 the squares inside the coefficient norm over- and underflow
        for h in range(4):
            p = np.zeros(h + 1, dtype=complex)
            p[0] = c0
            L = tp.fast_len(2 * h + 1)
            r = (np.pi * h / (8 * L)) ** 2 / 2
            taken = c0 - tp.min_lower_bound(p)
            assert taken >= ((1 + 2.0**-20) * r * abs(c0) / (1 - r) + tp.fft_error_bound(L, abs(c0))
                             + 7 * tp.TWIDDLE_EPS * abs(c0)), h

    @pytest.mark.parametrize("n", [1, 7, 40, 300])
    def test_takes_off_the_full_rows_rounding_terms(self, n):
        # from its least sample, min_lower_bound takes off at least the
        # Bernstein and rounding terms with e0 from the norms of the full
        # row, where each c_k, k >= 1, stands twice: the half's own norms
        # would fall short by about a third of e0, which the arithmetic
        # term gamma_12 (top + ...) does not make up
        rng = np.random.default_rng(n)
        L = tp.fast_len(2 * n + 1)
        r = (np.pi * n / (8 * L)) ** 2 / 2
        for _ in range(5):
            p = hermitian_poly(rng, n)
            vals = np.concatenate(list(tp.phases(p[n:], 8)))
            lowest, top = float(vals.min()), float(np.max(np.abs(vals)))
            e0 = (tp.fft_error_bound(L, float(np.linalg.norm(p)))
                  + 7 * tp.TWIDDLE_EPS * float(np.sum(np.abs(p))))
            bern = r * (top + e0) / (1 - r)
            assert lowest - tp.min_lower_bound(p[n:]) >= (1 + 2.0**-20) * (bern + e0)

    @pytest.mark.parametrize("n", [1, 5, 64, 513])
    def test_top_frequency_cosine(self, n):
        # cos(2 pi n theta) bends fastest of all order-n polynomials of its
        # norm, so the Bernstein term is met with equality in its second
        # derivative; its minimum -1 must still be covered
        c = np.zeros(n + 1, dtype=complex)
        c[n] = 0.5
        bound = tp.min_lower_bound(c)
        assert -1.02 <= bound <= -1.0

    def test_refuses_more_than_one_row(self):
        # the halves of three rows of cos(2 pi 10 theta), a 2-d stack: the
        # order is read off the half's length, so a stack of rows would get
        # its Bernstein term for the wrong order
        c = np.zeros(11, dtype=complex)
        c[10] = 0.5
        with pytest.raises(ValueError, match="one non-empty half row"):
            tp.min_lower_bound(np.tile(c, (3, 1)))

    def test_refuses_empty_row(self):
        # an empty array has no c_0, so no order
        with pytest.raises(ValueError, match="one non-empty half row"):
            tp.min_lower_bound(np.ones(0, dtype=complex))

    def test_refuses_imaginary_constant(self):
        # Im c_0 != 0 is the one way a half fails to be a Hermitian row's:
        # the sampler would drop it and bound a different polynomial
        c = hermitian_poly(np.random.default_rng(4), 4)[4:]
        c[0] += 1e-12j
        with pytest.raises(ValueError, match="Im c_0 == 0"):
            tp.min_lower_bound(c)


@pytest.mark.parametrize("scale", [1.0, 1e200, 7e-200])
def test_row_norms_are_the_full_rows(scale):
    # the 1- and 2-norms of a half are those of its unfolded row, in which
    # each c_k, k >= 1, stands twice; at 1e200 and 7e-200 the squares over-
    # and underflow, and the rescaled norm keeps its relative accuracy
    rng = np.random.default_rng(12)
    for n in (0, 1, 2, 9, 100):
        half = hermitian_poly(rng, n)[n:]
        row = unfold(half)
        norm1, norm2 = tp.row_norms(half * scale)
        assert norm1 == pytest.approx(scale * float(np.sum(np.abs(row))), rel=1e-14)
        assert norm2 == pytest.approx(scale * float(np.linalg.norm(row)), rel=1e-14)


def test_fft_error_bound_frozen():
    # exact floats, so that a change to the model U, gamma moves them
    got = [tp.fft_error_bound(G, 1.0) for G in (8, 1000, 2**20, 3**13)]
    assert got == [1.8194584838083753e-14, 6.780721420057147e-13,
                   4.3914288878535436e-11, 5.685692297893622e-11]


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 2.0**-60,
                    reason="needs an extended-precision long double")
def test_fft_rounding_within_assumed_bound():
    # fft_error_bound assumes numpy's mixed-radix FFT meets Higham's radix-2
    # bound ||y^ - y||_2 <= eps ||y||_2 = e0 with t = 2 ceil(log2 G) stages and
    # twiddles within mu = 4u; check it against a long-double direct sum on
    # the scan's phase length fast_len(2n+1), gram's factor length
    # fast_len(4n+1) and the one-FFT grids fast_len(8(2n+1)), which together
    # take radices 2, 3 and 5
    rng = np.random.default_rng(16)
    radices = set()
    for n in range(101):
        p = hermitian_poly(rng, n)
        for G in (tp.fast_len(8 * (2 * n + 1)), tp.fast_len(4 * n + 1), tp.fast_len(2 * n + 1)):
            e0 = tp.fft_error_bound(G, float(np.linalg.norm(p)))
            err = eval_grid(p, G) - eval_grid_longdouble(p, G)
            assert float(np.sqrt(np.sum(np.abs(err) ** 2))) <= e0, (n, G)
            radices |= {q for q in (2, 3, 5) if G % q == 0}
    assert radices == {2, 3, 5}


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 2.0**-60,
                    reason="needs an extended-precision long double")
def test_min_lower_bound_sampling_within_assumed_bound():
    # the same assumption at min_lower_bound's own transforms: its eight
    # phases, inverse real FFTs of length L = fast_len(2n+1) of the twiddled
    # c_0..c_n, against the long-double direct sum on G = 8L points. Phase
    # r transforms coefficients within r TWIDDLE_EPS |c_k| of the exact
    # twiddled ones, so by Parseval its error has 2-norm at most
    # fft_error_bound(L, ||p||_2) + sqrt(L) r TWIDDLE_EPS ||p||_2
    rng = np.random.default_rng(16)
    for n in range(101):
        p = hermitian_poly(rng, n)
        L, norm = tp.fast_len(2 * n + 1), float(np.linalg.norm(p))
        want = eval_grid_longdouble(p, 8 * L)
        for r, vals in enumerate(tp.phases(p[n:], 8)):
            bound = tp.fft_error_bound(L, norm) + np.sqrt(L) * r * tp.TWIDDLE_EPS * norm
            err = vals - want[r::8]
            assert float(np.sqrt(np.sum(np.abs(err) ** 2))) <= bound, (n, r)


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 2.0**-60,
                    reason="needs an extended-precision long double")
def test_real_fft_rounding_within_assumed_bound():
    # the same assumption at qk_operator's real transforms, lengths
    # L = fast_len(2K): rfft of a real vector filling all L slots, as the
    # circulant kernel columns do, within fft_error_bound(L, ||v||_2), and
    # irfft of a half spectrum within fft_error_bound(L, ||Y_full||_2)/L,
    # Y_full its Hermitian extension, each against a long-double DFT
    rng = np.random.default_rng(8)
    radices = set()
    for K in range(1, 101):
        L = tp.fast_len(2 * K)
        angle = 8 * np.arctan(np.longdouble(1)) * np.arange(L, dtype=np.longdouble) / L
        roots = np.cos(angle) + 1j * np.sin(angle)
        half = np.arange(L // 2 + 1)

        v = rng.normal(size=L)
        want = np.conj(roots[np.outer(half, np.arange(v.size)) % L]) @ v.astype(np.longdouble)
        err = np.fft.rfft(v, L) - want
        bound = tp.fft_error_bound(L, float(np.linalg.norm(v)))
        assert float(np.sqrt(np.sum(np.abs(err) ** 2))) <= bound, ("rfft", K, L)

        Y = rng.normal(size=half.size) + 1j * rng.normal(size=half.size)
        Y[0] = Y[0].real
        if L % 2 == 0:
            Y[-1] = Y[-1].real
        full = np.concatenate([Y, np.conj(Y[1 : (L + 1) // 2][::-1])])
        want = (roots[np.outer(np.arange(L), np.arange(L)) % L] @ full.astype(np.clongdouble)).real / L
        err = np.fft.irfft(Y, L) - want
        bound = tp.fft_error_bound(L, float(np.linalg.norm(full))) / L
        assert float(np.sqrt(np.sum(err**2))) <= bound, ("irfft", K, L)
        radices |= {q for q in (2, 3, 5) if L % q == 0}
    assert radices == {2, 3, 5}


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=0, max_value=200),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       shift=st.floats(min_value=-3.0, max_value=3.0))
def test_min_lower_bound_property(n, seed, shift):
    p = hermitian_poly(np.random.default_rng(seed), n, decay=1.0)
    p = p + shift * (np.arange(-n, n + 1) == 0)
    assert tp.min_lower_bound(p[n:]) <= fine_min(p)


def test_bad_coeff_length():
    # an empty half has no c_0, so no order: the sampler refuses one such
    # row or a stack of them before its first phase, where fast_len(-1)
    # would give it a grid of zeros; an even-length row has no centre
    # coefficient, and the oracles' complex layout refuses it
    for halves in (np.ones(0), np.ones((2, 0))):
        with pytest.raises(ValueError, match="empty"):
            next(tp.phases(halves, 2))
    for rows in (np.ones(6), np.ones((2, 6))):
        with pytest.raises(ValueError, match="odd length"):
            to_grid(rows, 16)
