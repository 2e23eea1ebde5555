"""Tests for the Gram-matrix calculus."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import supres.budget as budget
import supres.gram as gram
import supres.trigpoly as tp
from supres.certificate import (AtomicMeasure, Certificate, eta_coeffs, solve_certificate,
                               system_norm_bounds)
from supres.gram import (
    IllConditioned,
    SingularGram,
    _dense_gram,
    _projector_factor,
    _step_work,
    _t_ptp,
    _weights,
    assemble_and_verify,
    p_err,
    x_corr,
)

from oracles import (
    _sigma_matrix,
    eval_direct,
    eval_eta,
    freqs,
    lambda_min_AAtilde,
    norm_W,
    op_A,
    op_Atilde_star,
    op_T,
    op_Ttilde_star,
    projector_PUperp,
    quad_form_poly,
    t_ptp,
)
from test_certificate import random_measure

# twelve atoms at n = 128 near the separation limit, alternating signs: here
# 1 + d min zeta^ < 0, so the symbol floor cannot prove Q PSD, and the dense
# route finds lambda_13(Q) near 0.705/d
FALLBACK = AtomicMeasure(
    128, (0.2266, 0.3078, 0.3901, 0.4722, 0.5542, 0.637, 0.7199, 0.8029, 0.8847,
          0.9732, 0.0552, 0.1393), (1.0, -1.0) * 6)


def well_separated(rng, n, size):
    return random_measure(rng, n, size, max(4 * np.log(size + 1) / n, 0.05))


def cg_zeta(c):
    """The Toeplitz coefficients of c's correction, through gram.x_corr (so a
    monkeypatch of it applies), and the measure's projector factor."""
    f = _projector_factor(c.measure)
    zeta, _ = gram.x_corr(f, p_err(c, f))
    return zeta, f


def dense_gram(c):
    """The dense Q of c's gram report, from the dense route's builder."""
    zeta, f = cg_zeta(c)
    return _dense_gram(f, zeta)


def random_poly(rng, order):
    c = rng.normal(size=2 * order + 1) + 1j * rng.normal(size=2 * order + 1)
    return tp.TrigPoly(order, c)


def hermitian_poly(rng, order):
    p = random_poly(rng, order)
    return tp.TrigPoly(order, (p.coeffs + np.conj(p.coeffs[::-1])) / 2)


def perr_of(c):
    """p_err of a certificate against its measure's projector factor."""
    return p_err(c, _projector_factor(c.measure))


def toep(z):
    """Dense Toeplitz matrix with entries z_{k-l}, z on -2n..2n."""
    d = (z.size + 1) // 2
    idx = np.arange(d)
    return z[idx[:, None] - idx[None, :] + d - 1]


def x_corr_dense(m, pe):
    """The coefficients x_corr returns, lifted to the dense X = P Toep(zeta) P."""
    zeta, _ = x_corr(_projector_factor(m), pe)
    P = projector_PUperp(m)
    return P @ toep(zeta) @ P


def is_hermitian(H, tol=1e-12):
    scale = max(1.0, float(np.max(np.abs(H))))
    return bool(np.max(np.abs(H - H.conj().T)) <= tol * scale)


def residual_rel(m, X, pe):
    """|A(X) - conj(p_err)| / |p_err|, absolute when p_err is numerically zero."""
    r = np.linalg.norm(op_A(m, X).coeffs - np.conj(pe.coeffs))
    scale = np.linalg.norm(pe.coeffs)
    return r / scale if scale > 1e-13 else r


def kernel_poly(n, tau):
    """Order-2n polynomial whose conjugate coefficients w_s e^{2 pi i s tau}
    span one analytic-kernel direction of A A~* for an atom at tau."""
    s = np.arange(-2 * n, 2 * n + 1)
    return tp.TrigPoly(2 * n, (2 * n + 1 - np.abs(s)) * np.exp(-2j * np.pi * s * tau))


def dense_x_corr(m, pe):
    """X = P Toep(zeta) P with zeta from a dense eigendecomposition
    pseudo-inverse of the weighted normal matrix, kernel cut at 1e-8."""
    P = projector_PUperp(m)
    rw = 1 / np.sqrt(_weights(m.n))
    lam, V = np.linalg.eigh(rw[:, None] * _sigma_matrix(P) * rw[None, :])
    inv = np.where(lam > 1e-8 * lam[-1], 1 / lam, 0.0)
    zeta = rw * (V @ (inv * (V.conj().T @ (rw * np.conj(pe.coeffs)))))
    return P @ toep(zeta) @ P


class TestOpT:
    def test_identity_matrix(self):
        d = 8
        p = op_T(np.eye(d, dtype=complex))
        assert p.coeffs[p.n] == d
        off = np.delete(p.coeffs, p.n)
        assert np.all(off == 0)

    def test_rank_one_outer_product(self):
        n, tau = 11, 0.37
        k = np.arange(n + 1)
        psi = np.exp(2j * np.pi * k * tau)
        p = op_T(np.outer(psi, psi.conj()))
        s = freqs(p)
        expected = (n + 1 - np.abs(s)) * np.exp(2j * np.pi * s * tau)
        np.testing.assert_allclose(p.coeffs, expected, atol=1e-12)

    def test_right_inverse_roundtrip(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            p = random_poly(rng, int(rng.integers(1, 40)))
            back = op_T(op_Ttilde_star(p))
            np.testing.assert_allclose(back.coeffs, p.coeffs, atol=1e-12)


class TestOpTtildeStar:
    def test_scaled_delta_gives_identity(self):
        n = 9
        c = np.zeros(2 * n + 1, dtype=complex)
        c[n] = n + 1
        M = op_Ttilde_star(tp.TrigPoly(n, c))
        np.testing.assert_allclose(M, np.eye(n + 1), atol=1e-14)

    def test_hermitian_iff_hermitian_coeffs(self):
        rng = np.random.default_rng(3)
        assert is_hermitian(op_Ttilde_star(hermitian_poly(rng, 12)))
        skew = random_poly(rng, 12)
        skew = tp.TrigPoly(12, skew.coeffs + 1.0)  # break symmetry decisively
        if np.allclose(skew.coeffs, np.conj(skew.coeffs[::-1])):
            pytest.skip("rng produced Hermitian input")
        assert not is_hermitian(op_Ttilde_star(skew))


class TestNormW:
    def test_constant(self):
        n = 15
        c = np.zeros(2 * n + 1, dtype=complex)
        c[n] = 1.0
        assert norm_W(tp.TrigPoly(n, c)) == pytest.approx(1 / np.sqrt(n + 1))

    def test_top_frequency(self):
        n = 15
        c = np.zeros(2 * n + 1, dtype=complex)
        c[-1] = 1.0
        assert norm_W(tp.TrigPoly(n, c)) == pytest.approx(1.0)

    def test_perr_small_for_well_separated_pair(self):
        c = solve_certificate(AtomicMeasure(256, (0.2, 0.6), (1.0, 1.0)))
        assert norm_W(perr_of(c)) <= 1 / 256


class TestProjector:
    def test_empty_measure_identity(self):
        P = projector_PUperp(AtomicMeasure(16, (), ()))
        np.testing.assert_array_equal(P, np.eye(33))

    def test_projector_algebra(self):
        m = well_separated(np.random.default_rng(5), 96, 3)
        P = projector_PUperp(m)
        assert is_hermitian(P, 1e-12)
        assert np.max(np.abs(P @ P - P)) < 1e-8
        assert np.trace(P).real == pytest.approx(P.shape[0] - m.size, abs=1e-8)

    def test_annihilates_atoms(self):
        m = well_separated(np.random.default_rng(6), 96, 3)
        P = projector_PUperp(m)
        k = np.arange(-m.n, m.n + 1)
        for t in m.atoms:
            psi = np.exp(2j * np.pi * k * t)
            assert np.linalg.norm(P @ psi) < 1e-9

    def test_near_coincident_atoms_rejected(self):
        m = AtomicMeasure(16, (0.3, 0.3 + 1e-13), (1.0, 1.0))
        with pytest.raises(SingularGram):
            projector_PUperp(m)


class TestQuadForm:
    def test_matches_pointwise_form(self):
        # Regression for the evaluation orientation: psi* H psi is real for
        # Hermitian H but not an even function, so the plain diagonal sums
        # evaluated at +theta are wrong.
        rng = np.random.default_rng(9)
        d = 11
        H = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        H = (H + H.conj().T) / 2
        thetas = rng.uniform(0, 1, size=7)
        k = np.arange(-5, 6)
        for th in thetas:
            psi = np.exp(2j * np.pi * k * th)
            direct = (psi.conj() @ H @ psi).real
            assert eval_direct(quad_form_poly(H), th).real == pytest.approx(direct, abs=1e-10)

    def test_orientation_counterexample(self):
        H = np.array([[0.0, 1j], [-1j, 0.0]])
        th = 0.2
        # psi* H psi(theta) = -2 sin(2 pi theta); the unreflected diagonal
        # sums evaluate to +2 sin(2 pi theta)
        assert eval_direct(quad_form_poly(H), th).real == pytest.approx(-2 * np.sin(2 * np.pi * th))
        assert eval_direct(op_T(H), th).real == pytest.approx(2 * np.sin(2 * np.pi * th))


class TestOpA:
    def test_empty_measure_roundtrip(self):
        rng = np.random.default_rng(21)
        m = AtomicMeasure(10, (), ())
        p = random_poly(rng, 20)
        back = op_A(m, op_Atilde_star(m, p))
        np.testing.assert_allclose(back.coeffs, p.coeffs, atol=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(22)
        m = well_separated(rng, 24, 2)
        d = 2 * m.n + 1
        X = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        Y = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        np.testing.assert_allclose(
            op_A(m, X + Y).coeffs, op_A(m, X).coeffs + op_A(m, Y).coeffs, atol=1e-12
        )

    def test_dims_must_match(self):
        m = AtomicMeasure(8, (0.5,), (1.0,))
        with pytest.raises(ValueError):
            op_Atilde_star(m, tp.TrigPoly(8, np.zeros(17, dtype=complex)))

    def test_composition_hermitian_psd_dense(self):
        # Dense matrix of A A~* on coefficient space at n=32, via the
        # weighted symmetrization; eigenvalues must be real nonnegative.
        m = AtomicMeasure(32, (0.25, 0.7), (1.0, 1.0))
        S = _sigma_matrix(projector_PUperp(m))
        assert np.max(np.abs(S - S.conj().T)) < 1e-10
        rw = 1 / np.sqrt(_weights(m.n))
        eigs = np.linalg.eigvalsh(rw[:, None] * S * rw[None, :])
        assert eigs[0] > -1e-10

    def test_dense_representation_against_column_map(self):
        # The FFT-built matrix must agree with assembling A(A~*(e_s)) column
        # by column through the operator definitions.
        m = AtomicMeasure(6, (0.3,), (1.0,))
        n = m.n
        dim = 4 * n + 1
        S = _sigma_matrix(projector_PUperp(m))
        w = _weights(n)
        cols = np.zeros((dim, dim), dtype=complex)
        for j in range(dim):
            e = np.zeros(dim, dtype=complex)
            e[j] = 1.0
            cols[:, j] = op_A(m, op_Atilde_star(m, tp.TrigPoly(2 * n, e))).coeffs
        np.testing.assert_allclose(S / w[None, :], cols, atol=1e-12)


class TestFFTOperator:
    @pytest.mark.parametrize("n, size", [(1, 0), (1, 1), (9, 2), (16, 5), (48, 0),
                                         (48, 1), (48, 2), (48, 5), (33, 5)])
    def test_matches_dense_oracle(self, n, size):
        # T(P Toep(z) P) by FFT against op_A on the dense Toeplitz matrix:
        # the general step of the oracles for random complex z, the
        # package's Hermitian step for Hermitian z; and p_err by FFT against
        # (1 - |eta|^2) by np.convolve minus conj(op_T(P)) / dim
        rng = np.random.default_rng(100 * n + size)
        spread = (np.arange(size) + rng.uniform(-0.1, 0.1, size)) / max(size, 1)
        atoms = (rng.uniform() + spread) % 1
        m = AtomicMeasure(n, tuple(atoms), (1.0,) * size)
        f = _projector_factor(m)
        P = projector_PUperp(m)
        z, zh = random_poly(rng, 2 * n).coeffs, hermitian_poly(rng, 2 * n).coeffs
        for got, z in ((t_ptp(f, z), z), (_t_ptp(f, zh, _step_work(f)), zh)):
            want = op_A(m, toep(z)).coeffs
            np.testing.assert_allclose(got, want, rtol=0,
                                       atol=1e-13 * float(np.max(np.abs(want))))
        c = Certificate(m, rng.normal(size=size), rng.normal(size=size) / n)
        e = eta_coeffs(c).coeffs
        want = -np.convolve(e, np.conj(e)[::-1]) - np.conj(op_T(P).coeffs) / (2 * n + 1)
        want[2 * n] += 1.0
        np.testing.assert_allclose(p_err(c, f).coeffs, want, rtol=0, atol=1e-12 * n)

    @pytest.mark.parametrize("size", [0, 1, 5, 12])
    def test_step_takes_2s_plus_2_ffts(self, monkeypatch, size):
        # one Hermitian step transforms z, then one inverse and one forward
        # batch of |S| rows, then the summed spectrum: 2|S| + 2 FFTs, where
        # the general step takes 4|S| + 2
        rng = np.random.default_rng(size)
        m = AtomicMeasure(96, tuple((0.3 + np.arange(size) / 12) % 1), (1.0,) * size)
        f = _projector_factor(m)
        count = 0

        def counting(transform):
            def counted(a, *args, **kwargs):
                nonlocal count
                count += np.size(a) // np.shape(a)[-1]
                return transform(a, *args, **kwargs)
            return counted

        for name in ("fft", "ifft"):
            monkeypatch.setattr(np.fft, name, counting(getattr(np.fft, name)))
        _t_ptp(f, hermitian_poly(rng, 2 * m.n).coeffs, _step_work(f))
        assert count == 2 * size + 2

    def test_factor_spans_projector_complement(self):
        m = well_separated(np.random.default_rng(7), 40, 4)
        V = _projector_factor(m).V
        np.testing.assert_allclose(V.conj().T @ V, np.eye(4), atol=1e-12)
        k = np.arange(-m.n, m.n + 1)
        U = np.exp(2j * np.pi * np.outer(k, m.atoms))
        np.testing.assert_allclose(V @ (V.conj().T @ U), U, atol=1e-10)


class TestPErr:
    def test_empty_measure_zero(self):
        m = AtomicMeasure(16, (), ())
        c = Certificate(m, np.zeros(0), np.zeros(0))
        assert np.max(np.abs(perr_of(c).coeffs)) < 1e-12

    def test_vanishes_at_atoms(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            m = well_separated(rng, 64, 2)
            pe = perr_of(solve_certificate(m))
            for t in m.atoms:
                assert abs(eval_direct(pe, t)) < 1e-9

    def test_real_valued(self):
        m = AtomicMeasure(48, (0.1, 0.55), (1.0, -1.0))
        pe = perr_of(solve_certificate(m))
        grid = np.linspace(0, 1, 257)
        assert np.max(np.abs(eval_direct(pe, grid).imag)) < 1e-12

    def test_single_atom_identically_zero(self):
        # One atom: psi* P psi / dim collapses to 1 - |D|^2 = 1 - |eta|^2
        c = solve_certificate(AtomicMeasure(32, (0.27,), (1.0,)))
        assert np.max(np.abs(perr_of(c).coeffs)) < 1e-14


class TestXCorr:
    def test_zero_input_zero_output(self):
        m = AtomicMeasure(16, (0.4,), (1.0,))
        X = x_corr_dense(m, tp.TrigPoly(32, np.zeros(65, dtype=complex)))
        assert np.max(np.abs(X)) < 1e-14

    def test_residual_two_atoms(self):
        m = AtomicMeasure(128, (0.2, 0.6), (1.0, 1.0))
        pe = perr_of(solve_certificate(m))
        X = x_corr_dense(m, pe)
        assert is_hermitian(X, 1e-10)
        assert residual_rel(m, X, pe) <= 1e-8

    def test_matches_dense_pseudo_inverse(self):
        # targets: a random one in the range of A, and the certificate's
        # p_err wherever the atoms are within the certificate's separation
        # limit (n = 16 with five atoms is not)
        rng = np.random.default_rng(44)
        for n in (16, 48, 96):
            d = 2 * n + 1
            for size in (1, 2, 3, 5):
                atoms = (rng.uniform() + (np.arange(size) + rng.uniform(-0.1, 0.1, size)) / size) % 1
                m = AtomicMeasure(n, tuple(atoms), tuple(np.exp(2j * np.pi * rng.uniform(size=size))))
                Y = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
                Y = Y + Y.conj().T
                targets = [tp.TrigPoly(2 * n, np.conj(op_A(m, Y).coeffs))]
                if system_norm_bounds(m)["operator_norm"] < 1:
                    targets.append(perr_of(solve_certificate(m)))
                for pe in targets:
                    want = dense_x_corr(m, pe)
                    np.testing.assert_allclose(
                        x_corr_dense(m, pe), want, rtol=0,
                        atol=1e-10 * float(np.max(np.abs(want))) + 1e-15,
                        err_msg=f"n={n}, |S|={size}")

    def test_hermitian_step_matches_general_step(self, monkeypatch):
        # x_corr on the package's Hermitian step and on the oracles' general
        # step: the same iteration count and zeta up to rounding
        rng = np.random.default_rng(18)
        measures = [well_separated(rng, n, size) for n, size in
                    ((16, 1), (16, 2), (32, 3), (64, 5), (128, 8), (256, 12))]
        measures += [FALLBACK, AtomicMeasure(512, (0.3, 0.61), (1.0, 1j))]
        cases = []
        for m in measures:
            f = _projector_factor(m)
            cases.append((m, f, p_err(solve_certificate(m), f)))
        fast = [x_corr(f, pe) for _, f, pe in cases]
        monkeypatch.setattr(gram, "_t_ptp", lambda f, z, work: t_ptp(f, z))
        for (m, f, pe), (zeta, iters) in zip(cases, fast):
            want, want_iters = x_corr(f, pe)
            assert iters == want_iters, f"n={m.n}, |S|={m.size}"
            assert np.max(np.abs(zeta - want)) <= 1e-12 * np.max(np.abs(want)), \
                f"n={m.n}, |S|={m.size}"

    def test_rhs_off_the_range_raises(self):
        # a component along the analytic kernel leaves A(X) = conj(perr) with
        # no solution: CG stalls at that component's norm and must not
        # return an X
        m = AtomicMeasure(32, (0.2, 0.6), (1.0, 1.0))
        pe = perr_of(solve_certificate(m))
        off = tp.TrigPoly(2 * m.n, pe.coeffs + 1e-3 * kernel_poly(m.n, m.atoms[0]).coeffs)
        with pytest.raises(IllConditioned, match="did not converge"):
            x_corr(_projector_factor(m), off)

    def test_quadratic_form_reproduces_perr(self):
        # The correction is defined by psi* X psi = p_err pointwise, which
        # in diagonal-sum coefficients reads A(X) = conj(p_err).
        m = AtomicMeasure(48, (0.15, 0.62), (1.0, 1.0))
        pe = perr_of(solve_certificate(m))
        X = x_corr_dense(m, pe)
        grid = np.linspace(0, 1, 401)
        lhs = eval_direct(quad_form_poly(X), grid).real
        rhs = eval_direct(pe, grid).real
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_frobenius_bound_chain(self):
        rng = np.random.default_rng(41)
        for _ in range(6):
            m = well_separated(rng, int(rng.integers(32, 72)), int(rng.integers(1, 4)))
            pe = perr_of(solve_certificate(m))
            X = x_corr_dense(m, pe)
            lam = lambda_min_AAtilde(m)
            fro = np.linalg.norm(X, "fro")
            assert fro <= norm_W(pe) / np.sqrt(lam) + 1e-12

    def test_order_must_match(self):
        m = AtomicMeasure(16, (0.4,), (1.0,))
        with pytest.raises(ValueError):
            x_corr(_projector_factor(m), tp.TrigPoly(16, np.zeros(33, dtype=complex)))


class TestAssemble:
    def test_two_atom_report(self):
        c = solve_certificate(AtomicMeasure(128, (0.2, 0.6), (1.0, 1.0)))
        rep = assemble_and_verify(c)
        assert rep["sup_poly_err"] <= 1e-8
        assert rep["psd_rigorous"] is True
        assert rep["min_eig"] == 0.0
        assert 0 < rep["psd_floor"] <= 1 / 257
        assert is_hermitian(dense_gram(c), 1e-12)
        assert rep["residual_rel"] <= 1e-8

    def test_residual_matches_projected_form(self):
        # residual_rel comes from the FFT operator T(P Toep(zeta) P); it must
        # equal the residual of the dense oracle op_A on the lifted correction
        for atoms in ((0.2, 0.6), (0.1, 0.45, 0.8)):
            m = AtomicMeasure(64, atoms, (1.0,) * len(atoms))
            c = solve_certificate(m)
            pe = perr_of(c)
            want = residual_rel(m, x_corr_dense(m, pe), pe)
            assert assemble_and_verify(c)["residual_rel"] == pytest.approx(want, rel=1e-3, abs=1e-15)

    def test_single_atom_target_is_rounding_noise(self):
        c = solve_certificate(AtomicMeasure(64, (0.37,), (1.0,)))
        rep = assemble_and_verify(c)
        assert rep["residual_rel"] < 1e-15
        assert rep["rank_deficiency"] == 1

    def test_over_memory_cap_refused_before_allocating(self):
        import tracemalloc

        c = solve_certificate(AtomicMeasure(10**12, (0.3,), (1.0,)))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="GB"):
                assemble_and_verify(c)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_memory_cap_admits_n_512(self):
        rep = assemble_and_verify(solve_certificate(AtomicMeasure(512, (0.3, 0.61), (1.0, 1j))))
        assert rep["psd_rigorous"] is True
        assert rep["rank_deficiency"] == 2
        assert rep["sup_poly_err"] <= 1e-8

    def test_dense_route_over_memory_cap_refused(self, monkeypatch):
        # the d^2 budget applies only where the symbol floor fails: with the
        # cap just below the dense Q of the fallback measure, its report is
        # refused, and a measure the floor proves still passes
        monkeypatch.setattr(budget, "CAP_BYTES", gram._GRAM_BYTES_PER_ENTRY * 257**2 - 1)
        with pytest.raises(ValueError, match="GB"):
            assemble_and_verify(solve_certificate(FALLBACK))
        rep = assemble_and_verify(solve_certificate(AtomicMeasure(128, (0.2, 0.6), (1.0, 1.0))))
        assert rep["verified"] is True

    def test_cg_iteration_count(self):
        # one atom: p_err is rounding noise below the CG floor, so CG stops
        # before its first step
        rep = assemble_and_verify(solve_certificate(AtomicMeasure(64, (0.37,), (1.0,))))
        assert rep["cg_iters"] == 0
        rng = np.random.default_rng(61)
        for _ in range(4):
            m = well_separated(rng, int(rng.integers(32, 128)), int(rng.integers(2, 5)))
            iters = assemble_and_verify(solve_certificate(m))["cg_iters"]
            assert 0 < iters <= 200

    def test_atoms_in_kernel(self):
        m = AtomicMeasure(64, (0.3, 0.75), (1.0, 1.0))
        Q = dense_gram(solve_certificate(m))
        k = np.arange(-m.n, m.n + 1)
        for t in m.atoms:
            psi = np.exp(2j * np.pi * k * t)
            assert np.linalg.norm(Q @ psi) < 1e-7

    def test_psd_when_correction_small(self):
        rng = np.random.default_rng(51)
        for _ in range(4):
            m = well_separated(rng, int(rng.integers(48, 96)), 2)
            c = solve_certificate(m)
            X = x_corr_dense(m, perr_of(c))
            if np.linalg.norm(X, "fro") <= 0.5 / (m.n + 1):
                rep = assemble_and_verify(c)
                assert rep["min_eig"] >= -1e-9

    def test_rank_deficiency_counts_atom_kernel(self):
        m = AtomicMeasure(64, (0.3, 0.75), (1.0, 1.0))
        rep = assemble_and_verify(solve_certificate(m))
        assert rep["rank_deficiency"] >= m.size

    def test_off_diagonal_perturbation_caught(self, monkeypatch):
        # a Hermitian eps on zeta at s = +-1 moves T(Q) by T(P Toep(delta) P),
        # so the l1 defect is the l1 norm of that oracle image, and it bounds
        # the pointwise defect of the dense Q everywhere
        eps = 1e-6
        real_x_corr = gram.x_corr
        m = AtomicMeasure(64, (0.2, 0.6), (1.0, 1j))
        delta = np.zeros(4 * m.n + 1, dtype=complex)
        delta[2 * m.n - 1] = delta[2 * m.n + 1] = eps

        def perturbed(f, perr):
            zeta, iters = real_x_corr(f, perr)
            return zeta + delta, iters

        monkeypatch.setattr(gram, "x_corr", perturbed)
        c = solve_certificate(m)
        rep = assemble_and_verify(c)
        assert rep["sup_poly_err"] > 1e-8
        want = np.sum(np.abs(op_A(m, toep(delta)).coeffs))
        assert rep["sup_poly_err"] == pytest.approx(want, rel=1e-6)
        theta = np.linspace(0.0, 1.0, 1001)
        pointwise = np.abs(eval_direct(quad_form_poly(dense_gram(c)), theta).real
                           - (1.0 - np.abs(eval_eta(c, theta)[0]) ** 2))
        assert np.max(pointwise) <= rep["sup_poly_err"] + 1e-12
        assert np.max(pointwise) > eps

    def test_verdicts_follow_thresholds(self, monkeypatch):
        # MIN_EIG_FLOOR judges only the dense route's eigenvalue estimate; a
        # proof by the symbol floor does not depend on it
        c = solve_certificate(AtomicMeasure(64, (0.2, 0.6), (1.0, 1j)))
        rep = assemble_and_verify(c)
        assert (rep["atom_count"], rep["n"]) == (2, 64)
        assert rep["psd_rigorous"] is True
        assert rep["sup_poly_err"] <= gram.SUP_POLY_ERR_TOL
        assert rep["psd_ok"] is rep["defect_ok"] is rep["verified"] is True
        fb = solve_certificate(FALLBACK)
        dense = assemble_and_verify(fb)
        assert dense["psd_rigorous"] is False
        assert dense["min_eig"] >= gram.MIN_EIG_FLOOR
        assert dense["psd_ok"] is dense["defect_ok"] is dense["verified"] is True

        monkeypatch.setattr(gram, "MIN_EIG_FLOOR", dense["min_eig"] + 1e-12)
        bad = assemble_and_verify(fb)
        assert (bad["psd_ok"], bad["defect_ok"], bad["verified"]) == (False, True, False)
        assert assemble_and_verify(c)["verified"] is True

        monkeypatch.setattr(gram, "MIN_EIG_FLOOR", dense["min_eig"] - 1e-12)
        monkeypatch.setattr(gram, "SUP_POLY_ERR_TOL", rep["sup_poly_err"] / 2)
        bad = assemble_and_verify(c)
        assert (bad["psd_ok"], bad["defect_ok"], bad["verified"]) == (True, False, False)


def separation_limit(n, size):
    """Separation below which solve_certificate raises SeparationTooSmall."""
    return (np.sqrt(3) + 9 / 4) * np.log(size) / n


def near_limit_measure(rng, n, size):
    """Random measure whose separation is drawn log-uniformly between 1.05
    times the SeparationTooSmall limit and even spacing (scaled by 0.999,
    which random_measure needs to leave room for its slack)."""
    if size == 1:
        return random_measure(rng, n, 1, 0.0)
    lo, hi = 1.05 * separation_limit(n, size), 0.999 / size
    return random_measure(rng, n, size, np.exp(rng.uniform(np.log(lo), np.log(hi))))


class TestSymbolFloor:
    def test_fallback_measure_takes_dense_route(self):
        c = solve_certificate(FALLBACK)
        zeta, _ = cg_zeta(c)
        symbol = tp.TrigPoly(2 * c.n, zeta)
        # the floor fails because the symbol itself dips below -1/d, not
        # because its lower bound is loose
        assert 257 * tp.eval_grid(symbol, 64 * tp.fast_len(8 * 513)).real.min() < -1
        rep = assemble_and_verify(c)
        assert rep["psd_rigorous"] is False
        assert rep["verified"] is True
        assert rep["rank_deficiency"] == 12
        eigs = np.linalg.eigvalsh(dense_gram(c))
        assert rep["min_eig"] == eigs[0]
        assert rep["psd_floor"] == eigs[12]
        assert 0.69 < 257 * rep["psd_floor"] < 0.72

    def test_floor_below_cg_symbol_minimum(self):
        # the lower bound on min zeta^ for the zeta CG returns, against zeta^
        # on a 64x finer grid, at measures on both routes
        rng = np.random.default_rng(71)
        measures = [FALLBACK, AtomicMeasure(128, (0.2, 0.6), (1.0, 1.0))]
        measures += [near_limit_measure(rng, n, size) for n, size in ((32, 2), (96, 5), (160, 8))]
        for m in measures:
            zeta, _ = cg_zeta(solve_certificate(m))
            symbol = tp.TrigPoly(2 * m.n, zeta)
            fine = tp.eval_grid(symbol, 64 * tp.fast_len(8 * (4 * m.n + 1))).real.min()
            assert tp.min_lower_bound(symbol) <= fine

    def test_floor_below_dense_oracle_on_random_measures(self):
        # seeded property test: psd_floor never exceeds lambda_{|S|+1} of the
        # dense Q, and a positive floor leaves exactly the |S| atom directions
        # in the oracle's numerical kernel
        rng = np.random.default_rng(20)
        for _ in range(60):
            n = int(rng.integers(16, 161))
            fits = [s for s in range(1, 9) if s * 1.05 * separation_limit(n, s) < 0.999]
            size = int(rng.choice(fits))
            c = solve_certificate(near_limit_measure(rng, n, size))
            rep = assemble_and_verify(c)
            eigs = np.linalg.eigvalsh(dense_gram(c))
            assert rep["psd_floor"] <= eigs[size] + 1e-12, (n, size)
            if rep["psd_floor"] > 0:
                assert np.sum(eigs < 1e-8 * np.max(np.abs(eigs))) == size, (n, size)


class TestLambdaMin:
    def test_empty_measure_is_one(self):
        assert lambda_min_AAtilde(AtomicMeasure(16, (), ())) == pytest.approx(1.0, abs=1e-10)

    def test_single_atom_value(self):
        val = lambda_min_AAtilde(AtomicMeasure(64, (0.5,), (1.0,)))
        assert val >= 0.1
        assert val == pytest.approx(2 / 3, abs=1e-9)

    def test_two_atom_value(self):
        val = lambda_min_AAtilde(AtomicMeasure(64, (0.2, 0.5), (1.0, 1.0)))
        assert val >= 0.1
        assert val == pytest.approx(0.6664125947028704, abs=1e-9)

    def test_kernel_dimension_two_per_atom(self):
        m = AtomicMeasure(24, (0.2, 0.55), (1.0, 1.0))
        S = _sigma_matrix(projector_PUperp(m))
        rw = 1 / np.sqrt(_weights(m.n))
        eigs = np.linalg.eigvalsh(rw[:, None] * S * rw[None, :])
        assert np.max(np.abs(eigs[: 2 * m.size])) < 1e-10
        assert eigs[2 * m.size] > 0.1


@settings(max_examples=100, deadline=None)
@given(
    order=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_t_ttilde_identity_property(order, seed):
    p = random_poly(np.random.default_rng(seed), order)
    back = op_T(op_Ttilde_star(p))
    assert np.max(np.abs(back.coeffs - p.coeffs)) < 1e-12 * max(1.0, np.max(np.abs(p.coeffs)))


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(min_value=32, max_value=80),
    size=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_correction_pipeline_property(n, size, seed):
    m = well_separated(np.random.default_rng(seed), n, size)
    c = solve_certificate(m)
    pe = perr_of(c)
    X = x_corr_dense(m, pe)
    assert residual_rel(m, X, pe) <= 1e-8
    lam = lambda_min_AAtilde(m)
    assert np.linalg.norm(X, "fro") <= norm_W(pe) / np.sqrt(lam) + 1e-12
