import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from supres import gram
from supres import qk_operator as qk
from supres import trigpoly as tp
from supres.budget import BudgetExceeded
from supres.certificate import AtomicMeasure


def e_by_quadrature(c):
    re = quad(lambda u: (np.cos(np.pi * c * u) - 1.0) / u, 0.0, 1.0)[0]
    im = quad(lambda u: np.sin(np.pi * c * u) / u, 0.0, 1.0)[0]
    return complex(re, im)


class TestEntry:
    def test_origin_is_one(self):
        assert qk.qk_entry(8, 0, 0) == 1.0 + 0j

    def test_center_row_is_e0(self):
        for l2 in range(-8, 9):
            expect = 1.0 if l2 == 0 else 0.0
            assert qk.qk_entry(8, 0, l2) == expect

    def test_spot_values(self):
        assert qk.qk_entry(8, 1, 0).real == pytest.approx(0.262737031, abs=1e-9)
        assert qk.qk_entry(8, 1, 3).real == pytest.approx(0.150881120769, abs=1e-11)
        assert qk.qk_entry(8, 3, 1).real == pytest.approx(-0.035546883, abs=1e-9)
        assert qk.qk_entry(8, -1, 2).real == pytest.approx(0.150881120769, abs=1e-11)

    def test_entries_are_real(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            l1, l2 = rng.integers(-10, 11, size=2)
            assert qk.qk_entry(10, int(l1), int(l2)).imag == 0.0

    def test_even_rows_vanish_exactly(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            l1 = 2 * int(rng.integers(1, 10)) * int(rng.choice([-1, 1]))
            l2 = int(rng.integers(-20, 21))
            assert qk.qk_entry(20, l1, l2) == 0.0 + 0j

    def test_p0_term_only_on_center_column(self):
        for l1 in range(-6, 7):
            for l2 in range(-6, 7):
                part = qk.qk_p0_term(l1, l2)
                if l2 != 0:
                    assert part == 0.0
        assert qk.qk_p0_term(1, 0) == pytest.approx(4.0 / np.pi**2)
        assert qk.qk_p0_term(2, 0) == 0.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            qk.qk_entry(5, 6, 0)
        with pytest.raises(ValueError):
            qk.qk_entry(5, 0, -6)

    def test_against_quadrature(self):
        # rebuild the (1, 3) entry from adaptive quadrature of the defining
        # integrals instead of the cosine-integral shortcut
        l1, l2 = 1, 3
        D = qk.dirichlet_limit(l1)
        s1 = (
            (-1.0) ** l2 * (e_by_quadrature(l2) - e_by_quadrature(l2 - l1))
            + (-1.0) ** (l1 + l2) * (e_by_quadrature(l1 - l2) - e_by_quadrature(-l2))
        ) / (2j * np.pi * l1)
        val = 2.0 * np.real(D * s1)
        assert val == pytest.approx(qk.qk_entry(8, l1, l2).real, abs=1e-8)


class TestDense:
    def test_matches_entry_route(self):
        K = 12
        Q = qk.qk_dense(K)
        for i1, l1 in enumerate(range(-K, K + 1)):
            for i2, l2 in enumerate(range(-K, K + 1)):
                assert Q[i1, i2] == pytest.approx(
                    qk.qk_entry(K, l1, l2).real, abs=1e-12
                )

    def test_central_symmetry(self):
        Q = qk.qk_dense(30)
        assert np.array_equal(Q, Q[::-1, ::-1])

    def test_memory_cap(self):
        # (2K+1)^2 entries of 24 bytes: 3.5 GB at K = 6000
        with pytest.raises(BudgetExceeded):
            qk.qk_dense(6000)


class TestFiniteN:
    def test_requires_fine_grid(self):
        with pytest.raises(ValueError):
            qk.qk_finite_n(10, 39)

    def test_center_row_exact_at_finite_n(self):
        M = qk.qk_finite_n(6, 64)
        e0 = np.zeros(13)
        e0[6] = 1.0
        assert np.max(np.abs(M[6, :] - e0)) < 1e-12

    def test_converges_to_limit(self):
        Q = qk.qk_dense(8)
        errs = [np.max(np.abs(qk.qk_finite_n(8, n) - Q)) for n in (256, 512, 1024)]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 6e-4

    def test_matches_toeplitz_composition(self):
        # each column is p - A(A~*(p)) sampled on the grid, with p a translated
        # Dirichlet kernel and the operators taken from the gram module for a
        # single atom at the origin (centered half-order 32 spans the same
        # 65-dimensional space as the one-sided degree-64 construction)
        K, n = 8, 64
        m = AtomicMeasure(32, (0.0,), (1.0 + 0j,))
        M = qk.qk_finite_n(K, n)
        d = 2 * n + 1
        s = np.arange(-n, n + 1)
        thetas = np.arange(-K, K + 1) / d
        for l2 in (-5, 0, 3):
            p = tp.TrigPoly(n, np.exp(-2j * np.pi * s * (l2 / d)) / d)
            q = gram.op_A(m, gram.op_Atilde_star(m, p))
            direct = tp.eval(p, thetas).real - tp.eval(q, thetas).real
            assert np.max(np.abs(M[:, l2 + K] - direct)) < 1e-12


class TestProjector:
    def test_algebra(self):
        p = qk.build_pinf(50)
        M = p.matrix()
        assert np.max(np.abs(M @ M - M)) < 1e-14
        assert np.array_equal(M, M.T)
        assert np.sum(np.linalg.eigvalsh(M) > 0.5) == 2

    def test_vector_shape(self):
        p = qk.build_pinf(20)
        assert p.w[20] == 0.0
        assert np.linalg.norm(p.w) == pytest.approx(1.0, abs=1e-14)
        # entries fall off like 1/k with alternating sign
        assert p.w[21] < 0 < p.w[22]
        assert p.w[21] == pytest.approx(3.0 * p.w[23], rel=1e-12)
        assert p.w[19] == pytest.approx(-p.w[21], rel=1e-12)

    def test_fixes_e0(self):
        p = qk.build_pinf(15)
        e0 = np.zeros(31)
        e0[15] = 1.0
        assert np.max(np.abs(p.apply(e0) - e0)) < 1e-15
        assert np.linalg.norm(p.apply(p.w) - p.w) < 1e-14

    def test_sign_flip_invariance(self):
        # the projector matrix is unchanged when w flips sign
        p = qk.build_pinf(12)
        flipped = qk.ProjectorPinf(12, -p.w)
        assert np.max(np.abs(p.matrix() - flipped.matrix())) < 1e-16


class TestMatvec:
    def test_against_dense(self):
        K = 200
        op = qk.build_operator(K)
        A = np.eye(2 * K + 1) - qk.qk_dense(K) + op.pinf.matrix()
        rng = np.random.default_rng(7)
        x = rng.standard_normal(2 * K + 1)
        assert np.max(np.abs(qk.matvec(op, x) - A @ x)) < 1e-11
        assert np.max(np.abs(qk.matvec_transpose(op, x) - A.T @ x)) < 1e-11
        e0 = np.zeros(2 * K + 1)
        e0[K] = 1.0
        assert np.max(np.abs(qk.matvec(op, e0) - A @ e0)) < 1e-11

    @pytest.mark.parametrize("K", [5, 40])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_cached_kernel_against_dense(self, K, kind):
        op = qk.build_operator(K)
        A = np.eye(2 * K + 1) - qk.qk_dense(K) + op.pinf.matrix()
        rng = np.random.default_rng(K)
        x = rng.standard_normal(2 * K + 1)
        if kind == "complex":
            x = x + 1j * rng.standard_normal(2 * K + 1)
        assert np.max(np.abs(qk.matvec(op, x) - A @ x)) < 1e-12
        assert np.max(np.abs(qk.matvec_transpose(op, x) - A.T @ x)) < 1e-12
        assert np.isrealobj(qk.matvec(op, x.real))

    def test_adjoint_pairing(self):
        K = 64
        op = qk.build_operator(K)
        rng = np.random.default_rng(19)
        x = rng.standard_normal(2 * K + 1) + 1j * rng.standard_normal(2 * K + 1)
        y = rng.standard_normal(2 * K + 1) + 1j * rng.standard_normal(2 * K + 1)
        lhs = np.vdot(y, qk.matvec(op, x))
        rhs = np.vdot(qk.matvec_transpose(op, y), x)
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))

    def test_rejects_wrong_length(self):
        op = qk.build_operator(4)
        with pytest.raises(ValueError):
            qk.matvec(op, np.zeros(8))

    def test_near_linear_scaling(self):
        # both sizes alternate, so a burst of load on a shared host hits both
        # rather than one; each keeps its best time
        cases = []
        for K in (2**16, 2**17):
            x = np.random.default_rng(0).standard_normal(2 * K + 1)
            cases.append((qk.build_operator(K), x))
        best = [math.inf, math.inf]
        for _ in range(9):
            for i, (op, x) in enumerate(cases):
                t0 = time.perf_counter()
                qk.matvec(op, x)
                best[i] = min(best[i], time.perf_counter() - t0)
        assert best[1] / best[0] < 2.5

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=2, max_value=30), st.integers(min_value=0, max_value=2**31))
    def test_matvec_matches_dense_property(self, K, seed):
        op = qk.build_operator(K)
        A = np.eye(2 * K + 1) - qk.qk_dense(K) + op.pinf.matrix()
        x = np.random.default_rng(seed).standard_normal(2 * K + 1)
        scale = max(1.0, float(np.max(np.abs(A @ x))))
        assert np.max(np.abs(qk.matvec(op, x) - A @ x)) < 1e-11 * scale
        assert np.max(np.abs(qk.matvec_transpose(op, x) - A.T @ x)) < 1e-11 * scale

