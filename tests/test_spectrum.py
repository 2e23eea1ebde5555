import numpy as np
import pytest

from supres import qk_operator as qk
from supres import spectrum as sp
from supres.budget import BudgetExceeded

from oracles import section_extremes


def matrix_apply(A):
    return lambda x: A @ x


def section_squared(op):
    return lambda x: qk.matvec_transpose(op, qk.matvec(op, x))


class TestLanczosLargest:
    def test_identity(self):
        _, (value, residual), _ = sp.lanczos_extremes(lambda x: x, 16, seed=3)
        assert value == pytest.approx(1.0, abs=1e-14)
        assert residual == pytest.approx(0.0, abs=1e-14)

    def test_diagonal_squared(self):
        D2 = np.diag([1.0, 4.0, 9.0])
        _, (value, _), _ = sp.lanczos_extremes(matrix_apply(D2), 3, seed=0)
        assert value == pytest.approx(9.0, abs=1e-12)

    def test_estimate_within_residual_of_truth(self, monkeypatch):
        # one pass of the default length cannot converge this spectrum's
        # bottom end; a pass as long as the dimension spans the space
        rng = np.random.default_rng(4)
        B = rng.standard_normal((100, 100))
        A = B @ B.T  # PSD
        monkeypatch.setattr(sp, "RESIDUAL_TOL", 1e-6)
        with pytest.raises(sp.NonConvergence, match="after 23 products"):
            sp.lanczos_extremes(matrix_apply(A), 100, seed=1)
        monkeypatch.setattr(sp, "_MAX_STEPS", 100)
        _, (value, residual), _ = sp.lanczos_extremes(matrix_apply(A), 100, seed=1)
        lam_true = np.linalg.eigvalsh(A)[-1]
        assert abs(value - lam_true) <= residual + 1e-9

    def test_nonconvergence_raises(self):
        # two top eigenvalues 1e-12 apart cannot be split to rounding in one
        # Lanczos pass, so the pass ends unconverged
        d = np.linspace(0.0, 1.0, 200)
        d[-2] = 1.0 - 1e-12
        with pytest.raises(sp.NonConvergence, match="did not converge"):
            sp.lanczos_extremes(lambda x: d * x, 200, seed=2)

    def test_residual_above_target_raises(self, monkeypatch):
        op = qk.build_operator(4)
        monkeypatch.setattr(sp, "RESIDUAL_TOL", 1e-30)
        with pytest.raises(sp.NonConvergence, match="above the target"):
            sp.lanczos_extremes(section_squared(op), op.dim, seed=0)

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_zero_ritz_vector_raises(self, monkeypatch):
        # a zero vector has residual 0/0 = NaN, which the target test refuses;
        # zero eigenvectors of T make zero Ritz vectors
        def zero_vectors(T):
            return (1.0, np.zeros(len(T))), (2.0, np.zeros(len(T)))

        monkeypatch.setattr(sp, "_extreme_pairs", zero_vectors)
        with pytest.raises(sp.NonConvergence, match="bottom residual nan above the target"):
            sp.lanczos_extremes(lambda x: x, 8, seed=0)


class TestLanczosSmallest:
    def test_identity(self):
        (value, _), _, _ = sp.lanczos_extremes(lambda x: x, 8, seed=0)
        assert value == pytest.approx(1.0, abs=1e-14)

    def test_diagonal(self):
        A = np.diag([1.0, 2.0, 3.0])
        (value, _), _, _ = sp.lanczos_extremes(matrix_apply(A.T @ A), 3, seed=0)
        assert np.sqrt(value) == pytest.approx(1.0, abs=1e-12)

    def test_section_matches_dense_svd(self):
        K = 40
        op = qk.build_operator(K)
        (value, residual), _, _ = sp.lanczos_extremes(section_squared(op), op.dim, seed=0)
        dense_min, _ = section_extremes(K)
        assert abs(value - dense_min**2) <= residual + 1e-12


class TestLanczosBothEnds:
    @pytest.mark.parametrize("K", [4, 10, 40, 200])
    @pytest.mark.parametrize("seed", range(4))
    def test_match_dense_svd(self, K, seed):
        op = qk.build_operator(K)
        bottom, top, _ = sp.lanczos_extremes(section_squared(op), op.dim, seed=seed)
        lo, hi = section_extremes(K)
        assert abs(bottom[0] - lo**2) <= bottom[1] + 1e-12
        assert abs(top[0] - hi**2) <= top[1] + 1e-12


class TestDenseExtremes:
    @pytest.mark.parametrize("K", [4, 40, 200])
    def test_matches_section_svd(self, K):
        # the benchmark's worker checks spectrum-sweep reports against
        # dense_extremes; its section takes w from build_operator, the
        # oracle's from the closed form
        lo, hi = sp.dense_extremes(K)
        ref_lo, ref_hi = section_extremes(K)
        assert lo == pytest.approx(ref_lo, rel=1e-14, abs=0)
        assert hi == pytest.approx(ref_hi, rel=1e-14, abs=0)


class TestArpackOracle:
    @pytest.mark.parametrize("K", [4, 40, 400, 4096])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_eigsh(self, K, seed):
        # ARPACK's implicitly restarted Lanczos on the same map: each end
        # agrees within the two runs' summed residuals
        from scipy.sparse.linalg import LinearOperator, eigsh

        op = qk.build_operator(K)
        apply = section_squared(op)
        v0 = np.random.default_rng(seed).uniform(-1.0, 1.0, op.dim)
        w, V = eigsh(LinearOperator((op.dim, op.dim), matvec=apply, dtype=float),
                     k=2, which="BE", v0=v0, tol=0.0)
        ends = sp.lanczos_extremes(apply, op.dim, seed=seed)[:2]
        for (value, residual), lam, x in zip(ends, w, V.T):
            arpack_residual = np.linalg.norm(apply(x) - lam * x) / np.linalg.norm(x)
            assert abs(value - lam) <= residual + arpack_residual


class TestReport:
    def test_k40_brackets(self):
        rep = sp.spectrum_report(40)
        assert 0.50 <= rep["sigma_min"] <= 0.75
        assert 1.30 <= rep["sigma_max"] <= 1.42
        assert rep["condition_holds"]

    def test_k40_matches_plotted_series(self):
        # of the two published figures for the K=40 minimum (0.6754 in the
        # caption, 0.5814 in the plotted series) the computation lands on the
        # plotted one; keep that pinned so any drift is visible
        rep = sp.spectrum_report(40)
        assert abs(rep["sigma_min"] - 0.5814) < abs(rep["sigma_min"] - 0.6754)
        assert rep["sigma_min"] == pytest.approx(0.58138, abs=5e-4)
        assert rep["sigma_max"] == pytest.approx(1.3726, abs=5e-3)

    def test_invariants(self):
        rep = sp.spectrum_report(25, seed=11)
        assert rep["sigma_max"] >= rep["sigma_min"] >= 0.0
        assert rep["residual_max"] >= 0.0 and rep["residual_min"] >= 0.0
        assert rep["condition_holds"] == (rep["sigma_min"] - rep["residual_min"] > 0.5)

    def test_agrees_with_dense(self):
        for K, seed in ((25, 0), (60, 0), (25, 3), (60, 8), (200, 13)):
            rep = sp.spectrum_report(K, seed=seed)
            lo, hi = section_extremes(K)
            assert abs(rep["sigma_min"] - lo) <= rep["residual_min"] + 1e-12
            assert abs(rep["sigma_max"] - hi) <= rep["residual_max"] + 1e-12

    def test_products_per_end(self):
        # iters_* both count the M^T M products of the section's one Lanczos
        # pass, its two residual checks included
        rep = sp.spectrum_report(400)
        assert rep["iters_max"] <= sp._MAX_STEPS + 2
        assert rep["iters_min"] <= sp._MAX_STEPS + 2

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("K", [10, 25, 200, 400, 4096])
    def test_one_pass_with_headroom(self, K, seed):
        # the section converges in 16-21 steps; with the two residual checks
        # the products stay within _MAX_STEPS, two steps short of the cap
        rep = sp.spectrum_report(K, seed=seed)
        assert rep["iters_min"] == rep["iters_max"] <= sp._MAX_STEPS

    def test_one_lanczos_call_per_section(self, monkeypatch):
        calls = []
        run = sp.lanczos_extremes

        def counted(apply, dim, seed=0):
            calls.append(dim)
            return run(apply, dim, seed)

        monkeypatch.setattr(sp, "lanczos_extremes", counted)
        sp.spectrum_report(40)
        assert calls == [81]

    def test_stability_over_truncation(self):
        sigmas = []
        for K in (100, 200, 400):
            rep = sp.spectrum_report(K)
            assert rep["condition_holds"]
            sigmas.append(rep["sigma_min"])
        assert (max(sigmas) - min(sigmas)) / min(sigmas) <= 0.05

    def test_deterministic(self):
        a = sp.spectrum_report(30, seed=7)
        b = sp.spectrum_report(30, seed=7)
        assert a == b

    def test_numpy_integer_size(self):
        assert sp.spectrum_report(np.int64(40)) == sp.spectrum_report(40)

    def test_seed_changes_iterates_not_values(self):
        a = sp.spectrum_report(30, seed=1)
        b = sp.spectrum_report(30, seed=2)
        assert a["sigma_min"] == pytest.approx(b["sigma_min"], abs=1e-7)
        assert a["sigma_max"] == pytest.approx(b["sigma_max"], abs=1e-7)


class TestMemoryBudget:
    def test_over_budget_refused_before_allocating(self):
        import tracemalloc

        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded, match="GB"):
                sp.spectrum_report(10**9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_section_budget_covers_measured_peaks(self):
        # worst-case peaks above the pre-solve RSS (getrusage, fresh
        # processes, one thread, the larger of two runs), with all 23 basis
        # rows of the pass touched
        assert sp._MAX_STEPS <= 23
        for K, peak in ((2**16, 57102336), (2**17, 106684416), (2**18, 205492224)):
            assert sp._SECTION_BYTES_PER_K * K >= peak, K

    def test_budget_admits_k_2_20(self, monkeypatch):
        # stop right after the guard: the full K = 2^20 report takes seconds
        class Reached(Exception):
            pass

        def stop(K):
            raise Reached

        monkeypatch.setattr(qk, "build_operator", stop)
        with pytest.raises(Reached):
            sp.spectrum_report(2**20)
