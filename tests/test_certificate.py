import dataclasses
import json

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from supres import budget
from supres import certificate as cert
from supres import trigpoly as tp

from oracles import eval_direct, eval_eta, eval_grid, freqs, neumann_bounds, unfold


def eta_row(c):
    """eta's coefficients on -n..n: Re eta + i Im eta, unfolded from the
    halves of eta_coeffs."""
    re, im = cert.eta_coeffs(c)
    return unfold(re) + 1j * unfold(im)


def random_measure(rng, n, size, min_sep):
    """Random positions with wrap-around gaps of at least min_sep.

    Draws the gap vector directly (min_sep plus Dirichlet-distributed slack)
    so no rejection loop is needed even when min_sep*size is close to 1.
    """
    if min_sep * size >= 1.0:
        raise ValueError("infeasible separation request")
    slack = rng.dirichlet(np.ones(size)) * (1.0 - min_sep * size)
    gaps = min_sep + slack
    atoms = (rng.uniform(0, 1) + np.concatenate([[0.0], np.cumsum(gaps[:-1])])) % 1.0
    phases = rng.uniform(0, 2 * np.pi, size)
    return cert.AtomicMeasure(n, np.sort(atoms), np.exp(1j * phases))


class TestAtomicMeasure:
    def test_rejects_non_unit_signs(self):
        with pytest.raises(ValueError, match="unit modulus"):
            cert.AtomicMeasure(8, np.array([0.1]), np.array([0.5 + 0j]))

    def test_rejects_duplicate_atoms(self):
        with pytest.raises(ValueError, match="distinct"):
            cert.AtomicMeasure(8, np.array([0.1, 0.1]), np.array([1.0, 1.0]))

    def test_rejects_out_of_range_position(self):
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            cert.AtomicMeasure(8, np.array([1.0]), np.array([1.0 + 0j]))

    @pytest.mark.parametrize("position", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_position(self, position):
        with pytest.raises(ValueError, match="finite"):
            cert.AtomicMeasure(8, np.array([0.1, position]), np.array([1.0, 1.0]))

    @pytest.mark.parametrize("sign", [complex(np.nan, 0.0), complex(0.0, np.nan),
                                      complex(np.inf, 0.0), complex(0.0, -np.inf)])
    def test_rejects_non_finite_sign(self, sign):
        with pytest.raises(ValueError, match="finite"):
            cert.AtomicMeasure(8, np.array([0.1, 0.6]), np.array([1.0, sign]))

    def test_separation_wraps_around(self):
        m = cert.AtomicMeasure(8, np.array([0.05, 0.5, 0.95]), np.ones(3, complex))
        assert m.separation == pytest.approx(0.1)

    def test_single_atom_separation_is_inf(self):
        m = cert.AtomicMeasure(8, np.array([0.3]), np.array([1j]))
        assert m.separation == np.inf

    def test_equality_is_identity(self):
        # numpy array fields: a field-by-field == would raise, and hash too
        m = cert.AtomicMeasure(8, [0.1, 0.5], [1, 1])
        assert m == m
        assert (m == cert.AtomicMeasure(8, [0.1, 0.5], [1, 1])) is False
        assert m in {m}

    def test_from_json(self):
        doc = {
            "n": 16,
            "atoms": [
                {"position": 0.2, "sign": [1.0, 0.0]},
                {"position": 0.7, "sign": [0.0, -1.0]},
            ],
        }
        m = cert.measure_from_json(doc)
        assert m.n == 16
        np.testing.assert_allclose(m.atoms, [0.2, 0.7])
        np.testing.assert_allclose(m.signs, [1.0, -1j])

    def test_from_json_text_is_malformed(self):
        # the caller parses the document; JSON text is not one
        text = json.dumps({"n": 16, "atoms": [{"position": 0.2, "sign": [1.0, 0.0]}]})
        with pytest.raises(ValueError, match="malformed measure document"):
            cert.measure_from_json(text)

    def test_needs_an_atom(self):
        with pytest.raises(ValueError, match="non-empty"):
            cert.AtomicMeasure(16, (), ())

    def test_from_json_malformed(self):
        with pytest.raises(ValueError, match="malformed"):
            cert.measure_from_json({"n": 4, "atoms": [{"position": 0.1}]})

    @pytest.mark.parametrize("atoms", [[], {}, ""])
    def test_from_json_needs_an_atom_list(self, atoms):
        with pytest.raises(ValueError, match="non-empty list"):
            cert.measure_from_json({"n": 4, "atoms": atoms})

    def test_cutoff_beyond_exact_float_integers_rejected(self):
        cert.AtomicMeasure(2**53, np.array([0.3]), np.array([1.0 + 0j]))
        with pytest.raises(ValueError, match="2\\^53"):
            cert.AtomicMeasure(2**53 + 1, np.array([0.3]), np.array([1.0 + 0j]))

    def test_numpy_integer_cutoff_is_a_python_int(self):
        m = cert.AtomicMeasure(np.int64(128), [0.1, 0.5], [1, -1])
        assert type(m.n) is int
        rep = cert.verify_bounded(cert.solve_certificate(m))
        assert rep == cert.verify_bounded(cert.solve_certificate(
            cert.AtomicMeasure(128, [0.1, 0.5], [1, -1])))

    def test_integral_float_cutoff_is_a_python_int(self):
        assert type(cert.AtomicMeasure(16.0, [0.1], [1]).n) is int

    @pytest.mark.parametrize("n", [128.5, True, "128"])
    def test_non_integer_cutoff_rejected(self, n):
        with pytest.raises(ValueError, match="cutoff n must be an integer"):
            cert.AtomicMeasure(n, [0.1, 0.5], [1, -1])


class TestSystem:
    def test_single_atom_system_is_identity(self):
        m = cert.AtomicMeasure(32, np.array([0.3]), np.array([1j]))
        matrix, rhs = cert.build_system(m)
        np.testing.assert_allclose(matrix, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(rhs, [1j, 0.0])

    def test_single_atom_certificate(self):
        m = cert.AtomicMeasure(32, np.array([0.3]), np.array([np.exp(0.4j)]))
        c = cert.solve_certificate(m)
        np.testing.assert_allclose(c.a, m.signs, atol=1e-14)
        np.testing.assert_allclose(c.b, 0.0, atol=1e-14)

    def test_too_close_atoms_rejected(self):
        m = cert.AtomicMeasure(64, np.array([0.30, 0.31]), np.ones(2, complex))
        with pytest.raises(cert.SeparationTooSmall):
            cert.solve_certificate(m)

    def test_half_grid_separation_rejected(self):
        # separation 1/(2n) always trips the row-sum bound for two atoms
        n = 64
        m = cert.AtomicMeasure(n, np.array([0.3, 0.3 + 0.5 / n]), np.ones(2, complex))
        with pytest.raises(cert.SeparationTooSmall):
            cert.solve_certificate(m)

    def test_interpolation_two_atoms(self):
        m = cert.AtomicMeasure(128, np.array([0.2, 0.6]), np.array([1.0, -1.0 + 0j]))
        c = cert.solve_certificate(m)
        eta_at_atoms, deriv = eval_eta(c, m.atoms)
        np.testing.assert_allclose(eta_at_atoms, m.signs, atol=1e-10)
        np.testing.assert_allclose(deriv, 0.0, atol=1e-7 * m.n**2)

    @pytest.mark.parametrize("seed", range(10))
    def test_interpolation_random_measures(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(32, 200))
        size = int(rng.integers(1, 5))
        m = random_measure(rng, n, size, min_sep=4 * np.log(size + 1) / n)
        c = cert.solve_certificate(m)
        eta, deta = eval_eta(c, m.atoms)
        np.testing.assert_allclose(eta, m.signs, atol=1e-9)
        assert np.max(np.abs(deta)) <= 1e-7 * n**2


class TestEtaCoeffs:
    def test_matches_pointwise_evaluation(self):
        rng = np.random.default_rng(1)
        # (n, |S|, separation): n = 256 with 20 atoms sits near the separation
        # limit (sqrt(3) + 9/4) log|S| / n = 0.047
        for n, size, min_sep in [(64, 3, 0.15), (256, 20, 0.048)]:
            m = random_measure(rng, n, size, min_sep=min_sep)
            c = cert.solve_certificate(m)
            p = eta_row(c)
            theta = rng.uniform(0, 1, 40)
            eta, deta = eval_eta(c, theta)
            np.testing.assert_allclose(eval_direct(p, theta), eta, atol=1e-11)
            # eta' against the coefficients 2 i pi k c_k, also at the atoms'
            # shoulders, within 1e-2/n
            near = (m.atoms[:, None] + rng.uniform(-1e-2, 1e-2, (size, 4)) / n).ravel()
            dp = 2j * np.pi * freqs(p) * p
            for th, d in ((theta, deta), (near, eval_eta(c, near)[1])):
                np.testing.assert_allclose(eval_direct(dp, th), d, rtol=0,
                                           atol=1e-12 * 2 * np.pi * n)

    @pytest.mark.parametrize("n, size", [(1, 1), (2, 2), (7, 3), (1448, 20), (16384, 32)])
    def test_blocked_tables_match_direct_sum(self, n, size):
        # the coarse x fine split of the halves of Re eta and Im eta,
        # unfolded, against the (2n+1) x |S| exponential table; either side's
        # exponentials carry an error of a few eps times their argument, up
        # to 2 pi (n + sqrt(2n+1)), on terms of size |a| + 2 pi n |b|
        rng = np.random.default_rng(n)
        atoms = np.sort(rng.uniform(0, 1, size))
        m = cert.AtomicMeasure(n, atoms, np.ones(size, complex))
        a = rng.normal(size=size) + 1j * rng.normal(size=size)
        b = (rng.normal(size=size) + 1j * rng.normal(size=size)) / n
        k = np.arange(-n, n + 1)
        phases = np.exp(-2j * np.pi * np.outer(k, atoms))
        want = (phases @ a + 2j * np.pi * k * (phases @ b)) / (2 * n + 1)
        got = eta_row(cert.Certificate(m, a, b))
        scale = np.sum(np.abs(a) + 2 * np.pi * n * np.abs(b)) / (2 * n + 1)
        eps = np.finfo(float).eps
        bound = 8 * eps * 2 * np.pi * (n + np.sqrt(2 * n + 1)) * scale
        np.testing.assert_allclose(got, want, rtol=0, atol=bound)

    def test_single_atom_coeffs_are_modulated_kernel(self):
        n = 20
        m = cert.AtomicMeasure(n, np.array([0.25]), np.array([1.0 + 0j]))
        c = cert.solve_certificate(m)
        p = eta_row(c)
        k = np.arange(-n, n + 1)
        expected = np.exp(-2j * np.pi * k * 0.25) / (2 * n + 1)
        np.testing.assert_allclose(p, expected, atol=1e-14)


class TestVerifyBounded:
    def test_single_atom_certified(self):
        m = cert.AtomicMeasure(64, np.array([0.5]), np.array([1.0 + 0j]))
        c = cert.solve_certificate(m)
        report = cert.verify_bounded(c, grid_mult=10)
        assert report["certified"]
        assert report["sup_off_atom"] < 1.0

    def test_two_atoms_certified(self):
        m = cert.AtomicMeasure(128, np.array([0.1, 0.5]), np.array([1.0, 1j]))
        c = cert.solve_certificate(m)
        report = cert.verify_bounded(c, grid_mult=10)
        assert report["certified"]

    def test_three_atoms_certified(self):
        rng = np.random.default_rng(3)
        signs = np.exp(1j * rng.uniform(0, 2 * np.pi, 3))
        m = cert.AtomicMeasure(256, np.array([0.1, 0.35, 0.8]), signs)
        c = cert.solve_certificate(m)
        assert cert.verify_bounded(c, grid_mult=8)["certified"]

    def test_argmax_is_off_atom(self):
        m = cert.AtomicMeasure(64, np.array([0.2, 0.6]), np.array([1.0, -1.0 + 0j]))
        c = cert.solve_certificate(m)
        report = cert.verify_bounded(c)
        dist = min(abs(report["argmax"] - t) % 1.0 for t in m.atoms)
        assert min(dist, 1 - dist) > 1.0 / m.n

    def test_report_carries_the_measure_and_atom_checks(self):
        m = cert.AtomicMeasure(128, np.array([0.1, 0.5]), np.array([1.0, 1j]))
        report = cert.verify_bounded(cert.solve_certificate(m))
        assert (report["atom_count"], report["n"]) == (2, 128)
        assert report["separation"] == m.separation
        assert report["deviation_bound"] == cert.system_norm_bounds(m)["operator_norm"]
        assert report["interp_err"] <= cert.INTERP_TOL
        assert report["deriv_err"] <= 1e-7 * m.n**2

    @pytest.mark.parametrize("n, size, min_sep", [(128, 2, 0.3), (1024, 8, 0.006)])
    def test_atom_checks_match_pointwise_sum(self, n, size, min_sep):
        # the residual of the solved system against eta, eta' summed at the
        # atoms: at rounding level for the solution, and to 1e-9 relative
        # once perturbed coefficients lift both checks far above rounding
        rng = np.random.default_rng(n)
        m = random_measure(rng, n, size, min_sep=min_sep)
        c = cert.solve_certificate(m)
        bumped = dataclasses.replace(c, a=c.a + 1e-6 * rng.normal(size=size),
                                     b=c.b + 1e-6 / n * rng.normal(size=size))
        for c, rel, tol in ((c, 0.0, 1e-15), (bumped, 1e-9, 0.0)):
            report = cert.verify_bounded(c)
            eta, deta = eval_eta(c, m.atoms)
            np.testing.assert_allclose(report["interp_err"], np.max(np.abs(eta - m.signs)),
                                       rtol=rel, atol=tol)
            np.testing.assert_allclose(report["deriv_err"], np.max(np.abs(deta)),
                                       rtol=rel, atol=tol * n**2)

    def test_atom_residual_above_tolerance_is_not_certified(self):
        # the grid scan alone would certify; only the residual at the atoms fails
        m = cert.AtomicMeasure(128, np.array([0.1, 0.5]), np.array([1.0, 1j]))
        c = cert.solve_certificate(m)
        assert cert.verify_bounded(c)["certified"] is True
        c = dataclasses.replace(c, a=c.a + 10 * cert.INTERP_TOL)
        report = cert.verify_bounded(c)
        assert report["interp_err"] > cert.INTERP_TOL
        assert report["sup_off_atom"] < 1.0
        assert report["certified"] is False

    def test_check_builds_its_own_system(self, monkeypatch):
        # solve and check each evaluate the Dirichlet kernels once, for the
        # system each forms; coefficients given directly get the same report
        m = cert.AtomicMeasure(256, np.array([0.1, 0.4, 0.75]), np.array([1.0, 1j, -1.0]))
        calls = 0
        kernels = tp.dirichlet_deriv

        def counted(*args):
            nonlocal calls
            calls += 1
            return kernels(*args)

        monkeypatch.setattr(tp, "dirichlet_deriv", counted)
        c = cert.solve_certificate(m)
        assert calls == 1
        report = cert.verify_bounded(c)
        assert calls == 2
        bare = cert.Certificate(m, c.a, c.b)
        assert json.dumps(cert.verify_bounded(bare)) == json.dumps(report)
        assert calls == 3

    @pytest.mark.parametrize("atoms, signs", [((0.2, 0.7), (1.0, -1.0)), ((0.1, 0.5), (1.0, -1j))])
    def test_check_follows_the_measure_not_the_solve(self, atoms, signs):
        # coefficients solved for one measure and checked against another:
        # the atom checks are eta and eta' at the other measure's atoms, and
        # the report is the one those coefficients get when given directly
        m1 = cert.AtomicMeasure(128, np.array([0.1, 0.5]), np.array([1.0, 1j]))
        m2 = cert.AtomicMeasure(128, np.array(atoms), np.array(signs))
        c = cert.solve_certificate(m1)
        moved = dataclasses.replace(c, measure=m2)
        report = cert.verify_bounded(moved)
        eta, deta = eval_eta(moved, m2.atoms)
        np.testing.assert_allclose(report["interp_err"], np.max(np.abs(eta - m2.signs)), rtol=1e-9)
        # same atoms, other signs: eta' still vanishes there, to rounding
        np.testing.assert_allclose(report["deriv_err"], np.max(np.abs(deta)), rtol=1e-9,
                                   atol=1e-15 * m2.n**2)
        assert report["certified"] is False
        bare = cert.verify_bounded(cert.Certificate(m2, c.a, c.b))
        assert json.dumps(report) == json.dumps(bare)

    def test_small_grid_mult_rejected(self):
        m = cert.AtomicMeasure(16, np.array([0.5]), np.array([1.0 + 0j]))
        c = cert.solve_certificate(m)
        with pytest.raises(ValueError):
            cert.verify_bounded(c, grid_mult=3)


def dense_off_mask(atoms, n, G):
    """Off-atom mask from the full G x |S| wrap-around distance matrix."""
    dist = np.abs(np.arange(G)[:, None] / G - atoms[None, :]) % 1.0
    dist = np.minimum(dist, 1.0 - dist)
    return np.min(dist, axis=1) > 1.0 / n


def phase_off_mask(atoms, n, L, m):
    """The scan's off-atom mask on G = m L points, gathered from the windows
    of its m phases: g = j m + r for phase r."""
    off = np.ones(m * L, dtype=bool)
    for r in range(m):
        off[cert._near_atoms(atoms, n, L, m, r) * m + r] = False
    return off


def dense_verify_bounded(c, grid_mult=10):
    """The boundedness scan by pointwise kernel sums and a dense distance mask."""
    n = c.n
    G = grid_mult * tp.fast_len(2 * n + 1)
    theta = np.arange(G) / G
    vals = np.abs(eval_eta(c, theta)[0])
    off = dense_off_mask(c.measure.atoms, n, G)
    slack = np.pi * n * np.max(np.abs(eta_row(c))) / grid_mult
    idx = np.argmax(np.where(off, vals, -np.inf))
    return {"sup_off_atom": vals[idx], "argmax": theta[idx],
            "certified": bool(vals[idx] + slack < 1.0), "values": vals, "off": off}


class TestGridScan:
    @pytest.mark.parametrize("n, size, min_sep, grid_mult", [
        (64, 1, 0.5, 10), (64, 3, 0.15, 7), (1448, 5, 0.1, 10), (1448, 20, 0.03, 10),
    ])
    def test_eval_grid_matches_pointwise(self, n, size, min_sep, grid_mult):
        # the scan's G, grid_mult times 2n+1 rounded up to a 5-smooth length
        # (the prime 2897 becomes 2916 at n = 1448), sampled here by one FFT,
        # which TestEvalGrid::test_phases_match_one_fft holds the phases to
        rng = np.random.default_rng(n + size)
        c = cert.solve_certificate(random_measure(rng, n, size, min_sep))
        p = eta_row(c)
        G = grid_mult * tp.fast_len(2 * n + 1)
        grid = eval_grid(p, G)
        idx = np.arange(G) if G < 2000 else rng.choice(G, 400, replace=False)
        theta = idx / G
        np.testing.assert_allclose(grid[idx], eval_eta(c, theta)[0], rtol=0, atol=1e-11)
        np.testing.assert_allclose(grid[idx], eval_direct(p, theta), rtol=0, atol=1e-11)

    @pytest.mark.parametrize("atoms, n, G", [
        ([0.0], 64, 1290),
        ([1 - 1e-9], 64, 1290),
        ([0.0, 0.5, 1 - 1e-9], 16, 330),
        # 0.25 + 1/16 = 320/1024 exactly: a grid point at distance exactly 1/n
        ([0.25], 16, 1024),
        ([0.25, 0.75], 16, 33),
        ([0.1, 0.35, 0.8], 256, 5130),
    ])
    def test_window_mask_matches_dense(self, atoms, n, G):
        # G split into m phases of length G/m, for every m <= 12 dividing G
        atoms = np.array(atoms)
        for m in (m for m in range(1, 13) if G % m == 0):
            np.testing.assert_array_equal(phase_off_mask(atoms, n, G // m, m),
                                          dense_off_mask(atoms, n, G), err_msg=str(m))

    def test_boundary_point_is_excluded(self):
        off = phase_off_mask(np.array([0.25]), 16, 128, 8)
        assert not off[320] and off[321]
        assert not off[192] and off[191]

    def test_window_mask_random(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            n = int(rng.integers(1, 300))
            m = int(rng.integers(4, 13))
            atoms = np.sort(rng.uniform(0, 1, int(rng.integers(1, 6))))
            np.testing.assert_array_equal(phase_off_mask(atoms, n, 2 * n + 1, m),
                                          dense_off_mask(atoms, n, m * (2 * n + 1)))

    @pytest.mark.parametrize("n, atoms, grid_mult", [
        (64, [0.123456], 10),
        (128, [0.1, 0.5], 10),
        (256, [0.1, 0.35, 0.8], 8),
        (200, [0.0, 0.31, 0.62, 0.93], 10),
        (512, [0.02, 0.13, 0.27, 0.38, 0.51, 0.64, 0.77, 0.9], 10),
        (1024, [0.05, 0.4, 0.7], 4),
    ])
    def test_verify_bounded_matches_dense(self, n, atoms, grid_mult):
        atoms = np.array(atoms)
        signs = np.exp(1j * np.random.default_rng(n).uniform(0, 2 * np.pi, atoms.size))
        c = cert.solve_certificate(cert.AtomicMeasure(n, atoms, signs))
        got = cert.verify_bounded(c, grid_mult=grid_mult)
        ref = dense_verify_bounded(c, grid_mult=grid_mult)
        assert got["certified"] == ref["certified"]
        assert abs(got["sup_off_atom"] - ref["sup_off_atom"]) <= 1e-11
        # argmax need not be the reference's own: mirror points can tie to
        # below the rounding (at n = 128 with atoms 0.1 and 0.5, |eta|^2 at
        # g = 296 and 1324 of 2700 differs by 4e-17). It must be a grid point
        # off the windows whose |eta| is within the scan's rounding of the
        # maximum: each sample of Re eta and Im eta, whose rows have norms at
        # most eta's, is within e0 of its value (trigpoly.fft_error_bound),
        # so |eta| within sqrt 2 e0, at the argmax and at the maximum
        L = tp.fast_len(2 * n + 1)
        G = grid_mult * L
        g = round(got["argmax"] * G)
        assert got["argmax"] == g / G and ref["off"][g]
        row = eta_row(c)
        e0 = (tp.fft_error_bound(L, float(np.linalg.norm(row)))
              + (grid_mult - 1) * tp.TWIDDLE_EPS * float(np.sum(np.abs(row))))
        assert ref["values"][g] >= ref["sup_off_atom"] - 2 * np.sqrt(2) * e0

    def test_scan_budget_covers_measured_peaks(self):
        # peak minus the RSS before the scan, getrusage in fresh processes,
        # |S| = 3, grid_mult 10: the budget holds one phase, so it admits
        # n = 2^21 (882 MB), where the whole grid was refused past n = 8.8e5
        def need(n):
            return cert._SCAN_BYTES_PER_L * tp.fast_len(2 * n + 1)

        for n, peak in ((2**12, 1_790_000), (2**16, 18_000_000), (2**21, 539_100_000)):
            assert need(n) >= peak, n
        assert need(2**21) <= budget.CAP_BYTES < need(2**22)

    def test_scan_over_memory_cap_refused_before_allocating(self):
        import tracemalloc

        m = cert.AtomicMeasure(10**12, np.array([0.3]), np.array([1.0 + 0j]))
        c = cert.solve_certificate(m)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="GB"):
                cert.verify_bounded(c)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestNeumannBounds:
    def test_report_shape(self):
        m = cert.AtomicMeasure(64, np.array([0.2, 0.7]), np.ones(2, complex))
        report = neumann_bounds(m)
        assert set(report) == {"dev_UU", "bound_D0", "bound_D1", "bound_D2", "operator_norm"}
        for entry in report.values():
            assert set(entry) == {"measured", "bound"}

    def test_single_atom_deviations_vanish(self):
        m = cert.AtomicMeasure(32, np.array([0.4]), np.array([1.0 + 0j]))
        report = neumann_bounds(m)
        for entry in report.values():
            assert entry["measured"] <= 1e-12
            assert entry["bound"] == 0.0

    def test_dev_uu_within_bound_random(self):
        # the frame deviation bound is the one that holds for every
        # configuration; the block bounds are only example-tight
        rng = np.random.default_rng(11)
        for _ in range(50):
            size = int(rng.integers(2, 6))
            # keep min_sep * size safely below 1 so the gap vector is feasible
            n_floor = int(np.ceil(6 * size * np.log(size + 1)))
            n = int(rng.integers(max(32, n_floor), 300))
            m = random_measure(rng, n, size, min_sep=4 * np.log(size + 1) / n)
            entry = neumann_bounds(m)["dev_UU"]
            assert entry["measured"] <= entry["bound"] + 1e-12, (n, size)

    def test_well_separated_pair_within_all_bounds(self):
        m = cert.AtomicMeasure(128, np.array([0.2, 0.6]), np.ones(2, complex))
        report = neumann_bounds(m)
        for name, entry in report.items():
            assert entry["measured"] <= entry["bound"] + 1e-12, name
        assert report["dev_UU"]["bound"] == pytest.approx(2 * np.log(2) / (257 * 0.4))
        assert report["bound_D2"]["bound"] == pytest.approx(9 * np.log(2) / (4 * 0.4 * 128))


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=16, max_value=2048),
    seed=st.integers(min_value=0, max_value=2**31),
    size=st.integers(min_value=1, max_value=12),
    grid_mult=st.integers(min_value=4, max_value=12),
)
def test_certified_implies_bounded_off_the_windows(n, seed, size, grid_mult):
    # the scan samples only the grid; check |eta| < 1 between its points,
    # in the band 1/n .. 1/n + 3/G outside each atom's window (whose nearest
    # grid points may lie inside the window) and at random points off every
    # window
    rng = np.random.default_rng(seed)
    min_sep = 1.05 * (np.sqrt(3) + 9 / 4) * np.log(size) / n if size > 1 else 0.0
    assume(min_sep * size < 0.9)
    m = random_measure(rng, n, size, min_sep)
    c = cert.solve_certificate(m)
    if not cert.verify_bounded(c, grid_mult=grid_mult)["certified"]:
        return
    G = grid_mult * tp.fast_len(2 * n + 1)
    band = 1.0 / n + np.linspace(0.0, 3.0 / G, 25)
    theta = np.concatenate([m.atoms[:, None] + band, m.atoms[:, None] - band]).ravel() % 1.0
    dist = np.abs(theta[:, None] - m.atoms[None, :]) % 1.0
    theta = theta[np.min(np.minimum(dist, 1.0 - dist), axis=1) >= 1.0 / n]
    far = rng.uniform(0.0, 1.0, 2000)
    dist = np.abs(far[:, None] - m.atoms[None, :]) % 1.0
    far = far[np.min(np.minimum(dist, 1.0 - dist), axis=1) > 1.0 / n]
    assert np.max(np.abs(eval_eta(c, np.concatenate([theta, far]))[0])) < 1.0


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=48, max_value=160),
    seed=st.integers(min_value=0, max_value=2**31),
    size=st.integers(min_value=1, max_value=4),
)
def test_interpolation_property(n, seed, size):
    rng = np.random.default_rng(seed)
    m = random_measure(rng, n, size, min_sep=4 * np.log(size + 1) / n)
    c = cert.solve_certificate(m)
    eta, deta = eval_eta(c, m.atoms)
    np.testing.assert_allclose(eta, m.signs, atol=1e-9)
    assert np.max(np.abs(deta)) <= 1e-7 * n**2
