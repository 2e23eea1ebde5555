"""End-to-end tests of the command-line front-end: exit codes, report
schemas, fixed CSV layouts, machine-readable errors, and byte-level
reproducibility of identical runs."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from supres import cli
from supres.constants import truncation_budget

from oracles import qk_entry


def run_cli(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def child_env(**extra):
    """Environment for a child interpreter that imports this checkout's supres,
    installed or not."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


def write_measure(tmp_path, n, atoms, signs, name="measure.json"):
    doc = {
        "n": n,
        "atoms": [
            {"position": float(p), "sign": [float(np.real(s)), float(np.imag(s))]}
            for p, s in zip(atoms, signs)
        ],
    }
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestCertify:
    def test_well_separated_measure_passes(self, tmp_path, capsys):
        path = write_measure(tmp_path, 128, [0.1, 0.5], [1.0, -1.0])
        code, out, err = run_cli(["certify", "--measure", path], capsys)
        assert code == 0
        assert err == ""
        rep = json.loads(out)
        assert rep["certified"] is True
        assert rep["interp_err"] < 1e-9
        assert rep["deriv_err"] < 1e-9
        assert rep["sup_off_atom"] < 1.0

    def test_half_nyquist_separation_is_input_error(self, tmp_path, capsys):
        n = 64
        path = write_measure(tmp_path, n, [0.0, 1.0 / (2 * n)], [1.0, 1.0])
        code, out, err = run_cli(["certify", "--measure", path], capsys)
        assert code == 1
        obj = json.loads(err)
        assert obj["error"] == "separation_too_small"
        assert out == ""

    def test_missing_file(self, tmp_path, capsys):
        code, _, err = run_cli(["certify", "--measure", str(tmp_path / "nope.json")], capsys)
        assert code == 1
        assert json.loads(err)["error"] == "io"

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run_cli(["certify", "--measure", str(path)], capsys)
        assert code == 1
        assert json.loads(err)["error"] == "parse"

    def test_malformed_measure_document(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"n": 32, "atoms": [{"position": 0.1}]}))
        code, _, err = run_cli(["certify", "--measure", str(path)], capsys)
        assert code == 1
        assert json.loads(err)["error"] == "measure"

    @pytest.mark.parametrize("position, sign", [
        (float("nan"), 1.0), (float("inf"), 1.0), (float("-inf"), 1.0),
        (0.2, complex(float("nan"), 0.0)), (0.2, complex(float("inf"), 0.0)),
        (0.2, complex(0.0, float("-inf"))),
    ])
    def test_non_finite_atom_is_measure_error(self, tmp_path, capsys, position, sign):
        path = write_measure(tmp_path, 64, [0.7, position], [1.0, sign])
        for command in ("certify", "gram"):
            code, out, err = run_cli([command, "--measure", path], capsys)
            assert code == 1
            assert out == ""
            assert json.loads(err)["error"] == "measure"

    @pytest.mark.parametrize("n, sign", [
        (128.7, [1.0, 0.0]), (True, [1.0, 0.0]), ("128", [1.0, 0.0]),
        (128, [1.0, 0.0, 0.0]), (128, [1.0]), (128, 1.0), (128, [True, False]),
    ])
    def test_bad_cutoff_or_sign_is_measure_error(self, tmp_path, capsys, n, sign):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(
            {"n": n, "atoms": [{"position": 0.1, "sign": sign}]}))
        for command in ("certify", "gram"):
            code, out, err = run_cli([command, "--measure", str(path)], capsys)
            assert code == 1
            assert out == ""
            assert json.loads(err)["error"] == "measure"

    @pytest.mark.parametrize("position", [False, True, "0.5", None, [0.5], {"x": 0.5}])
    def test_bad_position_is_measure_error(self, tmp_path, capsys, position):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"n": 64, "atoms": [
            {"position": position, "sign": [1.0, 0.0]},
            {"position": 0.7, "sign": [1.0, 0.0]}]}))
        for command in ("certify", "gram"):
            code, out, err = run_cli([command, "--measure", str(path)], capsys)
            assert code == 1
            assert out == ""
            assert json.loads(err)["error"] == "measure"

    def test_position_beyond_float_range_is_measure_error(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"n": 64, "atoms": [
            {"position": 10**400, "sign": [1.0, 0.0]}]}))
        for command in ("certify", "gram"):
            code, out, err = run_cli([command, "--measure", str(path)], capsys)
            assert code == 1
            assert out == ""
            assert json.loads(err)["error"] == "measure"

    @pytest.mark.parametrize("atoms", [[], {}])
    def test_empty_measure_is_measure_error(self, tmp_path, capsys, atoms):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"n": 64, "atoms": atoms}))
        for command in ("certify", "gram"):
            code, out, err = run_cli([command, "--measure", str(path)], capsys)
            assert code == 1
            assert out == ""
            assert json.loads(err)["error"] == "measure"

    def test_integer_position_accepted(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(
            {"n": 64, "atoms": [{"position": 0, "sign": [1.0, 0.0]}]}))
        code, out, err = run_cli(["certify", "--measure", str(path)], capsys)
        assert code == 0, err
        assert json.loads(out)["certified"] is True

    def test_scan_over_memory_cap_exits_one(self, tmp_path, capsys):
        path = write_measure(tmp_path, 10**12, [0.3], [1.0])
        code, out, err = run_cli(["certify", "--measure", path], capsys)
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == "measure"
        assert "GB" in json.loads(err)["message"]

    def test_integral_float_cutoff_accepted(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(
            {"n": 64.0, "atoms": [{"position": 0.1, "sign": [1.0, 0.0]}]}))
        code, out, err = run_cli(["certify", "--measure", str(path)], capsys)
        assert code == 0, err
        assert json.loads(out)["n"] == 64

    def test_bad_grid_mult(self, tmp_path, capsys):
        # below 4, or above 2^16: each unit of grid_mult is one more FFT
        path = write_measure(tmp_path, 64, [0.2], [1.0])
        for grid_mult in ("2", str(2**16 + 1)):
            code, _, err = run_cli(
                ["certify", "--measure", path, "--grid-mult", grid_mult], capsys)
            assert code == 1
            assert json.loads(err)["error"] == "usage"

    def test_out_dir_gets_json_copy(self, tmp_path, capsys):
        path = write_measure(tmp_path, 64, [0.3], [1.0])
        out_dir = tmp_path / "artifacts"
        code, out, _ = run_cli(
            ["certify", "--measure", path, "--out", str(out_dir)], capsys)
        assert code == 0
        assert (out_dir / "certify.json").read_text() == out


class TestGram:
    def test_two_atom_measure_verifies(self, tmp_path, capsys):
        path = write_measure(tmp_path, 64, [0.15, 0.6], [1.0, 1.0j])
        code, out, err = run_cli(["gram", "--measure", path], capsys)
        assert code == 0, err
        rep = json.loads(out)
        assert rep["verified"] is True
        assert rep["min_eig"] >= -1e-9
        assert rep["rank_deficiency"] == 2
        assert rep["sup_poly_err"] <= 1e-8
        assert 0 < rep["cg_iters"] <= 200

    def test_n_4096_is_proved_in_o_n_memory(self, tmp_path, capsys):
        # the PSD proof forms no dense matrix: it proves Q PSD from O(|S| n)
        # arrays. residual_rel is not asserted: p_err is tiny here and the
        # CG floor is absolute
        path = write_measure(tmp_path, 4096, [0.3, 0.61], [1.0, 1j])
        code, out, err = run_cli(["gram", "--measure", path], capsys)
        assert code == 0, err
        rep = json.loads(out)
        assert rep["psd_rigorous"] is True
        assert rep["verified"] is True
        assert rep["min_eig"] == 0.0
        assert rep["rank_deficiency"] == 2
        assert 0 < rep["psd_floor"] <= 1 / 8193

    def test_separation_error_propagates(self, tmp_path, capsys):
        n = 64
        path = write_measure(tmp_path, n, [0.0, 1.0 / (2 * n)], [1.0, 1.0])
        code, _, err = run_cli(["gram", "--measure", path], capsys)
        assert code == 1
        assert json.loads(err)["error"] == "separation_too_small"

    def test_over_memory_cap_exits_one(self, tmp_path, capsys):
        path = write_measure(tmp_path, 10**12, [0.3], [1.0])
        code, out, err = run_cli(["gram", "--measure", path], capsys)
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == "measure"
        assert "GB" in json.loads(err)["message"]

    def test_nonconvergence_is_gram_conditioning(self, tmp_path, capsys, monkeypatch):
        # add an analytic-kernel direction of A A~* to p_err: the normal
        # equations then have no solution and CG cannot converge
        from supres import gram
        from test_gram import kernel_poly

        real_p_err = gram.p_err

        def off_range(c, f):
            return real_p_err(c, f) + 1e-3 * kernel_poly(c.n, c.measure.atoms[0])

        monkeypatch.setattr(gram, "p_err", off_range)
        path = write_measure(tmp_path, 64, [0.15, 0.6], [1.0, 1.0j])
        code, out, err = run_cli(["gram", "--measure", path], capsys)
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == "gram_conditioning"


class TestSpectrum:
    def test_k40_report(self, tmp_path, capsys):
        code, out, err = run_cli(["spectrum", "--K", "40"], capsys)
        assert code == 0, err
        rep = json.loads(out)
        assert 0.50 <= rep["sigma_min"] <= 0.75
        assert 1.30 <= rep["sigma_max"] <= 1.42
        assert rep["condition_holds"] is True
        assert [row["K"] for row in rep["sweep"]] == [10, 20, 40]
        assert all(row["condition_holds"] for row in rep["sweep"])

    def test_sweep_csv_schema(self, tmp_path, capsys):
        out_dir = tmp_path / "sp"
        code, out, _ = run_cli(["spectrum", "--K", "16", "--out", str(out_dir)], capsys)
        assert code == 0
        lines = (out_dir / "spectrum_sweep.csv").read_text().splitlines()
        assert lines[0] == "K,sigma_min,sigma_max,res_min,res_max"
        assert len(lines) == 4
        ks = [int(line.split(",")[0]) for line in lines[1:]]
        assert ks == [4, 8, 16]
        rep = json.loads(out)
        last = lines[-1].split(",")
        assert float(last[1]) == rep["sigma_min"]
        assert float(last[2]) == rep["sigma_max"]

    def test_too_small_cutoff(self, capsys):
        code, _, err = run_cli(["spectrum", "--K", "2"], capsys)
        assert code == 1
        assert json.loads(err)["error"] == "usage"

    def test_negative_seed_is_usage_error(self, capsys):
        code, out, err = run_cli(["spectrum", "--K", "40", "--seed", "-1"], capsys)
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == "usage"

    def test_over_memory_budget_is_usage_error(self, capsys, monkeypatch):
        # refused before any sweep size is solved: K, the largest, goes first
        def unreachable(*args, **kwargs):
            raise AssertionError("a sweep size was solved")

        monkeypatch.setattr("supres.qk_operator.build_operator", unreachable)
        tracemalloc.start()
        try:
            code, out, err = run_cli(["spectrum", "--K", str(10**9)], capsys)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == "usage"
        assert json.loads(err)["message"].startswith(f"spectrum section at K={10**9}")
        assert "GB" in json.loads(err)["message"]
        assert peak < 1_000_000

    def test_unreachable_tolerance_exits_two(self, capsys, monkeypatch):
        monkeypatch.setattr("supres.spectrum.RESIDUAL_TOL", 1e-30)
        code, _, err = run_cli(["spectrum", "--K", "4"], capsys)
        assert code == 2
        assert json.loads(err)["error"] == "non_convergence"

    def test_failed_condition_exits_two(self, capsys, monkeypatch):
        def fake(K, seed=0):
            return {"K": K, "sigma_max": 1.0, "sigma_min": 0.4,
                    "residual_max": 1e-9, "residual_min": 1e-9,
                    "iters_max": 1, "iters_min": 1, "condition_holds": False}

        monkeypatch.setattr("supres.spectrum.spectrum_report", fake)
        code, out, err = run_cli(["spectrum", "--K", "40"], capsys)
        assert code == 2
        assert json.loads(err)["error"] == "verification_failed"
        assert json.loads(out)["condition_holds"] is False


class TestConstants:
    def test_report_values(self, capsys):
        code, out, err = run_cli(["constants"], capsys)
        assert code == 0, err
        rep = json.loads(out)
        assert rep["C1_root_large"] == pytest.approx(2496.7, abs=1.0)
        assert rep["eta_star"] == pytest.approx(0.0112, abs=0.0005)
        assert len(rep["fK_samples"]) == 25

    def test_truncation_budget(self, capsys):
        code, out, err = run_cli(["constants"], capsys)
        assert code == 0, err
        assert json.loads(out)["truncation_budget"] == truncation_budget(1e13)

    def test_curve_csv(self, tmp_path, capsys):
        out_dir = tmp_path / "ct"
        code, out, _ = run_cli(["constants", "--out", str(out_dir)], capsys)
        assert code == 0
        lines = (out_dir / "fk_curve.csv").read_text().splitlines()
        assert lines[0] == "K,f_K"
        assert len(lines) == 26
        rep = json.loads(out)
        first = lines[1].split(",")
        assert float(first[0]) == rep["fK_samples"][0][0]
        assert float(first[1]) == rep["fK_samples"][0][1]

    @pytest.mark.parametrize("under", [False, True])
    def test_out_path_that_cannot_be_created_is_io_error(self, tmp_path, capsys, under):
        blocker = tmp_path / "file"
        blocker.write_text("")
        out_dir = blocker / "sub" if under else blocker
        code, out, err = run_cli(["constants", "--out", str(out_dir)], capsys)
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == "io"


class TestAudit:
    def test_clean_audit(self, tmp_path, capsys):
        out_dir = tmp_path / "audit"
        code, out, err = run_cli(
            ["audit", "--n", "8", "--samples", "44", "--out", str(out_dir)], capsys)
        assert code == 0, err
        rep = json.loads(out)
        assert rep["violation_count"] == 0
        assert rep["hard_violation_count"] == 0
        assert rep["min_margin"] > 0
        assert 0.0 < rep["eval_err_max"] < 1e-12
        assert len(rep["per_domain_min"]) == 22
        assert (out_dir / "audit_violations.csv").read_text() == \
            "domain,s,theta,measured,bound\n"

    def test_small_degree_rejected(self, capsys):
        code, _, err = run_cli(["audit", "--n", "3"], capsys)
        assert code == 1
        assert json.loads(err)["error"] == "usage"

    @pytest.mark.parametrize("count", ["0", "-5", "10"])
    def test_fewer_samples_than_subdomains_rejected(self, capsys, count):
        code, out, err = run_cli(["audit", "--n", "8", "--samples", count], capsys)
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == "usage"

    def test_sample_count_rounded_down(self, capsys):
        code, out, err = run_cli(["audit", "--n", "8", "--samples", "50"], capsys)
        assert code == 0, err
        assert json.loads(out)["samples"] == 44

    def test_degree_over_memory_budget_rejected(self, capsys):
        code, out, err = run_cli(["audit", "--n", str(10**8)], capsys)
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == "usage"
        assert "GB" in json.loads(err)["message"]

    @staticmethod
    def fake_hard_violation(monkeypatch):
        bad = {"domain": "D0+/Re", "s": 0.3, "theta": 0.1, "measured": 5.0, "bound": 1.0}
        fake_report = {
            "n": 8, "samples": 1, "violation_count": 1, "hard_violation_count": 1,
            "min_margin": -4.0, "mean_margin": -4.0, "per_domain_min": {"D0+/Re": -4.0},
            "eval_err_max": 1e-12, "violations": [bad]}
        monkeypatch.setattr("supres.bound_audit.check_master_bounds",
                            lambda *a, **k: fake_report)

    def test_hard_violation_exits_two(self, capsys, monkeypatch):
        self.fake_hard_violation(monkeypatch)
        code, out, err = run_cli(["audit", "--n", "8"], capsys)
        assert code == 2
        assert json.loads(err)["error"] == "verification_failed"
        assert json.loads(out)["hard_violation_count"] == 1

    def test_violation_csv_rows(self, tmp_path, capsys, monkeypatch):
        self.fake_hard_violation(monkeypatch)
        out_dir = tmp_path / "audit"
        code, _, _ = run_cli(["audit", "--n", "8", "--out", str(out_dir)], capsys)
        assert code == 2
        assert (out_dir / "audit_violations.csv").read_text() == \
            "domain,s,theta,measured,bound\nD0+/Re,0.3,0.1,5.0,1.0\n"


class TestReportIsTheLibraryValue:
    """stdout is json.dumps of the library's report: the CLI adds no key and
    changes no value."""

    @staticmethod
    def dumps(report) -> str:
        return json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"

    def test_certify(self, tmp_path, capsys):
        from supres import certificate as cert

        path = write_measure(tmp_path, 128, [0.1, 0.5], [1.0, 1j])
        code, out, _ = run_cli(["certify", "--measure", path, "--grid-mult", "6"], capsys)
        assert code == 0
        c = cert.solve_certificate(cert.AtomicMeasure(128, [0.1, 0.5], [1.0, 1j]))
        assert out == self.dumps(cert.verify_bounded(c, grid_mult=6))

    # one atom has no separation; at n = 1 every grid point lies within 1/n
    # of it, so no point is off the atom and the scan certifies nothing
    @pytest.mark.parametrize("n, code, scanned", [(1, 2, False), (64, 0, True)])
    def test_certify_one_atom(self, tmp_path, capsys, n, code, scanned):
        from supres import certificate as cert

        path = write_measure(tmp_path, n, [0.3], [1.0])
        got, out, _ = run_cli(["certify", "--measure", path], capsys)
        assert got == code
        rep = cert.verify_bounded(cert.solve_certificate(cert.AtomicMeasure(n, [0.3], [1.0])))
        assert out == self.dumps(rep)
        assert rep["separation"] is None
        assert (rep["sup_off_atom"] is not None) == (rep["argmax"] is not None) == scanned

    def test_gram(self, tmp_path, capsys):
        from supres import certificate as cert, gram

        path = write_measure(tmp_path, 64, [0.15, 0.6], [1.0, 1j])
        code, out, _ = run_cli(["gram", "--measure", path], capsys)
        assert code == 0
        m = cert.AtomicMeasure(64, [0.15, 0.6], [1.0, 1j])
        assert out == self.dumps(gram.assemble_and_verify(cert.solve_certificate(m)))

    def test_constants(self, capsys):
        from supres import constants

        code, out, _ = run_cli(["constants"], capsys)
        assert code == 0
        assert out == self.dumps(constants.constants_report())

    def test_audit(self, capsys):
        from supres import bound_audit

        code, out, _ = run_cli(["audit", "--n", "8", "--samples", "33", "--seed", "4"], capsys)
        assert code == 0
        assert out == self.dumps(bound_audit.check_master_bounds(8, 33, seed=4))

    def test_spectrum(self, capsys):
        from supres import spectrum

        code, out, _ = run_cli(["spectrum", "--K", "40", "--seed", "3"], capsys)
        assert code == 0
        assert out == self.dumps(spectrum.sweep_report(40, seed=3))


class TestQkDump:
    def test_csv_matches_entry_route(self, capsys):
        code, out, err = run_cli(["qk-dump", "--K", "3"], capsys)
        assert code == 0, err
        lines = out.splitlines()
        assert lines[0] == "l1,l2,re,im"
        assert len(lines) == 1 + 7 * 7
        for line in lines[1:]:
            l1, l2, re, im = line.split(",")
            ref = qk_entry(3, int(l1), int(l2))
            assert float(re) == pytest.approx(ref.real, abs=1e-15)
            assert float(im) == 0.0

    def test_center_row(self, capsys):
        _, out, _ = run_cli(["qk-dump", "--K", "2"], capsys)
        rows = {tuple(line.split(",")[:2]): line.split(",")[2]
                for line in out.splitlines()[1:]}
        assert float(rows[("0", "0")]) == 1.0
        assert float(rows[("0", "1")]) == 0.0

    def test_oversized_cutoff_rejected(self, capsys):
        code, _, err = run_cli(["qk-dump", "--K", "201"], capsys)
        assert code == 1
        assert json.loads(err)["error"] == "usage"

    def test_out_dir_writes_file_and_summary(self, tmp_path, capsys):
        out_dir = tmp_path / "qk"
        code, out, _ = run_cli(["qk-dump", "--K", "2", "--out", str(out_dir)], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["rows"] == 25
        text = (out_dir / "qk_entries.csv").read_text()
        assert text.splitlines()[0] == "l1,l2,re,im"
        assert len(text.splitlines()) == 26


class TestDeterminism:
    def test_spectrum_outputs_byte_identical(self, tmp_path, capsys):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        _, out_a, _ = run_cli(
            ["spectrum", "--K", "12", "--seed", "7", "--out", str(a_dir)], capsys)
        _, out_b, _ = run_cli(
            ["spectrum", "--K", "12", "--seed", "7", "--out", str(b_dir)], capsys)
        assert out_a == out_b
        assert (a_dir / "spectrum_sweep.csv").read_bytes() == \
            (b_dir / "spectrum_sweep.csv").read_bytes()

    def test_constants_byte_identical(self, capsys):
        _, out_a, _ = run_cli(["constants"], capsys)
        _, out_b, _ = run_cli(["constants"], capsys)
        assert out_a == out_b

    def test_audit_byte_identical(self, capsys):
        _, out_a, _ = run_cli(["audit", "--n", "8", "--samples", "22"], capsys)
        _, out_b, _ = run_cli(["audit", "--n", "8", "--samples", "22"], capsys)
        assert out_a == out_b


class TestProcessLevel:
    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "supres.cli", "constants"],
            capture_output=True, text=True, timeout=120, env=child_env())
        assert proc.returncode == 0
        rep = json.loads(proc.stdout)
        assert rep["C1_root_large"] == pytest.approx(2496.7, abs=1.0)

    def test_no_signal_processing_import(self, tmp_path):
        # importing scipy.signal costs about a second of start-up, and no
        # command needs it; gram and spectrum transform with numpy.fft, so
        # running them loads no scipy.fft either (no command loads any
        # scipy: test_loads_no_scipy)
        path = write_measure(tmp_path, 16, [0.1, 0.6], [1.0, -1.0])
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, supres.cli, supres.spectrum, supres.gram; "
             "print('scipy.signal' in sys.modules); "
             f"codes = supres.cli.main(['gram', '--measure', {path!r}]), "
             "supres.cli.main(['spectrum', '--K', '8']); "
             "print(codes, 'scipy.fft' in sys.modules)"],
            capture_output=True, text=True, timeout=120, env=child_env())
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0] == "False"
        assert lines[-1] == "(0, 0) False"

    # certify, gram, spectrum, qk-dump and audit need numpy only and
    # constants math only; importing scipy would add to every run's
    # start-up (about 0.2 s and 30 MB for gram's and spectrum's). The
    # audit-then-constants row runs both in one process, as the benchmark's
    # audit-quad workload does.
    @pytest.mark.parametrize("argvs", [
        [["certify", "--measure", "MEASURE"]],
        [["gram", "--measure", "MEASURE"]],
        [["certify", "--measure", "MEASURE"], ["gram", "--measure", "MEASURE"]],
        [["spectrum", "--K", "8"]],
        [["qk-dump", "--K", "2"]],
        [["certify", "--measure", "MEASURE"], ["gram", "--measure", "MEASURE"],
         ["spectrum", "--K", "8"]],
        [["audit", "--n", "8", "--samples", "11"]],
        [["constants"]],
        [["audit", "--n", "8", "--samples", "11"], ["constants"]],
    ], ids=["certify", "gram", "certify-then-gram", "spectrum", "qk-dump",
            "certify-then-gram-then-spectrum", "audit", "constants",
            "audit-then-constants"])
    def test_loads_no_scipy(self, tmp_path, argvs):
        path = str(write_measure(tmp_path, 256, [0.1, 0.6], [1.0, -1.0]))
        argvs = [[path if a == "MEASURE" else a for a in argv] for argv in argvs]
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from supres import cli; "
             f"codes = [cli.main(argv) for argv in {argvs!r}]; "
             "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
            capture_output=True, text=True, timeout=120, env=child_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == f"{[0] * len(argvs)} []"

    @pytest.mark.parametrize("module", ["supres.gram", "supres.spectrum", "supres.qk_operator"])
    def test_import_loads_no_scipy(self, module):
        proc = subprocess.run(
            [sys.executable, "-c",
             f"import sys, {module}; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
            capture_output=True, text=True, timeout=60, env=child_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_import_loads_no_numpy(self):
        # the parser is built at import and loads no numpy (about 0.14 s), so
        # --help and usage errors answer without it
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, supres.cli; print('numpy' in sys.modules)"],
            capture_output=True, text=True, timeout=60, env=child_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    def test_main_builds_no_parser(self, capsys, monkeypatch):
        import argparse

        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(type(self).__name__)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        for argv in (["qk-dump", "--K", "2"], ["spectrum", "--K", "3"], []):
            run_cli(argv, capsys)
        assert built == []

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--K"], ["qk-dump", "--K"], ["audit", "--n"],
        ["audit", "--n", "8", "--samples"], ["certify", "--grid-mult"],
    ])
    def test_size_flag_beyond_float_range_is_usage_error(self, tmp_path, capsys, argv):
        argv = argv + [str(10**400)]
        if argv[0] == "certify":
            argv += ["--measure", write_measure(tmp_path, 32, [0.1, 0.6], [1.0, -1.0])]
        code, out, err = run_cli(argv, capsys)
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == "usage"

    def test_missing_subcommand(self, capsys):
        code, _, err = run_cli([], capsys)
        assert code == 1
        assert json.loads(err)["error"] == "usage"


# every kind a command reports on stderr, as documented in the README
ERROR_KINDS = {"usage", "io", "parse", "measure", "separation_too_small",
               "singular_system", "gram_conditioning", "non_convergence",
               "verification_failed"}


def test_every_library_exception_has_an_exit_code():
    # main maps library exceptions by class name, so a renamed class would
    # fall through to exit 1: each public exception class of the package is
    # either a key of the table or an input error (a ValueError), and each
    # key names such a class
    import importlib
    import pkgutil

    import supres

    names = set()
    for info in pkgutil.iter_modules(supres.__path__):
        module = importlib.import_module(f"supres.{info.name}")
        for name, obj in vars(module).items():
            if (isinstance(obj, type) and issubclass(obj, BaseException)
                    and obj.__module__ == module.__name__ and not name.startswith("_")):
                names.add(name)
                assert name in cli._LIBRARY_ERRORS or issubclass(obj, ValueError), name
    assert set(cli._LIBRARY_ERRORS) <= names
    assert {kind for kind, _ in cli._LIBRARY_ERRORS.values()} <= ERROR_KINDS


_junk = st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
                  st.floats(allow_nan=True, allow_infinity=True),
                  st.text(max_size=3), st.just([]), st.just({}))
_position = st.one_of(st.floats(0.0, 1.0, exclude_max=True), _junk)
_sign = st.one_of(st.sampled_from([[1.0, 0.0], [0.0, -1.0], [-0.6, 0.8]]),
                  st.lists(_junk, max_size=3), _junk)
_atom = st.one_of(st.fixed_dictionaries({"position": _position, "sign": _sign}),
                  st.fixed_dictionaries({}, optional={"position": _position, "sign": _sign}),
                  _junk)
# n stays at most 64, or is refused before any work grows with it (an
# arbitrary integral float such as 900.0 would run a seconds-long Gram task)
_cutoff = st.one_of(st.integers(1, 64),
                    st.sampled_from([0, -3, 2.5, 64.0, 10**12, 1e300, math.nan, math.inf]),
                    st.none(), st.booleans(), st.text(max_size=3), st.just([]), st.just({}))
_good_atom = st.fixed_dictionaries({"position": st.floats(0.0, 1.0, exclude_max=True),
                                    "sign": st.sampled_from([[1.0, 0.0], [0.0, -1.0]])})
_document = st.one_of(
    st.fixed_dictionaries({"n": _cutoff, "atoms": st.lists(_good_atom, min_size=1, max_size=4)}),
    st.fixed_dictionaries({"n": _cutoff, "atoms": st.one_of(st.lists(_atom, max_size=4), _junk)}),
    st.fixed_dictionaries({}, optional={"n": _cutoff, "atoms": st.lists(_atom, max_size=2)}),
    _junk,
)


@settings(max_examples=150, deadline=None)
@given(doc=_document, command=st.sampled_from(["certify", "gram"]))
def test_malformed_measure_documents(tmp_path_factory, doc, command):
    path = tmp_path_factory.getbasetemp() / "fuzzed_measure.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([command, "--measure", str(path)])
    assert code in (0, 1, 2)
    if code == 1:
        assert out.getvalue() == ""
    if code:
        kind = json.loads(err.getvalue())["error"]
        assert kind in ERROR_KINDS, (kind, err.getvalue())


def _int_flag(valid):
    # negative, zero, a small valid value, or one so large that a size guard
    # (or the budget) refuses it before any work grows with it; 10^400 is
    # beyond the float range
    return st.one_of(st.integers(-10**6, -1), st.just(0), valid,
                     st.sampled_from([10**9, 10**18, 10**400])).map(str)


_flag_argv = st.one_of(
    st.tuples(st.just("spectrum"), st.just("--K"), _int_flag(st.integers(4, 64)),
              st.just("--seed"), _int_flag(st.integers(1, 99))),
    st.tuples(st.just("audit"), st.just("--n"), _int_flag(st.integers(4, 32)),
              st.just("--samples"), _int_flag(st.integers(11, 22)),
              st.just("--seed"), _int_flag(st.integers(1, 99))),
    st.tuples(st.just("qk-dump"), st.just("--K"), _int_flag(st.integers(1, 16))),
    st.tuples(st.just("certify"), st.just("--grid-mult"), _int_flag(st.integers(4, 64))),
)


@settings(max_examples=120, deadline=None)
@given(argv=_flag_argv)
@example(argv=("spectrum", "--K", "40", "--seed", "-1"))
def test_malformed_integer_flags(tmp_path_factory, argv):
    argv = list(argv)
    if argv[0] == "certify":
        argv += ["--measure", write_measure(tmp_path_factory.getbasetemp(), 32,
                                            [0.1, 0.6], [1.0, -1.0], "flags_measure.json")]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2)
    if code == 1:
        assert out.getvalue() == ""
    if code:
        kind = json.loads(err.getvalue())["error"]
        assert kind in ERROR_KINDS, (kind, err.getvalue())
