"""Batch front-end for the toolkit.

Subcommands: certify, gram, spectrum, constants, audit, qk-dump. Every
subcommand prints a JSON report with sorted keys to stdout; --out DIR
additionally writes the report and the fixed-schema CSV artifacts into DIR.
Identical configuration and seed give byte-identical outputs.

Exit status is 0 on success, 1 on input or usage errors, and 2 when a
verification fails (positive semidefiniteness, the sigma_min > 1/2 condition,
or certificate boundedness). Failures are emitted as one-line JSON objects on
stderr, never as bare tracebacks.

The scientific imports are deferred into the command handlers so that the
SUPRES_THREADS environment variable can cap the BLAS and OpenMP pools before
numpy is first loaded.
"""

import argparse
import json
import math
import os
import pathlib
import sys


class _CliError(Exception):
    """Carries a machine-readable error kind and the process exit code."""

    def __init__(self, kind: str, message, code: int = 1):
        super().__init__(str(message))
        self.kind = kind
        self.code = code


class _Parser(argparse.ArgumentParser):
    """Parser that reports usage problems as JSON instead of exiting with 2."""

    def error(self, message):
        raise _CliError("usage", message)


def _error(kind: str, message: str) -> None:
    sys.stderr.write(json.dumps({"error": kind, "message": message}, sort_keys=True) + "\n")


def _cap_threads() -> None:
    """Propagate SUPRES_THREADS to the BLAS/OpenMP pool variables.

    Must run before numpy is imported anywhere in the process; this module
    therefore defers all scientific imports into the command handlers.
    """
    cap = os.environ.get("SUPRES_THREADS", "").strip()
    if not cap:
        return
    if not cap.isdigit() or int(cap) < 1:
        raise _CliError("usage", f"SUPRES_THREADS must be a positive integer, got {cap!r}")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = cap


def _size(text: str) -> int:
    """Integer flag that sizes work. Beyond 2^53 (as for a measure's n) it is
    a usage error, not an overflow deep in a float conversion."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if abs(value) > 2**53:
        raise argparse.ArgumentTypeError("must lie between -2^53 and 2^53")
    return value


def _num(x):
    """Plain Python float for JSON, with non-finite values mapped to null."""
    x = float(x)
    return x if math.isfinite(x) else None


def _emit_json(report: dict, out, name: str) -> None:
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    sys.stdout.write(text)
    if out is not None:
        (out / (name + ".json")).write_text(text)


def _write_csv(path, header: str, rows) -> None:
    path.write_text(header + "\n" + "".join(r + "\n" for r in rows))


def _verify_failed(message: str) -> int:
    _error("verification_failed", message)
    return 2


def _load_measure(path: str):
    from . import certificate as cert

    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise _CliError("io", f"cannot read measure file: {exc}")
    except json.JSONDecodeError as exc:
        raise _CliError("parse", f"measure file is not valid JSON: {exc}")
    try:
        return cert.measure_from_json(doc)
    except ValueError as exc:
        raise _CliError("measure", str(exc))


def _solve(m):
    from . import certificate as cert

    try:
        return cert.solve_certificate(m)
    except cert.SeparationTooSmall as exc:
        raise _CliError("separation_too_small", str(exc))
    except cert.SingularSystem as exc:
        raise _CliError("singular_system", str(exc))


def _cmd_certify(args, out) -> int:
    from . import certificate as cert
    import numpy as np

    if args.grid_mult < 4:
        raise _CliError("usage", "--grid-mult must be at least 4")
    m = _load_measure(args.measure)
    c = _solve(m)
    try:
        vb = cert.verify_bounded(c, grid_mult=args.grid_mult)
    except ValueError as exc:
        raise _CliError("measure", str(exc))

    atoms = c.measure.atoms
    interp_err = float(np.max(np.abs(cert.eval_eta(c, atoms) - c.measure.signs)))
    deriv_err = float(np.max(np.abs(cert.eval_eta(c, atoms, deriv_order=1))))
    report = {
        "atom_count": int(m.size),
        "n": int(m.n),
        "separation": _num(m.separation),
        "deviation_bound": _num(cert.system_norm_bounds(m)["operator_norm"]),
        "interp_err": interp_err,
        "deriv_err": deriv_err,
        "sup_off_atom": _num(vb["sup_off_atom"]),
        "argmax": _num(vb["argmax"]),
        "certified": bool(vb["certified"]),
    }
    _emit_json(report, out, "certify")
    if not report["certified"] or interp_err > 1e-6:
        return _verify_failed("certificate boundedness check failed")
    return 0


def _cmd_gram(args, out) -> int:
    from . import gram

    m = _load_measure(args.measure)
    c = _solve(m)
    try:
        res = gram.assemble_and_verify(c)
    except ValueError as exc:
        raise _CliError("measure", str(exc))
    except (gram.SingularGram, gram.IllConditioned) as exc:
        raise _CliError("gram_conditioning", str(exc))

    psd_ok = res["min_eig"] >= -1e-9
    defect_ok = res["sup_poly_err"] <= 1e-8
    report = {
        "atom_count": int(m.size),
        "n": int(m.n),
        "min_eig": _num(res["min_eig"]),
        "rank_deficiency": int(res["rank_deficiency"]),
        "sup_poly_err": _num(res["sup_poly_err"]),
        "residual_rel": _num(res["residual_rel"]),
        "cg_iters": int(res["cg_iters"]),
        "psd_ok": bool(psd_ok),
        "defect_ok": bool(defect_ok),
        "verified": bool(psd_ok and defect_ok),
    }
    _emit_json(report, out, "gram")
    if not report["verified"]:
        return _verify_failed("Gram matrix failed the PSD or reconstruction check")
    return 0


def _cmd_spectrum(args, out) -> int:
    from . import spectrum as sp
    from .budget import BudgetExceeded

    if args.K < 4:
        raise _CliError("usage", "--K must be at least 4")
    if args.seed < 0:
        raise _CliError("usage", f"--seed must be non-negative, got {args.seed}")
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise _CliError("usage", f"--tol must be a positive finite number, got {args.tol!r}")
    try:
        sp.check_section_budget(args.K)
    except BudgetExceeded as exc:
        raise _CliError("usage", f"--K too large: {exc}")
    ks = sorted({max(4, args.K // 4), max(4, args.K // 2), args.K})
    try:
        reports = [sp.spectrum_report(k, tol=args.tol, seed=args.seed) for k in ks]
    except sp.NonConvergence as exc:
        raise _CliError("non_convergence", str(exc), code=2)

    rep = reports[-1]
    report = {
        "K": int(rep.K),
        "sigma_min": _num(rep.sigma_min),
        "sigma_max": _num(rep.sigma_max),
        "residual_min": _num(rep.residual_min),
        "residual_max": _num(rep.residual_max),
        "iters_min": int(rep.iters_min),
        "iters_max": int(rep.iters_max),
        "condition_holds": bool(rep.condition_holds),
        "sweep": [
            {
                "K": int(r.K),
                "sigma_min": _num(r.sigma_min),
                "sigma_max": _num(r.sigma_max),
                "condition_holds": bool(r.condition_holds),
            }
            for r in reports
        ],
    }
    _emit_json(report, out, "spectrum")
    if out is not None:
        rows = [
            f"{r.K},{float(r.sigma_min)!r},{float(r.sigma_max)!r},"
            f"{float(r.residual_min)!r},{float(r.residual_max)!r}"
            for r in reports
        ]
        _write_csv(out / "spectrum_sweep.csv",
                   "K,sigma_min,sigma_max,res_min,res_max", rows)
    if not all(r.condition_holds for r in reports):
        return _verify_failed("sigma_min - residual <= 1/2 at some section size")
    return 0


def _cmd_constants(args, out) -> int:
    from . import constants as ct

    rep = ct.constants_report()
    report = {
        "C1_root_small": _num(rep.C1_root_small),
        "C1_root_large": _num(rep.C1_root_large),
        "eta_star": _num(rep.eta_star),
        "M1ppp": int(rep.M1ppp),
        "M2": int(rep.M2),
        "lam": _num(rep.lam),
        "eps": _num(rep.eps),
        "fK_samples": [[_num(k), _num(v)] for k, v in rep.fK_samples],
        "truncation_budget": rep.truncation_budget,
    }
    _emit_json(report, out, "constants")
    if out is not None:
        rows = [f"{float(k)!r},{float(v)!r}" for k, v in rep.fK_samples]
        _write_csv(out / "fk_curve.csv", "K,f_K", rows)
    return 0


def _cmd_audit(args, out) -> int:
    from . import bound_audit as ba

    try:
        rep = ba.check_master_bounds(args.n, sample_count=args.samples, seed=args.seed)
    except ValueError as exc:
        raise _CliError("usage", str(exc))

    hard = [v for v in rep.violations if v["measured"] > 2.0 * v["bound"]]
    report = {
        "n": int(rep.n),
        "samples": int(rep.samples),
        "violation_count": len(rep.violations),
        "hard_violation_count": len(hard),
        "min_margin": _num(rep.margin_stats["min_margin"]),
        "mean_margin": _num(rep.margin_stats["mean_margin"]),
        "eval_err_max": _num(rep.eval_err_max),
        "per_domain_min": {k: _num(v) for k, v in rep.margin_stats["per_domain_min"].items()},
        "violations": [
            {
                "domain": v["domain"],
                "s": _num(v["s"]),
                "theta": _num(v["theta"]),
                "measured": _num(v["measured"]),
                "bound": _num(v["bound"]),
            }
            for v in rep.violations
        ],
    }
    _emit_json(report, out, "audit")
    if out is not None:
        rows = [
            f"{v['domain']},{float(v['s'])!r},{float(v['theta'])!r},"
            f"{float(v['measured'])!r},{float(v['bound'])!r}"
            for v in rep.violations
        ]
        _write_csv(out / "audit_violations.csv", "domain,s,theta,measured,bound", rows)
    if hard:
        return _verify_failed(f"{len(hard)} sample(s) exceed a master bound by more than 2x")
    return 0


def _cmd_qk_dump(args, out) -> int:
    from . import qk_operator as qk

    if args.K < 1 or args.K > 200:
        raise _CliError("usage", "--K must be between 1 and 200 for a dense dump")
    K = args.K
    Q = qk.qk_dense(K)
    lines = ["l1,l2,re,im"]
    for i in range(2 * K + 1):
        for j in range(2 * K + 1):
            z = complex(Q[i, j])
            lines.append(f"{i - K},{j - K},{z.real + 0.0!r},{z.imag + 0.0!r}")
    text = "\n".join(lines) + "\n"
    if out is not None:
        (out / "qk_entries.csv").write_text(text)
        _emit_json({"K": K, "rows": (2 * K + 1) ** 2, "file": "qk_entries.csv"},
                   out, "qk_dump")
    else:
        sys.stdout.write(text)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="supres",
                     description="dual-certificate and operator-spectrum toolkit")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_out(p):
        p.add_argument("--out", help="directory for JSON/CSV artifacts")

    p = sub.add_parser("certify", help="build and check an interpolating certificate")
    p.add_argument("--measure", required=True, help="measure JSON file")
    p.add_argument("--grid-mult", type=_size, default=10,
                   help="grid oversampling for the boundedness check")
    add_out(p)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("gram", help="assemble the sum-of-squares Gram matrix")
    p.add_argument("--measure", required=True, help="measure JSON file")
    add_out(p)
    p.set_defaults(func=_cmd_gram)

    p = sub.add_parser("spectrum", help="certify extreme singular values of the section")
    p.add_argument("--K", type=_size, required=True, help="frequency cutoff of the section")
    p.add_argument("--tol", type=float, default=1e-8,
                   help="absolute residual target of the Lanczos (ARPACK eigsh) "
                        "eigenpairs of M^T M")
    p.add_argument("--seed", type=int, default=0)
    add_out(p)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("constants", help="reproduce the scalar constants, bound curve "
                                         "and truncation budget")
    add_out(p)
    p.set_defaults(func=_cmd_constants)

    p = sub.add_parser("audit", help="closed-form spot checks of the inner-integral bounds")
    p.add_argument("--n", type=_size, required=True, help="kernel degree")
    p.add_argument("--samples", type=_size, default=110,
                   help="total sample count, at least 11; rounded down to a multiple "
                        "of 11 (one share per subdomain), so 50 gives 44")
    p.add_argument("--seed", type=int, default=0)
    add_out(p)
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("qk-dump", help="write dense operator entries as CSV")
    p.add_argument("--K", type=_size, required=True)
    add_out(p)
    p.set_defaults(func=_cmd_qk_dump)

    return parser


def main(argv=None) -> int:
    try:
        _cap_threads()
        parser = _build_parser()
        args = parser.parse_args(argv)
        out = None
        if getattr(args, "out", None):
            out = pathlib.Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
        return args.func(args, out)
    except _CliError as exc:
        _error(exc.kind, str(exc))
        return exc.code
    except BrokenPipeError:
        return 1
    except Exception as exc:
        _error(type(exc).__name__, str(exc))
        return 1


if __name__ == "__main__":
    sys.exit(main())
