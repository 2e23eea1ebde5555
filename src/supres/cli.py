"""Batch front-end for the toolkit.

Subcommands: certify, gram, spectrum, constants, audit, qk-dump. Each
handler checks its flags, calls the library, and prints the dict the
library returns (`certificate.verify_bounded`, `gram.assemble_and_verify`,
`spectrum.spectrum_report`, `constants.constants_report`,
`bound_audit.check_master_bounds`) as JSON with sorted keys on stdout;
`_plain` serializes it, and the only key the CLI adds is spectrum's sweep
over K/4, K/2 and K. --out DIR additionally writes the report and the
fixed-schema CSV artifacts into DIR. Identical configuration, including
SUPRES_THREADS, and seed give byte-identical outputs.

Exit status is 0 on success, 1 on input or usage errors, and 2 when the
report's verdict fails (certify's certified, gram's verified, spectrum's
condition_holds at any sweep size, an audit sample beyond
bound_audit.HARD_FACTOR times its bound) or Lanczos does not converge.
An --out directory that cannot be created is an input error of kind io.
Failures are emitted as one-line JSON objects on stderr, never as bare
tracebacks; `main` maps library exceptions to error kinds by class name.

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


def _plain(x):
    """A report as plain JSON values: dicts become objects, tuples and lists
    arrays, numpy scalars Python numbers, and non-finite floats null."""
    if isinstance(x, dict):
        return {k: _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    if hasattr(x, "item"):
        x = x.item()
    if isinstance(x, float) and not math.isfinite(x):
        return None
    return x


def _finish(name: str, report, out, ok: bool = True, failure: str = "") -> int:
    """Print the report (and write it to out/name.json), then return the exit
    code of its verdict ok."""
    text = json.dumps(_plain(report), sort_keys=True, indent=2) + "\n"
    sys.stdout.write(text)
    if out is not None:
        (out / (name + ".json")).write_text(text)
    if ok:
        return 0
    _error("verification_failed", failure)
    return 2


def _write_csv(path, header: str, rows) -> None:
    """Rows of strings, ints and Python floats, unquoted; str of a float is
    its shortest round-trip form."""
    path.write_text(header + "\n" + "".join(",".join(map(str, r)) + "\n" for r in rows))


def _load_measure(path: str):
    from . import certificate as cert

    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise _CliError("io", f"cannot read measure file: {exc}")
    except json.JSONDecodeError as exc:
        raise _CliError("parse", f"measure file is not valid JSON: {exc}")
    return cert.measure_from_json(doc)


def _cmd_certify(args, out) -> int:
    from . import certificate as cert

    if args.grid_mult < 4:
        raise _CliError("usage", "--grid-mult must be at least 4")
    c = cert.solve_certificate(_load_measure(args.measure))
    report = cert.verify_bounded(c, grid_mult=args.grid_mult)
    return _finish("certify", report, out, report["certified"],
                   "certificate boundedness check failed")


def _cmd_gram(args, out) -> int:
    from . import certificate as cert, gram

    report = gram.assemble_and_verify(cert.solve_certificate(_load_measure(args.measure)))
    return _finish("gram", report, out, report["verified"],
                   "Gram matrix failed the PSD or reconstruction check")


def _cmd_spectrum(args, out) -> int:
    from . import spectrum as sp

    if args.K < 4:
        raise _CliError("usage", "--K must be at least 4")
    if args.seed < 0:
        raise _CliError("usage", f"--seed must be non-negative, got {args.seed}")
    sp.check_section_budget(args.K)  # before any sweep size is solved
    ks = sorted({max(4, args.K // 4), max(4, args.K // 2), args.K})
    reports = [sp.spectrum_report(k, seed=args.seed) for k in ks]
    sweep = [{key: r[key] for key in ("K", "sigma_min", "sigma_max", "condition_holds")}
             for r in reports]
    if out is not None:
        _write_csv(out / "spectrum_sweep.csv", "K,sigma_min,sigma_max,res_min,res_max",
                   [(r["K"], r["sigma_min"], r["sigma_max"], r["residual_min"],
                     r["residual_max"]) for r in reports])
    return _finish("spectrum", {**reports[-1], "sweep": sweep}, out,
                   all(r["condition_holds"] for r in reports),
                   "sigma_min - residual <= 1/2 at some section size")


def _cmd_constants(args, out) -> int:
    from . import constants as ct

    rep = ct.constants_report()
    if out is not None:
        _write_csv(out / "fk_curve.csv", "K,f_K", rep["fK_samples"])
    return _finish("constants", rep, out)


def _cmd_audit(args, out) -> int:
    from . import bound_audit as ba

    rep = ba.check_master_bounds(args.n, sample_count=args.samples, seed=args.seed)
    if out is not None:
        _write_csv(out / "audit_violations.csv", "domain,s,theta,measured,bound",
                   [v.values() for v in rep["violations"]])
    hard = rep["hard_violation_count"]
    return _finish("audit", rep, out, hard == 0,
                   f"{hard} sample(s) exceed a master bound by more than "
                   f"{ba.HARD_FACTOR:g}x")


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
        _finish("qk_dump", {"K": K, "rows": (2 * K + 1) ** 2, "file": "qk_entries.csv"}, out)
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


# library exceptions by class name, so that main imports no numerical module;
# any other ValueError is a bad measure for --measure commands, else usage
_LIBRARY_ERRORS = {
    "SeparationTooSmall": ("separation_too_small", 1),
    "SingularSystem": ("singular_system", 1),
    "SingularGram": ("gram_conditioning", 1),
    "IllConditioned": ("gram_conditioning", 1),
    "NonConvergence": ("non_convergence", 2),
}


def main(argv=None) -> int:
    args = None
    try:
        _cap_threads()
        args = _build_parser().parse_args(argv)
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
    except OSError as exc:
        _error("io", str(exc))
        return 1
    except Exception as exc:
        name = type(exc).__name__
        kind, code = _LIBRARY_ERRORS.get(name, (name, 1))
        if isinstance(exc, ValueError) and name not in _LIBRARY_ERRORS:
            kind = "measure" if getattr(args, "measure", None) else "usage"
        _error(kind, str(exc))
        return code


if __name__ == "__main__":
    sys.exit(main())
