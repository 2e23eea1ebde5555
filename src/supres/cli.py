"""Batch front-end for the toolkit.

Subcommands: certify, gram, spectrum, constants, audit, qk-dump. The
parser, built once at import, checks every flag's bounds; each handler calls
one library function and prints the dict it returns unchanged
(`certificate.verify_bounded`, `gram.assemble_and_verify`,
`spectrum.sweep_report`, `constants.constants_report`,
`bound_audit.check_master_bounds`) as JSON with sorted keys on stdout.
--out DIR additionally writes the report and the fixed-schema CSV artifacts
into DIR. Identical configuration, including the BLAS and OpenMP thread
variables, and seed give byte-identical outputs.

Exit status is 0 on success, 1 on input or usage errors, and 2 when the
report's verdict fails (certify's certified, gram's verified, spectrum's
condition_holds at any sweep size, an audit sample beyond
bound_audit.HARD_FACTOR times its bound) or Lanczos does not converge.
An --out directory that cannot be created is an input error of kind io.
Failures are emitted as one-line JSON objects on stderr, never as bare
tracebacks; `main` maps library exceptions to error kinds by class name.

The scientific imports are deferred into the command handlers, and building
the parser imports none, so that --help and usage errors do not wait for
numpy to load.
"""

import argparse
import json
import math
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


def _int(lo=-2**53, hi=2**53):
    """type= for an integer flag in [lo, hi]; a flag that sizes work keeps
    within 2^53 as a measure's n does, so no float conversion overflows."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        if not lo <= value <= hi:
            raise argparse.ArgumentTypeError(f"must lie between {lo} and {hi}")
        return value
    return parse


def _finish(name: str, report, out, ok: bool = True, failure: str = "") -> int:
    """Print the report (and write it to out/name.json), then return the exit
    code of its verdict ok."""
    text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
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

    rep = sp.sweep_report(args.K, seed=args.seed)
    if out is not None:
        _write_csv(out / "spectrum_sweep.csv", "K,sigma_min,sigma_max,res_min,res_max",
                   [(r["K"], r["sigma_min"], r["sigma_max"], r["residual_min"],
                     r["residual_max"]) for r in rep["sweep"]])
    return _finish("spectrum", rep, out, all(r["condition_holds"] for r in rep["sweep"]),
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

    K = args.K
    # Q is real: the im column is always 0.0, and + 0.0 turns -0.0 into 0.0
    lines = ["l1,l2,re,im"]
    for i, row in enumerate(qk.qk_dense(K).tolist()):
        for j, re in enumerate(row):
            lines.append(f"{i - K},{j - K},{re + 0.0!r},0.0")
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
    # the scan runs one FFT per unit of grid_mult, so its time, not its
    # memory, grows with it; past 2^16 the Lipschitz slack, about
    # pi |S|/(2 grid_mult), is already below 3e-5 per atom
    p.add_argument("--grid-mult", type=_int(lo=4, hi=2**16), default=10,
                   help="grid oversampling for the boundedness check")
    add_out(p)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("gram", help="assemble the sum-of-squares Gram matrix")
    p.add_argument("--measure", required=True, help="measure JSON file")
    add_out(p)
    p.set_defaults(func=_cmd_gram)

    p = sub.add_parser("spectrum", help="estimate extreme singular values of the section")
    p.add_argument("--K", type=_int(lo=4), required=True, help="frequency cutoff of the section")
    p.add_argument("--seed", type=_int(lo=0, hi=math.inf), default=0)
    add_out(p)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("constants", help="reproduce the scalar constants, bound curve "
                                         "and truncation budget")
    add_out(p)
    p.set_defaults(func=_cmd_constants)

    p = sub.add_parser("audit", help="closed-form spot checks of the inner-integral bounds")
    p.add_argument("--n", type=_int(), required=True, help="kernel degree")
    p.add_argument("--samples", type=_int(), default=110,
                   help="total sample count, at least 11; rounded down to a multiple "
                        "of 11 (one share per subdomain), so 50 gives 44")
    p.add_argument("--seed", type=_int(lo=0, hi=math.inf), default=0)
    add_out(p)
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("qk-dump", help="write dense operator entries as CSV")
    p.add_argument("--K", type=_int(lo=1, hi=200), required=True)
    add_out(p)
    p.set_defaults(func=_cmd_qk_dump)

    return parser


_PARSER = _build_parser()

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
        args = _PARSER.parse_args(argv)
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
