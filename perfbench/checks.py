"""Correctness checks on the reports of benchmark tasks.

Stdlib only. Each task ends in one of four states:

- ``ok``: exit 0 and a report that passes every check of its kind;
- ``refused``: exit 2 with a report that is consistent but gives a negative
  verdict (for example ``certify`` at |S| >= 7, where the Lipschitz slack of
  the boundedness scan exceeds 1 although sup|eta| is near 0.13);
- ``wrong``: a report that contradicts its input, an oracle or the
  acceptance-test values, or whose exit code disagrees with its verdict;
- ``error``: an exception, exit 1 or any other code, or no JSON report.

Every state but ``ok`` counts as failed. Only ``wrong`` and ``error`` make a
run incorrect: a refusal is a true, if weak, answer.
"""

from __future__ import annotations

import json
import math

INTERP_TOL = 1e-9
GRAM_RESIDUAL_TOL = 1e-8
GRAM_DEFECT_TOL = 1e-8
GRAM_PSD_TOL = -1e-9
ORACLE_TOL = 1e-6
# brackets of the spectrum acceptance test (criterion 6 and test_k40_brackets)
SIGMA_MIN_BRACKET = (0.5, 0.75)
SIGMA_MAX_BRACKET = (1.30, 1.42)
SWEEP_SPREAD = 0.05
# acceptance-test values of the constants reproduction (criterion 7)
CONSTANTS = {
    "C1_root_small": (0.1354, 1e-3),
    "C1_root_large": (2496.7, 1.0),
    "eta_star": (0.0112, 5e-4),
}
FK_AT_2E13 = (0.00807, 0.10)


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _echo(report: dict, expect: dict) -> list[str]:
    return [f"{k}={report.get(k)!r}, expected {v!r}"
            for k, v in expect.items() if report.get(k) != v]


def _check_certify(task, report, oracle):
    problems = _echo(report, task["expect"])
    interp = report.get("interp_err")
    if not _finite(interp) or interp > INTERP_TOL:
        problems.append(f"interp_err {interp!r} > {INTERP_TOL}")
    sup = report.get("sup_off_atom")
    if report.get("certified") and not (_finite(sup) and sup < 1.0):
        problems.append(f"certified with sup_off_atom {sup!r}")
    return problems, bool(report.get("certified"))


def _check_gram(task, report, oracle):
    problems = _echo(report, task["expect"])
    size = task["expect"]["atom_count"]
    if report.get("rank_deficiency") != size:
        problems.append(f"rank_deficiency {report.get('rank_deficiency')!r}, "
                        f"kernel is span of {size} atom columns")
    resid = report.get("residual_rel")
    if not _finite(resid) or resid > GRAM_RESIDUAL_TOL:
        problems.append(f"residual_rel {resid!r} > {GRAM_RESIDUAL_TOL}")
    if report.get("verified"):
        min_eig, defect = report.get("min_eig"), report.get("sup_poly_err")
        if not (_finite(min_eig) and min_eig >= GRAM_PSD_TOL):
            problems.append(f"verified with min_eig {min_eig!r}")
        if not (_finite(defect) and defect <= GRAM_DEFECT_TOL):
            problems.append(f"verified with sup_poly_err {defect!r}")
    return problems, bool(report.get("verified"))


def sweep_sizes(K: int) -> list[int]:
    """Section sizes one ``spectrum --K K`` command solves (as in the CLI)."""
    return sorted({max(4, K // 4), max(4, K // 2), K})


def _check_spectrum(task, report, oracle):
    problems = _echo(report, task["expect"])
    sweep = report.get("sweep") or []
    ks = [r.get("K") for r in sweep]
    want = sweep_sizes(task["expect"]["K"])
    if ks != want:
        problems.append(f"sweep sizes {ks!r}, expected {want!r}")
    mins = []
    for r in sweep:
        lo, hi = r.get("sigma_min"), r.get("sigma_max")
        if not (_finite(lo) and _finite(hi)):
            problems.append(f"K={r.get('K')}: non-finite sigma")
            continue
        mins.append(lo)
        ref = oracle.get(str(r.get("K")))
        if ref is not None:
            if abs(lo - ref[0]) > ORACLE_TOL or abs(hi - ref[1]) > ORACLE_TOL:
                problems.append(f"K={r['K']}: sigma ({lo!r}, {hi!r}) vs dense SVD {ref!r}")
        elif not (SIGMA_MIN_BRACKET[0] < lo <= SIGMA_MIN_BRACKET[1]
                  and SIGMA_MAX_BRACKET[0] <= hi <= SIGMA_MAX_BRACKET[1]):
            problems.append(f"K={r['K']}: sigma ({lo!r}, {hi!r}) outside acceptance brackets")
    if mins and (max(mins) - min(mins)) / min(mins) > SWEEP_SPREAD:
        problems.append(f"sigma_min spread over the sweep above {SWEEP_SPREAD}")
    if report.get("condition_holds") != all(r.get("condition_holds") for r in sweep[-1:]):
        problems.append("top-level condition_holds disagrees with the sweep")
    holds = bool(sweep) and all(r.get("condition_holds") for r in sweep)
    return problems, holds


def _check_audit(task, report, oracle):
    problems = _echo(report, task["expect"])
    hard = report.get("hard_violation_count")
    listed = [v for v in report.get("violations") or []
              if _finite(v.get("measured")) and _finite(v.get("bound"))
              and v["measured"] > 2.0 * v["bound"]]
    if hard != len(listed):
        problems.append(f"hard_violation_count {hard!r}, {len(listed)} listed beyond 2x")
    if not isinstance(report.get("samples"), int) or report["samples"] < 1:
        problems.append(f"samples {report.get('samples')!r}")
    return problems, hard == 0


def _check_constants(task, report, oracle):
    problems = []
    for key, (value, tol) in CONSTANTS.items():
        got = report.get(key)
        if not (_finite(got) and abs(got - value) <= tol):
            problems.append(f"{key} {got!r}, expected {value} +- {tol}")
    if report.get("M1ppp") != 152 or report.get("M2") != 76:
        problems.append("M1ppp/M2 differ from 152/76")
    samples = report.get("fK_samples") or [[None, None]]
    k_last, fk = samples[-1]
    value, rel = FK_AT_2E13
    if not (_finite(k_last) and abs(k_last - 2e13) <= 1e4
            and _finite(fk) and abs(fk - value) <= rel * value):
        problems.append(f"f_K at {k_last!r} is {fk!r}, expected {value} within {rel:.0%}")
    return problems, True


_CHECKS = {
    "certify": _check_certify,
    "gram": _check_gram,
    "spectrum": _check_spectrum,
    "audit": _check_audit,
    "constants": _check_constants,
}


def check_task(task: dict, record: dict, oracle: dict) -> tuple[str, str]:
    """Classify one task execution; returns (state, reason)."""
    code = record.get("exit")
    if record.get("exception"):
        return "error", record["exception"]
    if code not in (0, 2):
        return "error", f"exit {code!r}: {record.get('stderr', '').strip()[:200]}"
    try:
        report = json.loads(record.get("stdout") or "")
    except ValueError:
        return "error", "stdout holds no JSON report"
    if not isinstance(report, dict):
        return "error", "report is not a JSON object"
    problems, verdict = _CHECKS[task["kind"]](task, report, oracle)
    if verdict != (code == 0):
        problems.append(f"exit {code} with verdict {verdict}")
    if problems:
        return "wrong", "; ".join(problems)
    return ("ok", "") if verdict else ("refused", "negative verdict, exit 2")


def summarize(tasks: list[dict], passes: list[dict], oracle: dict) -> dict:
    """Check every task record of every pass; count the states."""
    counts = {"ok": 0, "refused": 0, "wrong": 0, "error": 0}
    reasons = {}
    for p in passes:
        for task, rec in zip(tasks, p["tasks"]):
            state, why = check_task(task, rec, oracle)
            counts[state] += 1
            if state != "ok":
                reasons.setdefault(task["id"], f"{task['id']}: {state}: {why}")
    attempted = sum(counts.values())
    failed = attempted - counts["ok"]
    return {
        "attempted": attempted,
        "failed": failed,
        "correct": counts["wrong"] == 0 and counts["error"] == 0,
        "counts": counts,
        "failed_share": failed / attempted if attempted else 1.0,
        "reasons": list(reasons.values()),
    }
