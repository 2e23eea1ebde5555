"""In-memory span recorder for the traced benchmark run.

The recorder wraps the public functions of every supres module from the
outside and rebinds each wrapper wherever a supres module holds a reference
to the original, so calls through ``from .certificate import eta_coeffs``
(gram, at import time) or a function-local import (``eval_eta`` inside
``gram.assemble_and_verify``) are seen as well as module-attribute calls.
scipy's ``quad`` is wrapped under the name bound_audit uses for it.

A span is (name, parent index, start, end, count). Spans nest through a
stack, so a span's self time is its duration minus that of its direct
children. ``count`` is 1 per call unless the layer has a counter taken from
its arguments or return value (points evaluated, power-iteration steps).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

import numpy as np

MODULES = ("cli", "certificate", "trigpoly", "gram", "qk_operator", "spectrum",
           "bound_audit", "constants", "specfun")


def _points(args, kwargs, result, exc):
    theta = args[1] if len(args) > 1 else kwargs["theta"]
    return int(np.size(theta))


def _iters(args, kwargs, result, exc):
    # NonConvergence carries the step count of the abandoned iteration
    return int(getattr(result if exc is None else exc, "iters", 0))


COUNTERS = {
    "certificate.eval_eta": _points,
    "trigpoly.eval": _points,
    "spectrum.power_largest": _iters,
    "spectrum.power_smallest_singular": _iters,
}


class Recorder:
    """Collects spans in memory; nothing is written until ``dump``."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def wrap(self, name: str, fn, count=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result = exc = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                end = clock()
                stack.pop()
                n = count(args, kwargs, result, exc) if count else 1
                spans[idx] = (name, parent, start, end, n)

        return traced

    def install(self) -> None:
        """Wrap every public supres function and rebind all references to it."""
        mods = {short: importlib.import_module(f"supres.{short}") for short in MODULES}
        wrappers = {}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    name = f"{short}.{attr}"
                    wrappers[id(obj)] = self.wrap(name, obj, COUNTERS.get(name))
        quad = mods["bound_audit"].quad
        wrappers[id(quad)] = self.wrap("bound_audit.quad", quad)
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                w = wrappers.get(id(obj))
                if w is not None:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, w)

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._restore):
            setattr(mod, attr, obj)
        self._restore.clear()

    def take(self) -> list:
        """Return the spans recorded so far and start a new list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def aggregate(spans: list) -> dict:
    """Per span name: total seconds, self seconds, calls and summed counts."""
    child = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, dict] = {}
    for i, (name, parent, start, end, n) in enumerate(spans):
        a = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0, "count": 0})
        a["s"] += end - start
        a["self_s"] += end - start - child[i]
        a["calls"] += 1
        a["count"] += n
    return out


def layer_metrics(agg: dict) -> dict:
    """The per-layer metrics of one pass, from its aggregated spans."""
    def g(name, key):
        return agg.get(name, {}).get(key, 0)

    gram_tasks = g("gram.assemble_and_verify", "calls")
    reports = g("spectrum.spectrum_report", "calls")
    matvecs = g("qk_operator.matvec", "calls") + g("qk_operator.matvec_transpose", "calls")
    return {
        "cli.main.self_s": g("cli.main", "self_s"),
        "certificate.solve_certificate.s": g("certificate.solve_certificate", "s"),
        "certificate.verify_bounded.self_s": g("certificate.verify_bounded", "self_s"),
        "certificate.eval_eta.s": g("certificate.eval_eta", "s"),
        "certificate.eval_eta.points": g("certificate.eval_eta", "count"),
        "certificate.eta_coeffs.s": g("certificate.eta_coeffs", "s"),
        "trigpoly.dirichlet_deriv.s": g("trigpoly.dirichlet_deriv", "s"),
        "trigpoly.dirichlet_deriv.calls": g("trigpoly.dirichlet_deriv", "calls"),
        "trigpoly.eval.s": g("trigpoly.eval", "s"),
        "trigpoly.eval.points": g("trigpoly.eval", "count"),
        "gram.projector_PUperp.s": g("gram.projector_PUperp", "s"),
        "gram.projector_PUperp.calls_per_task":
            g("gram.projector_PUperp", "calls") / gram_tasks if gram_tasks else 0.0,
        "gram.p_err.s": g("gram.p_err", "s"),
        "gram.op_A.s": g("gram.op_A", "s"),
        "gram.x_corr.self_s": g("gram.x_corr", "self_s"),
        "gram.assemble_and_verify.self_s": g("gram.assemble_and_verify", "self_s"),
        "qk_operator.build_operator.s": g("qk_operator.build_operator", "s"),
        "qk_operator.matvec.s": g("qk_operator.matvec", "s"),
        "qk_operator.matvec.calls": g("qk_operator.matvec", "calls"),
        "qk_operator.matvec_transpose.s": g("qk_operator.matvec_transpose", "s"),
        "qk_operator.matvec_transpose.calls": g("qk_operator.matvec_transpose", "calls"),
        "spectrum.power_largest.self_s": g("spectrum.power_largest", "self_s"),
        "spectrum.power_largest.iters": g("spectrum.power_largest", "count"),
        "spectrum.power_smallest_singular.self_s":
            g("spectrum.power_smallest_singular", "self_s"),
        "spectrum.power_smallest_singular.iters":
            g("spectrum.power_smallest_singular", "count"),
        "spectrum.matvecs_per_report": matvecs / reports if reports else 0.0,
        "bound_audit.check_master_bounds.self_s": g("bound_audit.check_master_bounds", "self_s"),
        "bound_audit.quad.s": g("bound_audit.quad", "s"),
        "bound_audit.quad.calls": g("bound_audit.quad", "calls"),
        "constants.constants_report.s": g("constants.constants_report", "s"),
        "specfun.solve_loglinear.calls": g("specfun.solve_loglinear", "calls"),
    }


def dump(path, passes: list[list]) -> None:
    """Write the spans of every traced pass as JSON lines."""
    with open(path, "w", encoding="utf-8") as fh:
        for p, spans in enumerate(passes):
            for i, (name, parent, start, end, n) in enumerate(spans):
                fh.write(json.dumps({"pass": p, "id": i, "name": name, "parent": parent,
                                     "start": start, "end": end, "count": n}) + "\n")
