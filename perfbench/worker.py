"""One benchmark worker: a fresh process that runs one workload's tasks.

Usage: python3 worker.py CONFIG.json (written by run.py).

The worker imports the workload's supres modules, runs one warm-up task and
prints a ``ready`` line; the parent times set-up from process start to that
line. Unless the config is set-up only, it then repeats the task list
(passes) for the time budget, with the host-speed probe run before each task,
optionally followed by a second set of passes under the span recorder, and
prints one ``result`` line. Task output is
captured in memory; only protocol lines reach the real stdout.

The parent sets the BLAS/OpenMP thread caps in the environment, so they are
in force before numpy is first imported here.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import platform
import resource
import sys
import time


def _emit(out, obj) -> None:
    out.write(json.dumps(obj) + "\n")
    out.flush()


def run_task(cli, argv) -> dict:
    """One in-process CLI call, timed from outside, output captured."""
    buf_out, buf_err = io.StringIO(), io.StringIO()
    exception = None
    with contextlib.redirect_stdout(buf_out), contextlib.redirect_stderr(buf_err):
        start = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except Exception as exc:
            code, exception = None, f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
    return {"seconds": end - start, "exit": code, "exception": exception,
            "stdout": buf_out.getvalue(), "stderr": buf_err.getvalue()}


class Probe:
    """A fixed kernel that measures host speed, shaped like one workload's hot
    path (4-8 ms on the development host) and calling no supres code, so a
    change to the program cannot move it.

    Kinds: ``elementwise`` (Dirichlet-like sin ratios on a long grid),
    ``dense`` (a complex Hermitian eigh and matrix product), ``fft`` (long
    real convolutions), ``quad`` (adaptive quadrature of a short exponential
    sum, as in bound_audit).
    """

    def __init__(self, kind: str):
        import numpy as np

        rng = np.random.default_rng(0)
        if kind == "elementwise":
            # as long as the boundedness grid at n = 2^13: larger than the caches
            x = rng.uniform(0.01, 0.99, 1 << 17)

            def work():
                d = x - 0.3
                acc = np.exp(0.6j * np.pi) * np.sin(np.pi * 513 * d) / np.sin(np.pi * d)
                return float(np.max(np.abs(acc)))
        elif kind == "dense":
            a = rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128))
            a = a + a.conj().T

            def work():
                w, v = np.linalg.eigh(a)
                return float(np.abs(v @ (w[:, None] * v.conj().T)).max())
        elif kind == "fft":
            from scipy.signal import fftconvolve

            z, r = rng.standard_normal(16385), rng.standard_normal(32769)

            def work():
                return float(fftconvolve(z, r)[0] + fftconvolve(z[::-1], r)[0])
        elif kind == "quad":
            from scipy.integrate import quad

            j = np.arange(1, 34)

            def work():
                return sum(quad(lambda t: np.exp(2j * np.pi * (s + t) * j).sum().real,
                                0.0, -0.37, limit=200, epsabs=1e-11, epsrel=1e-11)[0]
                           for s in (0.05, 0.21))
        else:
            raise ValueError(f"unknown probe kind {kind!r}")
        self._work = work

    def __call__(self) -> float:
        start = time.perf_counter()
        self._work()
        return time.perf_counter() - start


def run_passes(cli, tasks, budget: float, recorder=None, probe=None) -> list[dict]:
    """Repeat the task list while another pass fits in the budget (at least once)."""
    passes = []
    start = time.perf_counter()
    while True:
        p0 = time.perf_counter()
        records = []
        for t in tasks:
            ps = probe() if probe else None
            records.append(run_task(cli, t["argv"]))
            records[-1]["probe_s"] = ps
        p1 = time.perf_counter()
        passes.append({"seconds": sum(r["seconds"] for r in records), "tasks": records})
        if recorder is not None:
            passes[-1]["spans"] = recorder.take()
        if (p1 - start) + (p1 - p0) > budget:
            return passes


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _environment() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "thread_cap": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
    }


def main(config_path: str) -> int:
    out = sys.stdout
    with open(config_path, encoding="utf-8") as fh:
        cfg = json.load(fh)
    sys.path.insert(0, cfg["src"])

    t0 = time.perf_counter()
    for name in cfg["modules"]:
        importlib.import_module(name)
    cli = sys.modules["supres.cli"]
    t1 = time.perf_counter()
    warm = run_task(cli, cfg["warmup"]["argv"])
    t2 = time.perf_counter()
    _emit(out, {"event": "ready", "import_s": t1 - t0, "first_task_s": t2 - t1,
                "warmup_exit": warm["exit"], "warmup_error": warm["exception"] or warm["stderr"]})
    if cfg["setup_only"]:
        return 0

    tasks, seconds = cfg["tasks"], float(cfg["seconds"])
    budget = seconds / 2 if cfg["trace"] else seconds
    # The first pass runs without the probe, whose allocations between tasks
    # change how the heap grows: the memory peak is the program's alone.
    passes = run_passes(cli, tasks, 0.0)
    rss = _peak_rss_mb()
    if cfg["trace"]:
        # the first pass in a fresh process pays for heap growth (up to 25%
        # on certify-scan); keep it out of the overhead comparison
        passes = []
    left = budget - sum(p["seconds"] for p in passes)
    passes += run_passes(cli, tasks, left, probe=Probe(cfg["probe"]))
    traced = []
    if cfg["trace"]:
        from spans import Recorder, aggregate, dump, layer_metrics

        rec = Recorder()
        rec.install()
        try:
            traced = run_passes(cli, tasks, budget, recorder=rec)
        finally:
            rec.uninstall()
        span_lists = [p.pop("spans") for p in traced]
        for p, spans in zip(traced, span_lists):
            p["layers"] = layer_metrics(aggregate(spans))
        dump(cfg["spans_path"], span_lists)

    oracle = {}
    if cfg["oracle_ks"]:
        from supres.spectrum import dense_extremes

        oracle = {str(K): list(dense_extremes(K)) for K in cfg["oracle_ks"]}
    _emit(out, {"event": "result", "passes": passes, "traced_passes": traced,
                "rss_mb": rss, "oracle": oracle, "env": _environment()})
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
