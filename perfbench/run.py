"""supres benchmark: four CLI workloads timed end to end, plus a traced run.

    python3 perfbench/run.py --workload certify-scan --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 24

Each task is one in-process ``supres.cli.main([...])`` call on inputs made
from ``--seed``. Set-up (interpreter start, imports, first warm-up task) is
timed on five fresh worker processes; the last of them then repeats the
workload's task list for ``--seconds``. Workers run one at a time, with the
BLAS/OpenMP pools capped at one thread.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics;
with ``--trace 1`` half the time runs untraced and half under the span
recorder, and the last line holds the per-layer metrics. Earlier lines give
the environment, the pass times and every metric with its unit; failed tasks
are listed on stderr. Every task's report is checked (see checks.py).

Exit status is 0 when a result was printed, 2 when the supres sources are
missing, 1 when a worker crashed or ran out of time.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import threading
import time

import checks
import workloads

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_WORKERS = 5
# One BLAS/OpenMP thread (<= nproc on any host): on a shared 2-core host a
# dense eigh varied 7-9% between repeats on one thread and 12-18% on two.
THREADS = 1
RUN_LIMIT_S = 170.0
# Median time of each worker.Probe kind between tasks, over ten runs on the
# 2-core development host. Pass and task times are reported at that speed:
# wall time * PROBE_REF_S[kind] / the run's median probe time.
PROBE_REF_S = {"elementwise": 0.0076, "dense": 0.0048, "fft": 0.0067, "quad": 0.0039}

ORACLE_MAX_K = 200


class BenchError(RuntimeError):
    """A worker crashed, timed out or broke the protocol."""


def unit_of(name: str) -> str:
    if name == "peak_rss_mb":
        return "MB"
    if name.endswith("_share"):
        return "ratio"
    if name.endswith("calls_per_task"):
        return "calls/task"
    if name.endswith("matvecs_per_report"):
        return "matvecs/report"
    if name.endswith((".calls", ".points", ".iters")):
        return "count"
    return "s"


def _thread_env() -> dict:
    cap = str(THREADS)
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "SUPRES_THREADS"):
        env[var] = cap
    return env


def _run_worker(cfg_path: pathlib.Path, env: dict, timeout: float):
    """Start one worker; return (set-up seconds, ready message, result message
    or None for a set-up-only worker)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(cfg_path)],
                            stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        ready = result = None
        setup_s = None
        for line in proc.stdout:
            if not line.startswith('{"event"'):
                continue
            msg = json.loads(line)
            if msg["event"] == "ready":
                setup_s = time.perf_counter() - start
                ready = msg
            elif msg["event"] == "result":
                result = msg
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0 or ready is None:
        raise BenchError(f"worker exited with {code} (limit {timeout:.0f} s)")
    if ready["warmup_exit"] != 0:
        raise BenchError(f"warm-up task failed: {ready['warmup_error']}")
    return setup_s, ready, result


def _prepare(plan: dict, workdir: pathlib.Path) -> None:
    """Write measure files and point the measure tasks at them."""
    for task in [plan["warmup"]] + plan["tasks"]:
        if "measure" in task:
            path = workdir / f"{task['id']}.json"
            path.write_text(json.dumps(task["measure"]))
            task["argv"] = [str(path) if a is None else a for a in task["argv"]]


def _oracle_ks(tasks: list[dict]) -> list[int]:
    return sorted({k for t in tasks if t["kind"] == "spectrum"
                   for k in checks.sweep_sizes(t["expect"]["K"]) if k <= ORACLE_MAX_K})


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False) -> dict:
    """Run one workload; return the contract result plus details for printing."""
    deadline = time.perf_counter() + RUN_LIMIT_S
    plan = workloads.build(workload, seed, tiny=tiny)
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"run-{os.getpid()}-{workload}"
    workdir.mkdir(exist_ok=True)
    try:
        _prepare(plan, workdir)
        base = {"src": str(SRC), "modules": plan["modules"], "warmup": plan["warmup"],
                "probe": plan["probe"],
                "tasks": plan["tasks"], "seconds": seconds, "trace": trace,
                "oracle_ks": _oracle_ks(plan["tasks"]),
                "spans_path": str(WORK / f"spans-{workload}-seed{seed}.jsonl")}
        env = _thread_env()
        setups, readies = [], []
        for i in range(SETUP_WORKERS):
            last = i == SETUP_WORKERS - 1
            cfg_path = workdir / f"worker{i}.json"
            cfg_path.write_text(json.dumps(dict(base, setup_only=not last)))
            limit = deadline - time.perf_counter()
            setup_s, ready, result = _run_worker(cfg_path, env, max(limit, 1.0))
            setups.append(setup_s)
            readies.append(ready)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if result is None:
        raise BenchError("the timed worker printed no result")

    tasks, passes = plan["tasks"], result["passes"]
    traced = result["traced_passes"]
    summary = checks.summarize(tasks, passes + traced, result["oracle"])
    run_s = statistics.median(p["seconds"] for p in passes)
    extra = {}
    if trace:
        layer_names = list(traced[0]["layers"])
        metrics = {
            "setup.import_s": statistics.median(r["import_s"] for r in readies),
            "setup.first_task_s": statistics.median(r["first_task_s"] for r in readies),
        }
        for name in layer_names:
            metrics[name] = statistics.median(p["layers"][name] for p in traced)
        traced_s = statistics.median(p["seconds"] for p in traced)
        metrics["trace.overhead_share"] = (traced_s - run_s) / run_s
    else:
        # Host speed drifts by up to 1.6x within minutes on a shared host, so
        # pass and task times are rescaled by the probe's median over the
        # passes. Set-up runs in other processes, before the probe, and is
        # dominated by imports, which the probe does not track: it stays raw.
        probe_s = statistics.median(t["probe_s"] for p in passes for t in p["tasks"]
                                    if t["probe_s"] is not None)
        wall = {
            "run_s": run_s,
            "task_p50_s": statistics.median(
                statistics.median(p["tasks"][i]["seconds"] for p in passes)
                for i in range(len(tasks))),
        }
        scale = PROBE_REF_S[plan["probe"]] / probe_s
        metrics = {k: v * scale for k, v in wall.items()}
        metrics["setup_s"] = statistics.median(setups)
        metrics["peak_rss_mb"] = result["rss_mb"]
        metrics["ok_share"] = 1.0 - summary["failed_share"]
        extra = {"wall": wall, "probe_s": probe_s}
    return {
        "workload": workload,
        "env": result["env"],
        "pass_s": [p["seconds"] for p in passes],
        "traced_pass_s": [p["seconds"] for p in traced],
        "tasks_per_pass": len(tasks),
        **extra,
        "summary": summary,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }


def _print_details(res: dict) -> None:
    s = res["summary"]
    print(json.dumps({k: v for k, v in res.items() if k not in ("summary", "metrics")}
                     | {"states": s["counts"]}))
    print(f"{res['workload']:16s} failed_share {s['failed_share']:.4f} ratio "
          f"({s['failed']} of {s['attempted']} tasks)")
    for name, m in res["metrics"].items():
        print(f"{res['workload']:16s} {name} {m['value']:.6g} {m['unit']}")
    for reason in s["reasons"]:
        print(f"failed task {reason}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small sizes, for the benchmark's own smoke tests")
    args = parser.parse_args(argv)
    if not (SRC / "supres" / "cli.py").is_file():
        print(f"supres sources not found under {SRC}", file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            results.append(run_workload(name, args.seed, args.seconds, bool(args.trace),
                                        tiny=args.tiny))
            _print_details(results[-1])
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["summary"]["correct"] for r in results),
        "attempted": sum(r["summary"]["attempted"] for r in results),
        "failed": sum(r["summary"]["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
