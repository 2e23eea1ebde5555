"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

Smoke runs use the tiny task lists, so they check the plumbing (workers,
checks, metric names and units against BENCHMARK.json), not timings.
"""

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
COUNTERS = ("gram.projector_PUperp.calls_per_task", "qk_operator.matvec.calls",
            "qk_operator.matvec_transpose.calls", "spectrum.power_largest.iters",
            "spectrum.power_smallest_singular.iters", "bound_audit.quad.calls",
            "trigpoly.dirichlet_deriv.calls", "certificate.eval_eta.points")


def _bench(*args, cwd=HERE.parent, script=HERE / "run.py"):
    proc = subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


def _result(workload, trace, seed=3):
    proc = _bench("--workload", workload, "--seed", str(seed), "--seconds", "0.5",
                  "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_reports_every_metric(workload, trace):
    res = _result(workload, trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert res["attempted"] >= 1 and 0 <= res["failed"] <= res["attempted"]
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(res["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", ["gram-sos", "spectrum-sweep", "audit-quad"])
def test_counters_repeat_for_a_seed(workload):
    a, b = _result(workload, 1, seed=5), _result(workload, 1, seed=5)
    for name in COUNTERS:
        assert a["metrics"][name]["value"] == b["metrics"][name]["value"], name


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "gram-sos", "--seed", "1", "--seconds", "1",
                  cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_inputs_depend_only_on_seed():
    a = workloads.build("certify-scan", 7)
    assert a == workloads.build("certify-scan", 7)
    assert a != workloads.build("certify-scan", 8)


def test_separation_stays_above_the_solver_bound():
    from supres.certificate import measure_from_json, system_norm_bounds

    plan = workloads.build("gram-sos", 1)
    for task in plan["tasks"]:
        m = measure_from_json(task["measure"])
        assert system_norm_bounds(m)["operator_norm"] < 1.0


@pytest.fixture(scope="module")
def tiny_records(tmp_path_factory):
    """Real reports of every tiny task, run in this process."""
    from supres import cli

    out = {}
    for wl in workloads.WORKLOADS:
        plan = workloads.build(wl, 2, tiny=True)
        run._prepare(plan, tmp_path_factory.mktemp(wl))
        records = [worker.run_task(cli, t["argv"]) for t in plan["tasks"]]
        out[wl] = (plan["tasks"], records, _oracle(plan["tasks"]))
    return out


def _oracle(tasks):
    from supres.spectrum import dense_extremes

    return {str(K): list(dense_extremes(K)) for K in run._oracle_ks(tasks)}


def _corrupt(record, edit):
    report = json.loads(record["stdout"])
    edit(report)
    return dict(record, stdout=json.dumps(report))


def _shift_sigma(r):
    r["sweep"][0]["sigma_min"] += 1e-3


CORRUPTIONS = {
    "gram-sos": lambda r: r.update(rank_deficiency=r["rank_deficiency"] + 1),
    "certify-scan": lambda r: r.update(interp_err=1e-3),
    "spectrum-sweep": _shift_sigma,
    "audit-quad": lambda r: r.update(hard_violation_count=1),
}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_corrupted_report_raises_failed_share(tiny_records, workload):
    tasks, records, oracle = tiny_records[workload]
    clean = checks.summarize(tasks, [{"tasks": records}], oracle)
    assert clean["correct"] and clean["counts"]["wrong"] == 0
    bad = list(records)
    i = next(i for i, t in enumerate(tasks) if t["kind"] != "constants")
    bad[i] = _corrupt(bad[i], CORRUPTIONS[workload])
    dirty = checks.summarize(tasks, [{"tasks": bad}], oracle)
    assert dirty["failed_share"] > clean["failed_share"]
    assert not dirty["correct"]


def test_broken_output_counts_as_error(tiny_records):
    tasks, records, oracle = tiny_records["audit-quad"]
    const = next(i for i, t in enumerate(tasks) if t["kind"] == "constants")
    cases = [
        dict(records[0], stdout=records[0]["stdout"][:20]),
        dict(records[0], exit=1),
        dict(records[0], exit=None, exception="RuntimeError: boom"),
        _corrupt(records[const], lambda r: r.update(eta_star=0.02)),
    ]
    states = [checks.check_task(tasks[0 if k < 3 else const], rec, oracle)[0]
              for k, rec in enumerate(cases)]
    assert states == ["error", "error", "error", "wrong"]


def test_certify_refusal_is_failed_but_correct(tiny_records):
    tasks, records, oracle = tiny_records["certify-scan"]
    s = checks.summarize(tasks, [{"tasks": records}], oracle)
    # the tiny list has one |S| = 12 measure: refused by the Lipschitz slack
    assert s["counts"]["refused"] == 1 and s["correct"]


def test_self_time_excludes_children():
    rec = spans.Recorder()
    inner = rec.wrap("inner", lambda: sum(range(10000)))
    outer = rec.wrap("outer", lambda: inner() + inner())
    outer()
    agg = spans.aggregate(rec.take())
    assert agg["inner"]["calls"] == 2
    assert agg["outer"]["self_s"] == pytest.approx(agg["outer"]["s"] - agg["inner"]["s"])
