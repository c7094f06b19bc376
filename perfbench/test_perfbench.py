"""Tests of the benchmark itself (not of matconvex).

    python3 -m pytest perfbench -q

They take about 90 seconds: the traced runs repeat every workload once.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402

worker.load_library()

import numpy as np  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = sorted(workloads.WORKLOADS)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def traced_pass(units, tracer: tracing.Tracer):
    tracer.start_pass()
    installed = tracing.install(tracer)
    try:
        return workloads.run_pass(units)
    finally:
        installed.restore()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_repeat_their_counts(workload):
    args = ("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1")
    first, second = last_json(bench(*args)), last_json(bench(*args))
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert sorted(result["metrics"]) == sorted(m["name"] for m in SPEC["per_layer"])
    # the saved report carries wall-clock timings, so its size is no count
    counts = [{k: m["value"] for k, m in r["metrics"].items() if m["unit"] == "count"}
              for r in (first, second)]
    assert counts[0] == counts[1]
    assert counts[0]["linalg.eig_calls"] > 0


def test_untraced_run_reports_the_end_to_end_metrics():
    result = last_json(bench("--workload", "quadrature", "--seed", "4", "--seconds", "1"))
    assert result["correct"] and result["attempted"] > 0
    assert sorted(result["metrics"]) == sorted(m["name"] for m in SPEC["end_to_end"])
    for spec in SPEC["end_to_end"]:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"] and metric["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracing_changes_no_verdict_or_margin(workload, tmp_path):
    units = workloads.WORKLOADS[workload](2, tmp_path)
    plain = workloads.run_pass(units)
    tracer = tracing.Tracer()
    traced = traced_pass(units, tracer)
    assert traced == plain
    assert all(ok for _, ok, _ in plain)
    assert tracer.calls["numpy.linalg.eigh"] + tracer.calls["numpy.linalg.eigvalsh"] > 0


def bindings() -> dict:
    import matconvex.entropy as entropy
    import matconvex.rand as rand
    import matconvex.suite as suite

    out = {("numpy.linalg", k): getattr(np.linalg, k) for k in tracing.KERNELS}
    out[("RandomSpec", "rng")] = rand.RandomSpec.__dict__["rng"]
    out[("DensityOperator", "__post_init__")] = entropy.DensityOperator.__dict__["__post_init__"]
    out.update({("CHECKS", k): v for k, v in suite.CHECKS.items()})
    for ns in tracing._namespaces():
        out.update({(ns["__name__"], k): v for k, v in ns.items() if callable(v)})
    return out


def test_restore_puts_back_every_binding(tmp_path):
    tracing.install(tracing.Tracer()).restore()  # import every layer first
    before = bindings()
    installed = tracing.install(tracing.Tracer())
    during = bindings()
    installed.restore()
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    wrapped = [k for k in before if during[k] is not before[k]]
    assert ("matconvex.entropy", "min_eigenvalue") in wrapped  # bound by from-import
    assert ("CHECKS", "ssa_battery") in wrapped
    assert ("RandomSpec", "rng") in wrapped


def test_group_time_counts_nested_spans_once():
    tracer = tracing.Tracer()
    tracer.start_pass()

    def inner():
        return sum(range(1000))

    inner_t = tracer.wrap(inner, "rand", "inner", "g")

    def outer():
        return inner_t() + inner_t()

    outer_t = tracer.wrap(outer, "rand", "outer", "g")
    outer_t()
    spans = dict(zip(tracer.span_id, zip(tracer.span_start, tracer.span_end)))
    root = tracer.span_id[list(tracer.span_parent).index(-1)]
    assert tracer.group_s["g"] == pytest.approx(spans[root][1] - spans[root][0])
    assert tracer.self_s["rand"] == pytest.approx(tracer.group_s["g"])
    assert tracer.calls == {"inner": 2, "outer": 1}


def test_exception_fails_its_checks_and_the_pass_goes_on():
    def boom():
        raise RuntimeError("injected")

    units = [workloads.Unit("boom", ("a", "b"), lambda watch: boom()),
             workloads.Unit("fine", ("c",), lambda watch: [("c", True, (1.0,))])]
    outcomes = workloads.run_pass(units)
    assert [(c, ok) for c, ok, _ in outcomes] == [("a", False), ("b", False), ("c", True)]
    assert outcomes[0][2] == ("exception", "RuntimeError: injected")


def test_fails_without_a_result_where_the_library_is_absent(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "suite", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
