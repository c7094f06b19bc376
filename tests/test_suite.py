"""run-suite checks: stream blocks, witnesses that regenerate, NaN trials."""

import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from matconvex import convexity as cx
from matconvex import jointconcavity as jc
from matconvex import resolvent as rv
from matconvex.io import matrix_from_dict
from matconvex.linalg import SpectrumWindow
from matconvex.rand import RandomSpec, random_in_window_rows
from matconvex.suite import run_suite


def test_x4_witness_regenerates_from_its_stream_id():
    (record,) = run_suite(1, only="convexity_detectors")
    witness = record["witness"]
    a0, _ = matrix_from_dict(witness["A0"])
    redrawn = random_in_window_rows(
        2, SpectrumWindow(0.1, 2.0), [RandomSpec(1, witness["stream_id"]).rng()]
    )[0]
    np.testing.assert_array_equal(redrawn, a0)
    assert witness["stream_id"] == 9_000_002


def _numpy_words(self, offsets):
    return np.array([np.random.SeedSequence((self.seed, self.stream_id + int(o)))
                     .generate_state(4, np.uint64) for o in offsets], dtype=np.uint64)


def _numpy_rngs(self, offsets):
    return [np.random.Generator(np.random.PCG64(np.random.SeedSequence(
        (self.seed, self.stream_id + int(o))))) for o in offsets]


def test_suite_records_match_numpy_seed_sequence_streams(monkeypatch):
    # every batch (and rng(), its batch of one) built the way numpy seeds one
    # stream at a time; trial chunks take their seed words from numpy too
    shipped = run_suite(1)
    monkeypatch.setattr(RandomSpec, "rngs", _numpy_rngs)
    monkeypatch.setattr(RandomSpec, "seed_words", _numpy_words)
    reference = run_suite(1)
    for record in shipped + reference:
        del record["timing"]
    assert shipped == reference


def test_convexity_detectors_draw_each_definition_pair_once(monkeypatch):
    from matconvex import rand

    counts = Counter()
    real_generators = rand.generators

    def generators(words):
        counts["generators"] += len(words)
        return real_generators(words)

    for name in ("qr", "eigh", "eigvalsh"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda a, *r, _real=real, _name=name, **k: (
            counts.update({_name: 1 if np.ndim(a) == 2 else len(a)}) or _real(a, *r, **k)))
    monkeypatch.setattr(cx, "generators", generators)  # the engine's chunks
    monkeypatch.setattr(rand, "generators", generators)  # RandomSpec.rngs: the witnesses
    (record,) = run_suite(1, only="convexity_detectors")
    assert record["status"] == "pass"
    # generators: (x2, inv) share 200 draws and (x3, x4) 1000, and the sqrt
    # Loewner battery 200; the witnesses of x3 and x4 share one stream, rerun
    # once from its own generator (RandomSpec.rng, a batch of one); QR rows:
    # A0 and A1 of each draw; eigh rows: each draw's barycenter, and the 2 x 3
    # of the replay; eigvalsh rows: every function's own margins
    assert counts == {"generators": 1401, "qr": 2402, "eigh": 1207, "eigvalsh": 2603}


def test_subadditivity_chain_builds_each_marginal_once(monkeypatch):
    from matconvex import entropy as ent

    real, kept = ent.partial_trace, []

    def counted(rho, keep):
        kept.append((len(rho.matrix), list(keep)))
        return real(rho, keep)

    monkeypatch.setattr(ent, "partial_trace", counted)
    (record,) = run_suite(1, only="subadditivity_chain")
    # the states' two marginals, then the pinched states' two
    assert kept == [(500, [0]), (500, [1])] * 2
    assert record["status"] == "pass"


@pytest.mark.parametrize("check, target, nan_value", [
    # worst case taken with a max over trials: NaN in the certificate's residual
    ("parallel_sum_certificate", "parallel_sum_certificate", math.nan),
    # worst case taken with a NaN-propagating min over trials
    ("lieb_wyd", "lieb_functional", math.nan),
])
def test_one_nan_trial_fails_the_check(monkeypatch, check, target, nan_value):
    # the kernel runs a stack of trials: one row of its first call turns NaN
    real = getattr(jc, target)
    rows = []

    def nan_once(*args):
        out = real(*args)
        if rows:
            return out
        # a tuple result keeps every slot but the last
        last = np.array(out[-1] if isinstance(out, tuple) else out, dtype=float)
        rows.append(len(last))
        last[0] = nan_value
        return (*out[:-1], last) if isinstance(out, tuple) else last

    monkeypatch.setattr(jc, target, nan_once)
    (record,) = run_suite(1, only=check)
    assert rows[0] > 1  # a stack, not one trial
    assert record["status"] == "fail"
    assert math.isnan(record["margin"])


def test_a_nan_pinch_distance_fails_the_check_and_does_not_raise(monkeypatch):
    # the 10^2-sample distance is a measured value, never a bound: a NaN in
    # it fails monte_carlo_physics instead of aborting the suite
    from matconvex import entropy as ent

    real = ent.pinch_monte_carlo

    def nan_at_100(state, samples, stream):
        out = real(state, samples, stream)
        return SimpleNamespace(matrix=out.matrix * np.nan) if samples == 100 else out

    monkeypatch.setattr(ent, "pinch_monte_carlo", nan_at_100)
    (record,) = run_suite(1, only="monte_carlo_physics")
    assert record["status"] == "fail"
    assert math.isnan(record["margin"]) and math.isnan(record["detail"]["pinch_mc_gap"])


@pytest.mark.parametrize("check, module, target", [
    ("parallel_sum_certificate", jc, "parallel_sum_certificate"),
    ("resolvent_exactness", rv, "resolvent_second_derivative"),
], ids=["parallel_sum_certificate", "resolvent_exactness"])
def test_a_small_error_in_an_exact_second_derivative_fails_its_check(
        monkeypatch, check, module, target):
    # the oracles are exact, so a 1e-6 relative error fails the check; a
    # finite-difference oracle at its 1e-4 resolution would let it pass
    real = getattr(module, target)

    def skewed(*args):
        out = real(*args)
        if isinstance(out, tuple):  # the certificate: Hessian first
            return (out[0] * (1.0 + 1e-6), *out[1:])
        return out * (1.0 + 1e-6)

    monkeypatch.setattr(module, target, skewed)
    (record,) = run_suite(1, only=check)
    assert record["status"] == "fail"
    assert record["detail"]["worst_oracle_relative_deviation"] == pytest.approx(1e-6, rel=1e-3)


#: check -> shape groups at seed 1: (k, n) pairs of the parallel sum, sizes of
#: the Lieb trials, the epsilon stack plus the joint-concavity sizes, the two
#: poles, the two exponent vectors times n = 2, 3 plus the error curve
SHAPE_GROUPS = {"parallel_sum_certificate": 8, "lieb_wyd": 3,
                "relative_entropy_machinery": 4, "resolvent_exactness": 2,
                "tensor_power_quadrature": 5}


@pytest.mark.parametrize("check", sorted(SHAPE_GROUPS))
def test_stacked_checks_factor_per_shape_group(monkeypatch, check):
    calls = Counter()
    for name in ("eigh", "eigvalsh", "inv", "qr"):
        def counted(*args, _real=getattr(np.linalg, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    (record,) = run_suite(1, only=check)
    assert record["status"] == "pass"
    # one trial at a time made 100 to 2000 calls of a kernel (lieb_wyd: 1600
    # eigh); a stack makes a handful per shape group
    assert calls and max(calls.values()) <= 16 * SHAPE_GROUPS[check], dict(calls)


@pytest.mark.parametrize("check", sorted(SHAPE_GROUPS))
def test_shape_drawing_checks_group_through_one_helper(monkeypatch, check):
    calls = []

    def counted(rngs, shapes, _real=cx.shape_groups):
        calls.append(len(rngs))
        return _real(rngs, shapes)

    monkeypatch.setattr(cx, "shape_groups", counted)
    (record,) = run_suite(1, only=check)
    assert record["status"] == "pass"
    assert calls


def test_monotonicity_test_groups_through_one_helper(monkeypatch):
    calls = []

    def counted(rngs, shapes, _real=cx.shape_groups):
        calls.append(len(rngs))
        return _real(rngs, shapes)

    monkeypatch.setattr(cx, "shape_groups", counted)
    verdict = cx.monotonicity_test(cx.builtin("sqrt"), SpectrumWindow(0.1, 5.0), 4, 200,
                                   RandomSpec(1))
    assert verdict.status == "certified"
    assert sum(calls) == 200  # every chunk's trials, once


#: The checks that run the stacked entropy kernels, the stacked Haar QR, the
#: stacked joint-concavity, relative-entropy and resolvent kernels, the
#: stacked trial engine and the stacked Daleckii-Krein quadrature.
BATCHED_CHECKS = ("ssa_battery", "subadditivity_chain", "mutual_information",
                  "parallel_sum_certificate", "tensor_power_quadrature", "lieb_wyd",
                  "relative_entropy_machinery", "convexity_detectors",
                  "resolvent_exactness", "kernel_identity", "monte_carlo_physics",
                  "determinism")


def _in_child(code: str, blas_threads: str = "1") -> str:
    """Standard output of ``code`` run in a fresh interpreter on this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": blas_threads,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=300)
    return done.stdout


def _batched_checks_in_child(blas_threads: str) -> str:
    """Margins, details and witnesses of the batched checks, run in a fresh
    interpreter."""
    code = (
        "import json\n"
        "from matconvex.suite import run_suite\n"
        f"names = {BATCHED_CHECKS!r}\n"
        "recs = [r for n in names for r in run_suite(1, only=n)]\n"
        "print(json.dumps([[r['name'], r['status'], r['margin'], r['detail'],"
        " r.get('witness')] for r in recs]))\n"
    )
    return _in_child(code, blas_threads)


def test_batched_checks_repeat_across_processes_and_blas_threads():
    one, two = _batched_checks_in_child("1"), _batched_checks_in_child("2")
    records = json.loads(one)
    assert [r[0] for r in records] == list(BATCHED_CHECKS)
    witness = records[BATCHED_CHECKS.index("convexity_detectors")][4]
    assert witness.keys() == {"kind", "lam", "A0", "A1", "stream_id", "margin"}
    assert one == two


def test_certify_function_reports_match_on_threads_and_on_one():
    # n = 32: with one BLAS thread the engine may run its chunks on threads;
    # with two it stays serial
    code = ("import contextlib, io, json\n"
            "from matconvex.cli import main\n"
            "out = io.StringIO()\n"
            "with contextlib.redirect_stdout(out):\n"
            "    main(['certify-function', '--f', 'x4', '--window', '0.1,2', '--n', '32',\n"
            "          '--mode', 'all', '--trials', '40', '--seed', '1', '--format', 'json'])\n"
            "report = json.loads(out.getvalue())\n"
            "for check in report['checks']:\n"
            "    check['timing'] = None\n"
            "print(json.dumps(report, sort_keys=True))\n")
    threaded, serial = _in_child(code, "1"), _in_child(code, "2")
    statuses = [c["status"] for c in json.loads(threaded)["checks"]]
    assert statuses == ["violated"] * 5
    assert threaded == serial


def test_certify_function_reports_match_on_threads_and_on_one_at_n_128():
    # one-row chunks in two groups of 4 and 5 rows, on threads, and serial on
    # one CPU; both with one BLAS thread, as at n = 128 two BLAS threads
    # round eigh, qr and inv otherwise
    code = ("import contextlib, io, json\n"
            "from matconvex.cli import main\n"
            "out = io.StringIO()\n"
            "with contextlib.redirect_stdout(out):\n"
            "    main(['certify-function', '--f', 'x4', '--window', '0.1,2', '--n', '128',\n"
            "          '--mode', 'all', '--trials', '9', '--seed', '1', '--format', 'json'])\n"
            "report = json.loads(out.getvalue())\n"
            "for check in report['checks']:\n"
            "    check['timing'] = None\n"
            "print(json.dumps(report, sort_keys=True))\n")
    one_cpu = "import os\nos.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:1])\n"
    threaded, serial = _in_child(code, "1"), _in_child(one_cpu + code, "1")
    statuses = [c["status"] for c in json.loads(threaded)["checks"]]
    assert statuses == ["violated"] * 5
    assert threaded == serial


def test_run_suite_needs_only_numpy():
    # scipy is a test oracle, not a runtime dependency: with its import
    # blocked, run-suite still exits 0 and every check passes
    *checks, overall = _in_child(
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from matconvex.cli import main\n"
        "sys.exit(main(['run-suite', '--seed', '1']))\n").splitlines()
    assert [line.split()[0] for line in checks] == ["pass"] * 13
    assert overall == "overall: pass"
