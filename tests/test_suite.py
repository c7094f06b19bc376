"""run-suite checks: stream blocks, witnesses that regenerate, NaN trials."""

import math

import numpy as np
import pytest

from matconvex import jointconcavity as jc
from matconvex.io import matrix_from_dict
from matconvex.linalg import SpectrumWindow
from matconvex.rand import RandomSpec, random_in_window_from
from matconvex.suite import run_suite


def test_x4_witness_regenerates_from_its_stream_id():
    (record,) = run_suite(1, only="convexity_detectors")
    witness = record["witness"]
    a0, _ = matrix_from_dict(witness["A0"])
    redrawn = random_in_window_from(
        2, SpectrumWindow(0.1, 2.0), RandomSpec(1, witness["stream_id"]).rng()
    )
    np.testing.assert_array_equal(redrawn, a0)


@pytest.mark.parametrize("check, target, nan_value", [
    # worst case taken with a max over trials
    ("parallel_sum_certificate", "projection_residuals", (math.nan, 0.0)),
    # worst case taken with a min over trials, floored at zero
    ("lieb_wyd", "lieb_functional", math.nan),
])
def test_one_nan_trial_fails_the_check(monkeypatch, check, target, nan_value):
    real = getattr(jc, target)
    calls = []

    def nan_once(*args):
        calls.append(args)
        return nan_value if len(calls) == 1 else real(*args)

    monkeypatch.setattr(jc, target, nan_once)
    (record,) = run_suite(1, only=check)
    assert record["status"] == "fail"
    assert math.isnan(record["margin"])
