"""Detector batteries against functions with known ground truth."""

import math

import numpy as np
import pytest

from matconvex.convexity import (
    TOL_CERT,
    TOL_VIOL,
    TRUTH_ON_POSITIVES,
    _aggregate,
    builtin,
    convexity_gap,
    definition_test,
    jensen_test,
    kernel_K,
    kernel_identity_residual,
    line_second_derivative,
    loewner_matrix,
    monotonicity_test,
    replay_witness,
    secant_transform,
    second_derivative_test,
)
from matconvex.errors import DomainViolationError
from matconvex.linalg import SpectrumWindow
from matconvex.rand import RandomSpec, random_in_window_from

WINDOW = SpectrumWindow(0.1, 5.0)
NARROW = SpectrumWindow(0.1, 2.0)
SPEC = RandomSpec(2024)

CONVEX = [name for name, (cvx, _) in TRUTH_ON_POSITIVES.items() if cvx]
NONCONVEX = [name for name, (cvx, _) in TRUTH_ON_POSITIVES.items() if not cvx]
MONOTONE = [name for name, (_, mono) in TRUTH_ON_POSITIVES.items() if mono]
NONMONOTONE = [name for name, (_, mono) in TRUTH_ON_POSITIVES.items() if not mono]


@pytest.mark.parametrize("margins", [[0.0, math.nan], [math.nan, 0.0]])
def test_aggregate_never_certifies_a_nan_margin(margins):
    v = _aggregate(margins, [{}, {}], TOL_CERT, TOL_VIOL)
    assert v.status == "inconclusive"
    assert math.isnan(v.worst_margin)


def test_witness_stream_id_is_absolute():
    # the witness names the stream its draw came from, offset included
    spec = RandomSpec(2024, 5000)
    v = definition_test(builtin("x4"), NARROW, 2, 200, spec)
    assert v.status == "violated" and v.witness["stream_id"] >= 5000
    redrawn = random_in_window_from(
        2, NARROW, RandomSpec(2024, v.witness["stream_id"]).rng()
    )
    np.testing.assert_array_equal(redrawn, v.witness["A0"])


@pytest.mark.parametrize("name", CONVEX)
def test_definition_certifies_convex(name):
    v = definition_test(builtin(name), WINDOW, 3, 100, SPEC)
    assert v.status == "certified", (name, v.worst_margin)


@pytest.mark.parametrize("name", NONCONVEX)
def test_definition_refutes_nonconvex(name):
    v = definition_test(builtin(name), NARROW, 2, 1000, SPEC)
    assert v.status == "violated", (name, v.worst_margin)
    assert v.witness is not None


@pytest.mark.parametrize("name", ["x2", "inv", "neglog"])
def test_jensen_certifies(name):
    v = jensen_test(builtin(name), WINDOW, 3, 3, 100, SPEC)
    assert v.status == "certified"


def test_jensen_refutes_x4():
    v = jensen_test(builtin("x4"), NARROW, 2, 3, 500, SPEC)
    assert v.status == "violated"


@pytest.mark.parametrize("name", CONVEX)
def test_second_derivative_certifies_convex(name):
    v = second_derivative_test(builtin(name), WINDOW, 3, 100, SPEC)
    assert v.status == "certified", (name, v.worst_margin)


@pytest.mark.parametrize("name", NONCONVEX)
def test_second_derivative_refutes_nonconvex(name):
    v = second_derivative_test(builtin(name), NARROW, 2, 500, SPEC)
    assert v.status == "violated", (name, v.worst_margin)


@pytest.mark.parametrize("name", MONOTONE)
def test_monotonicity_certifies(name):
    v = monotonicity_test(builtin(name), WINDOW, 4, 200, SPEC)
    assert v.status == "certified", (name, v.worst_margin)


@pytest.mark.parametrize("name", NONMONOTONE)
def test_monotonicity_refutes(name):
    v = monotonicity_test(builtin(name), WINDOW, 4, 200, SPEC)
    assert v.status == "violated", (name, v.worst_margin)


def test_x3_two_site_loewner_witness():
    # closed form at sites x < y: [[3x^2, x^2+xy+y^2], [x^2+xy+y^2, 3y^2]],
    # indefinite at (0.1, 1)
    m = loewner_matrix(builtin("x3"), [0.1, 1.0])
    np.testing.assert_allclose(
        m, [[0.03, 1.11], [1.11, 3.0]], atol=1e-12
    )
    assert np.linalg.eigvalsh(m).min() < -0.1


def test_loewner_rejects_unsorted_sites():
    with pytest.raises(ValueError):
        loewner_matrix(builtin("x2"), [2.0, 1.0])
    with pytest.raises(DomainViolationError):
        loewner_matrix(builtin("inv"), [-1.0, 1.0])


def test_convexity_gap_scalar_case():
    # scalars reduce to ordinary convexity: gap of x^2 at (1, 3), lam 1/2 is 1
    gap = convexity_gap(
        builtin("x2"), np.array([[1.0]]), np.array([[3.0]]), 0.5
    )
    assert gap[0, 0] == pytest.approx(1.0)


def test_exact_and_fd_second_derivative_agree():
    rng = RandomSpec(5).rng()
    m = np.diag([1.0, 2.0, 3.0]) + 0.0j
    q = rng.normal(size=(3, 3))
    q = 0.5 * (q + q.T) + 0.0j
    f = builtin("x2")
    exact = line_second_derivative(f, m, q)
    fd_only = builtin("x3")  # reuse machinery: FD route via a fn with no callback
    np.testing.assert_allclose(exact, 2.0 * (q @ q), atol=1e-12)
    fd = line_second_derivative(
        type(f)(name="x2fd", fn=f.fn, domain=f.domain), m, q
    )
    np.testing.assert_allclose(fd, exact, atol=1e-4)
    assert fd_only.second_derivative is None


def test_kernel_is_nonnegative_with_kink():
    assert kernel_K(0.3, -0.1) == 0.0
    assert kernel_K(0.3, 1.1) == 0.0
    assert kernel_K(0.3, 0.3) == pytest.approx(0.7 * 0.3)
    ts = np.linspace(0.0, 1.0, 101)
    assert all(kernel_K(0.3, t) >= 0.0 for t in ts)


@pytest.mark.parametrize("name", ["x2", "x3", "x4", "exp"])
def test_kernel_identity_residual_small(name):
    rng = RandomSpec(77).rng()
    a0 = np.diag(rng.uniform(0.2, 1.8, size=2)) + 0.0j
    a1 = a0 + 0.2 * np.eye(2)
    res = kernel_identity_residual(builtin(name), a0, a1, 0.4, quad_nodes=32)
    assert res < 1e-6, (name, res)


def test_secant_transform_of_x2_is_affine():
    g = secant_transform(builtin("x2"), 1.0)
    assert g(3.0) == pytest.approx(4.0)   # (9 - 1)/(3 - 1)
    assert g(1.0) == pytest.approx(2.0)   # derivative at the base point


def test_secant_monotonicity_matches_convexity():
    # Kraus criterion: f matrix convex iff its secant is matrix monotone
    g_convex = secant_transform(builtin("inv"), 1.0)
    v = monotonicity_test(g_convex, WINDOW, 3, 100, SPEC,
                          tol_cert=1e-5, tol_viol=1e-4)
    assert v.status == "certified"
    g_bad = secant_transform(builtin("x4"), 1.0)
    v = monotonicity_test(g_bad, NARROW, 3, 300, SPEC)
    assert v.status == "violated"


@pytest.mark.parametrize("name", ["x3", "x4"])
def test_witness_replay_reproduces_margin(name):
    v = definition_test(builtin(name), NARROW, 2, 1000, SPEC)
    assert v.status == "violated"
    assert replay_witness(builtin(name), v.witness) == pytest.approx(
        v.witness["margin"], abs=1e-14
    )


def test_witness_replay_loewner():
    v = monotonicity_test(builtin("x3"), WINDOW, 4, 100, SPEC)
    assert v.status == "violated"
    assert replay_witness(builtin("x3"), v.witness) == pytest.approx(
        v.witness["margin"], abs=1e-14
    )


def test_unknown_builtin():
    with pytest.raises(KeyError, match="unknown function"):
        builtin("cosh")


def test_monotonicity_with_unspaceable_sites_is_inconclusive():
    # up to 3000 sites cannot keep the 1e-3 * width spacing: those trials
    # have NaN margins, and a NaN never certifies
    v = monotonicity_test(builtin("sqrt"), WINDOW, 3000, 5, SPEC)
    assert v.status == "inconclusive"
    assert math.isnan(v.worst_margin)
