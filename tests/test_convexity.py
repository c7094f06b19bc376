"""Detector batteries against functions with known ground truth."""

import math

import numpy as np
import pytest

from matconvex import convexity as cx
from matconvex.convexity import (
    TOL_CERT,
    TOL_VIOL,
    TRUTH_ON_POSITIVES,
    ScalarFunction,
    _aggregate,
    builtin,
    convexity_gap,
    definition_test,
    jensen_gap,
    jensen_test,
    kernel_K,
    kernel_identity_residual,
    line_second_derivative,
    loewner_matrix,
    monotonicity_test,
    replay_witness,
    run_trials,
    secant_transform,
    second_derivative_test,
)
from matconvex.errors import DomainViolationError
from matconvex.linalg import SpectrumWindow, apply_function, min_eigenvalue
from matconvex.rand import (
    RandomSpec,
    random_direction_from,
    random_in_window_from,
    random_simplex,
)

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


def test_jensen_replay_equals_its_trial():
    v = jensen_test(builtin("x4"), NARROW, 2, 3, 500, SPEC)
    assert v.status == "violated"
    assert replay_witness(builtin("x4"), v.witness) == v.witness["margin"]


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


# ---------------------------------------------------------------------------
# The stacked engine against a per-trial reference loop.  The loop lives only
# here: trial t draws from spec.stream(t) and evaluates one unstacked trial.


def _loop(trial, trials, spec, tol_cert=TOL_CERT, tol_viol=TOL_VIOL):
    """(margins, status, stream_id of the first violating trial or None)."""
    margins = np.array([trial(spec.stream(t).rng()) for t in range(trials)])
    violating = np.flatnonzero(margins < -tol_viol)
    if violating.size:
        return margins, "violated", spec.stream(int(violating[0])).stream_id
    worst = np.min(margins)
    return margins, "certified" if worst >= -tol_cert else "inconclusive", None


def _engine(monkeypatch, run):
    """Run a test and return its verdict and every margin it reduced."""
    seen, real = {}, cx._aggregate

    def spy(margins, witness, tol_cert, tol_viol):
        seen["margins"] = np.asarray(margins)
        return real(margins, witness, tol_cert, tol_viol)

    monkeypatch.setattr(cx, "_aggregate", spy)
    return run(), seen["margins"]


def _definition_trial(f, window, n):
    def trial(rng):
        a0 = random_in_window_from(n, window, rng)
        a1 = random_in_window_from(n, window, rng)
        lam = float(rng.uniform(0.05, 0.95))
        return min_eigenvalue(convexity_gap(f, a0, a1, lam))
    return trial


def _jensen_trial(f, window, n, atoms):
    def trial(rng):
        weights = random_simplex(atoms, rng)
        mats = [random_in_window_from(n, window, rng) for _ in range(atoms)]
        return min_eigenvalue(jensen_gap(f, weights, mats))
    return trial


def _second_derivative_trial(f, window, n):
    def trial(rng):
        m = random_in_window_from(n, window, rng)
        q = random_direction_from(n, rng)
        return min_eigenvalue(line_second_derivative(f, m, q))
    return trial


def _monotonicity_trial(f, window, max_sites):
    inner, min_sep = window.shrunk(0.05), 1e-3 * (window.b - window.a)

    def trial(rng):
        k = int(rng.integers(2, max_sites + 1))
        for _ in range(100):
            xs = np.sort(rng.uniform(inner.a, inner.b, size=k))
            if np.all(np.diff(xs) >= min_sep):
                break
        else:
            return math.nan
        loewner = [[f.derivative(x) if i == j else (f.fn(x) - f.fn(y)) / (x - y)
                    for j, y in enumerate(xs)] for i, x in enumerate(xs)]
        return min_eigenvalue(np.array(loewner))
    return trial


_SIGNED_RESOLVENT = ScalarFunction("signed_resolvent", lambda z: 1.0 / (7.0 - z), WINDOW)

ORACLE_CASES = {
    "definition_x2": (lambda s: definition_test(builtin("x2"), WINDOW, 3, 100, s),
                      _definition_trial(builtin("x2"), WINDOW, 3), 100, None),
    "definition_x4": (lambda s: definition_test(builtin("x4"), NARROW, 2, 300, s),
                      _definition_trial(builtin("x4"), NARROW, 2), 300, None),
    "definition_scalar_only": (
        lambda s: definition_test(_SIGNED_RESOLVENT, WINDOW, 3, 60, s),
        _definition_trial(_SIGNED_RESOLVENT, WINDOW, 3), 60, None),
    "jensen_inv": (lambda s: jensen_test(builtin("inv"), WINDOW, 3, 3, 60, s),
                   _jensen_trial(builtin("inv"), WINDOW, 3, 3), 60, None),
    "jensen_x4": (lambda s: jensen_test(builtin("x4"), NARROW, 2, 3, 200, s),
                  _jensen_trial(builtin("x4"), NARROW, 2, 3), 200, None),
    "second_derivative_exact": (
        lambda s: second_derivative_test(builtin("x2"), WINDOW, 3, 100, s),
        _second_derivative_trial(builtin("x2"), WINDOW, 3), 100, None),
    "second_derivative_fd": (
        lambda s: second_derivative_test(builtin("x3"), NARROW, 2, 300, s),
        _second_derivative_trial(builtin("x3"), NARROW, 2), 300, (1e-5, 1e-4)),
    "second_derivative_fd_neglog": (
        lambda s: second_derivative_test(builtin("neglog"), WINDOW, 3, 60, s),
        _second_derivative_trial(builtin("neglog"), WINDOW, 3), 60, (1e-5, 1e-4)),
    "monotonicity_sqrt": (lambda s: monotonicity_test(builtin("sqrt"), WINDOW, 4, 200, s),
                          _monotonicity_trial(builtin("sqrt"), WINDOW, 4), 200, None),
    "monotonicity_x3": (lambda s: monotonicity_test(builtin("x3"), WINDOW, 4, 100, s),
                        _monotonicity_trial(builtin("x3"), WINDOW, 4), 100, None),
    "monotonicity_secant": (
        lambda s: monotonicity_test(secant_transform(builtin("x4"), 1.0), NARROW, 3, 100, s),
        _monotonicity_trial(secant_transform(builtin("x4"), 1.0), NARROW, 3), 100, None),
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_stacked_engine_matches_the_per_trial_loop(monkeypatch, case):
    run, trial, trials, tols = ORACLE_CASES[case]
    spec = RandomSpec(2024, 7000)
    v, margins = _engine(monkeypatch, lambda: run(spec))
    expected, status, stream_id = _loop(trial, trials, spec, *(tols or ()))
    np.testing.assert_allclose(margins, expected, rtol=0, atol=1e-12)
    assert v.status == status
    assert (v.witness or {}).get("stream_id") == stream_id
    if v.witness is not None:
        assert v.witness["margin"] == margins[stream_id - spec.stream_id]


@pytest.mark.parametrize("extra", [None, 0, 1])
def test_chunk_boundaries_keep_every_row(monkeypatch, extra):
    # trials = 1, the chunk size, and the chunk size + 1
    n = 16
    rows = cx._chunk_rows(n)
    trials = 1 if extra is None else rows + extra
    f = builtin("x4")
    expected, status, _ = _loop(_definition_trial(f, NARROW, n), trials, SPEC)
    real, chunks = np.linalg.eigvalsh, []

    def counted(h):
        chunks.append(len(h))
        return real(h)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    v, margins = _engine(monkeypatch, lambda: definition_test(f, NARROW, n, trials, SPEC))
    np.testing.assert_allclose(margins, expected, rtol=0, atol=1e-12)
    assert (v.trials, v.status) == (trials, status)
    assert chunks == [min(trials, rows)] + ([1] if extra == 1 else [])


def test_a_domain_escape_in_one_row_raises():
    rng = SPEC.rng()
    a0 = np.stack([random_in_window_from(2, WINDOW, rng) for _ in range(5)])
    a0[3] -= 6.0 * np.eye(2)  # row 3 leaves (0, inf)
    with pytest.raises(DomainViolationError, match="of A0 row 3 outside") as err:
        convexity_gap(builtin("inv"), a0, a0[::-1], np.full(5, 0.5))
    assert err.value.source == "A0" and err.value.eigenvalue < 0.0
    with pytest.raises(DomainViolationError):
        definition_test(builtin("inv"), SpectrumWindow(-1.0, 5.0), 2, 50, SPEC)


def test_a_non_finite_value_in_one_row_names_it():
    f = ScalarFunction("pole_at_2", lambda x: 1.0 / (x - 2.0) if x != 2.0 else math.inf,
                       SpectrumWindow(2.5, 5.0))
    stack = np.stack([np.diag([3.0, 4.0]), np.diag([2.0, 3.0])])
    with pytest.raises(DomainViolationError, match="eigenvalue 2.0 of M row 1 gives"):
        apply_function(stack, f, None, source="M")


def test_zero_trials_is_an_error():
    with pytest.raises(ValueError, match="at least one trial"):
        definition_test(builtin("x2"), WINDOW, 2, 0, SPEC)


def test_a_nan_row_never_certifies():
    def trial(rngs):  # row 1 of every chunk is NaN, the others pass
        margins = np.zeros(len(rngs))
        margins[1::len(rngs)] = math.nan
        return margins, lambda t: {"kind": "test", "row": t}

    v = run_trials(trial, 4, SPEC, 2, TOL_CERT, TOL_VIOL)
    assert v.status == "inconclusive" and math.isnan(v.worst_margin)

    def violated_after_nan(rngs):
        margins = np.array([0.0, math.nan, -1.0, -2.0])[:len(rngs)]
        return margins, lambda t: {"kind": "test", "row": t}

    v = run_trials(violated_after_nan, 4, RandomSpec(3, 40), 2, TOL_CERT, TOL_VIOL)
    assert v.status == "violated" and math.isnan(v.worst_margin)
    assert v.witness == {"kind": "test", "row": 2, "stream_id": 42, "margin": -1.0}


def test_witness_of_a_later_chunk_regenerates_from_its_stream_id():
    # n = 64 gives chunks of 3 rows; this seed's first draw above 0.9 is trial 5
    spec = RandomSpec(11, 505)
    first = next(t for t in range(30) if spec.stream(t).rng().uniform() > 0.9)
    assert cx._chunk_rows(64) == 3 and first == 5

    def trial(rngs):
        xs = np.array([rng.uniform() for rng in rngs])
        return np.where(xs > 0.9, -1.0, 0.0), lambda t: {"kind": "test", "x": xs[t]}

    v = run_trials(trial, 30, spec, 64, TOL_CERT, TOL_VIOL)
    assert v.status == "violated"
    assert v.witness["stream_id"] == spec.stream(first).stream_id
    assert v.witness["x"] == RandomSpec(11, v.witness["stream_id"]).rng().uniform()


def test_definition_makes_one_eigensolve_per_kernel_per_chunk(monkeypatch):
    calls = []
    for name in ("eigh", "eigvalsh", "qr"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda *a, _real=real, _name=name, **k: calls.append(_name)
                            or _real(*a, **k))
    v = definition_test(builtin("x4"), NARROW, 2, 1000, SPEC)
    chunks = -(-1000 // cx._chunk_rows(2))
    assert v.status == "violated" and v.trials == 1000
    # A0, A1 and A_lambda: one eigh each; the gap: one eigvalsh; A0, A1: one QR each
    assert chunks == 9
    assert sorted(calls) == sorted(["eigh"] * 3 * chunks + ["eigvalsh"] * chunks
                                   + ["qr"] * 2 * chunks)
