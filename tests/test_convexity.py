"""Detector batteries against functions with known ground truth."""

import json
import math

import numpy as np
import pytest

from helpers import fd_step, second_difference
from matconvex import convexity as cx
from matconvex.convexity import (
    BUILTINS,
    TOL_CERT,
    TOL_VIOL,
    TRUTH_ON_POSITIVES,
    ScalarFunction,
    _aggregate,
    builtin,
    definition_test,
    definition_tests,
    jensen_gap,
    jensen_test,
    kernel_K,
    kernel_identity_residual,
    line_second_derivative,
    loewner_matrix,
    monotonicity_test,
    replay_witness,
    run_trials,
    secant_test,
    secant_transform,
    second_derivative_test,
    spectral_second_derivative,
)
from matconvex.errors import DimensionMismatchError, DomainViolationError, HermiticityError
from matconvex.io import serialize_witness, witness_from_dict
from matconvex.linalg import (
    SpectrumWindow,
    _probe_points,
    apply_function,
    entrywise,
    factor,
    from_spectrum,
    min_eigenvalue,
    spectral_function,
)
from matconvex.rand import (
    STREAM_BLOCK,
    RandomSpec,
    haar_unitaries,
    random_directions,
    random_in_window_factors,
    random_in_window_rows,
    random_simplex,
)
from matconvex.resolvent import (
    PickRepresentation,
    ResolventPoint,
    certify_representation,
    pick_eval_matrix,
    pick_scalar_function,
    resolvent_second_derivative,
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
    v = _aggregate(margins, [{}, {}])
    assert v.status == "inconclusive"
    assert math.isnan(v.worst_margin)


def test_witness_stream_id_is_absolute():
    # the witness names the stream its draw came from, offset included
    spec = RandomSpec(2024, 5000)
    v = definition_test(builtin("x4"), NARROW, 2, 200, spec)
    assert v.status == "violated" and v.witness["stream_id"] >= 5000
    redrawn = random_in_window_rows(
        2, NARROW, [RandomSpec(2024, v.witness["stream_id"]).rng()]
    )[0]
    np.testing.assert_array_equal(redrawn, v.witness["A0"])


def test_factored_witnesses_regenerate_from_their_stream_id():
    # the one exact replay: a witness's matrices are the draws of its own stream
    v = second_derivative_test(builtin("x4"), NARROW, 2, 500, SPEC)
    np.testing.assert_array_equal(
        v.witness["M"],
        random_in_window_rows(2, NARROW, [RandomSpec(SPEC.seed, v.witness["stream_id"]).rng()])[0])
    v = jensen_test(builtin("x4"), NARROW, 2, 3, 500, SPEC)
    rng = RandomSpec(SPEC.seed, v.witness["stream_id"]).rng()
    np.testing.assert_array_equal(v.witness["weights"], random_simplex(3, rng))
    for k in range(3):
        w, u = random_in_window_factors(2, NARROW, [rng])
        np.testing.assert_array_equal(v.witness["matrices"][k], from_spectrum(w, u)[0])


@pytest.mark.parametrize("name", CONVEX)
def test_definition_certifies_convex(name):
    v = definition_test(builtin(name), WINDOW, 3, 100, SPEC)
    assert v.status == "certified", (name, v.worst_margin)


@pytest.mark.parametrize("name", NONCONVEX)
def test_definition_refutes_nonconvex(name):
    v = definition_test(builtin(name), NARROW, 2, 1000, SPEC)
    assert v.status == "violated", (name, v.worst_margin)
    assert v.witness is not None


#: Definition tests that share their draws, with each function's status: the
#: suite's two pairs at its sizes, and a pair whose functions part ways.
SHARED = {
    "suite_convex": ({"x2": "certified", "inv": "certified"}, WINDOW, 4, 200),
    "suite_nonconvex": ({"x3": "violated", "x4": "violated"}, NARROW, 2, 1000),
    "certified_and_violated": ({"x2": "certified", "x4": "violated"}, NARROW, 2, 300),
}


@pytest.mark.parametrize("case", sorted(SHARED))
def test_shared_definition_verdicts_equal_their_lone_runs(case):
    statuses, window, n, trials = SHARED[case]
    spec = RandomSpec(1, 9 * STREAM_BLOCK)  # the convexity_detectors block at seed 1
    shared = definition_tests(map(builtin, statuses), window, n, trials, spec)
    assert [v.status for v in shared] == list(statuses.values())
    for name, v in zip(statuses, shared):
        lone = definition_test(builtin(name), window, n, trials, spec)
        assert (v.status, v.trials, v.worst_margin) == (lone.status, lone.trials,
                                                         lone.worst_margin)
        assert (v.witness is None) == (lone.witness is None)
        if lone.witness is not None:
            assert v.witness.keys() == lone.witness.keys()
            for key, value in lone.witness.items():
                assert np.array_equal(v.witness[key], value), key


def test_definition_tests_need_a_function():
    with pytest.raises(ValueError, match="at least one function"):
        definition_tests([], WINDOW, 2, 10, SPEC)


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
    gap = jensen_gap(
        builtin("x2"), [0.5, 0.5], [np.array([[1.0]]), np.array([[3.0]])]
    )
    assert gap[0, 0] == pytest.approx(1.0)


#: d^2/dt^2 f(M + tQ) at t = 0, written out.
CLOSED_FORMS = {
    "x2": lambda m, q: 2.0 * (q @ q),
    "inv": lambda m, q: (lambda r: 2.0 * (r @ q @ r @ q @ r))(np.linalg.inv(m)),
    "x4": lambda m, q: 2.0 * (q @ q @ m @ m + q @ m @ q @ m + q @ m @ m @ q
                              + m @ q @ q @ m + m @ q @ m @ q + m @ m @ q @ q),
}


def _relative_error(a, b):
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def test_exact_and_fd_second_derivative_agree():
    # Daleckii-Krein against the closed forms on 50 random 4x4 lines, and
    # against the finite-difference oracle at its own resolution
    worst = dict.fromkeys(CLOSED_FORMS, 0.0)
    for t in range(50):
        rng = RandomSpec(5, t).rng()
        m = random_in_window_rows(4, NARROW, [rng])[0]
        q = random_directions(1, 4, [rng])[0][0]
        for name, closed in CLOSED_FORMS.items():
            exact = line_second_derivative(builtin(name), m, q)
            worst[name] = max(worst[name], _relative_error(exact, closed(m, q)))
    assert max(worst.values()) <= 1e-10, worst
    fd = second_difference(lambda x: x @ x @ x @ x, m, q, fd_step(m))
    np.testing.assert_allclose(fd, exact, atol=1e-4)


def test_daleckii_krein_on_a_clustered_spectrum():
    # pairs 1e-9 apart take the confluent forms; 1e-5 is near the threshold
    rng = RandomSpec(5).rng()
    u = haar_unitaries(5, [rng])[0]
    m = (u * np.array([1.0, 1.0 + 1e-9, 1.0 + 2e-9, 1.0 + 1e-5, 2.0])) @ u.conj().T
    q = random_directions(1, 5, [rng])[0][0]
    exact = line_second_derivative(builtin("x4"), m, q)
    assert _relative_error(exact, CLOSED_FORMS["x4"](m, q)) <= 1e-10
    stacked = line_second_derivative(builtin("x4"), np.stack([m, m + 0.5 * np.eye(5)]), q)
    np.testing.assert_array_equal(stacked[0], exact)
    # a triple 2e-5 apart mixes confluent and distant pairs (the plain
    # average gave 1.5e-6, the quotient just beyond the threshold 2e-8)
    for t in range(6):
        rng = RandomSpec(6, t).rng()
        u = haar_unitaries(5, [rng])[0]
        m = (u * np.array([0.5, 1.0, 1.0 + 2e-5, 3.0, 1.0 + 4.6e-5])) @ u.conj().T
        q = random_directions(1, 5, [rng])[0][0]
        for name in ("x4", "inv"):
            exact = line_second_derivative(builtin(name), m, q)
            assert _relative_error(exact, CLOSED_FORMS[name](m, q)) <= 1e-9, (name, t)
    # a pair 1e-5 apart at 0.2 is confluent; its band scales with the pair, not
    # with the top of the spectrum (1/x: 2e-9 with the spectrum's scale)
    for t in range(20):
        rng = RandomSpec(8, t).rng()
        u = haar_unitaries(4, [rng])[0]
        m = (u * np.array([0.2, 0.2 + 1e-5, 1.1, 1.9])) @ u.conj().T
        q = random_directions(1, 4, [rng])[0][0]
        exact = line_second_derivative(builtin("inv"), m, q)
        assert _relative_error(exact, CLOSED_FORMS["inv"](m, q)) <= 1e-10, t


@pytest.mark.parametrize("ratio", [1.2, 2.0, 5.0])
def test_a_pair_just_beyond_the_confluent_band_stays_exact(ratio):
    # the quotient f[lam_i, lam_k] of such a pair loses eps |f| / h, which G
    # and the commutator would divide by h again; affine and x^2 have an exact
    # trapezoid, so D must be exact to rounding; h is ratio times the band
    # C (1 + max(|lam_i|, |lam_k|)) of the closest pair, at 1.0 or 1.2
    h, h2 = (ratio * cx._CONFLUENT * (1.0 + x) for x in (1.0, 1.2))
    for t in range(10):
        rng = RandomSpec(7, t).rng()
        for lam in ([1.0, 1.0 + h, 1.9], [0.4, 1.2, 1.2 + h2, 1.9],
                    [1.0, 1.0 + h, 1.0 + 2.3 * h, 1.9]):
            u = haar_unitaries(len(lam), [rng])[0]
            m = (u * np.array(lam)) @ u.conj().T
            q = random_directions(1, len(lam), [rng])[0][0]
            assert abs(min_eigenvalue(line_second_derivative(builtin("affine"), m, q))) <= 1e-10
            x2 = line_second_derivative(builtin("x2"), m, q)
            assert _relative_error(x2, CLOSED_FORMS["x2"](m, q)) <= 1e-10
            for name in ("x4", "inv"):
                exact = line_second_derivative(builtin(name), m, q)
                assert _relative_error(exact, CLOSED_FORMS[name](m, q)) <= 1e-9, (name, t)


def _five_point(fn, x):
    """Five-point central differences (f'(x), f''(x)), step 1e-3 (1 + |x|)."""
    h = 1e-3 * (1.0 + abs(x))
    fm2, fm1, f0, fp1, fp2 = (fn(x + k * h) for k in (-2, -1, 0, 1, 2))
    return ((fm2 - 8.0 * fm1 + 8.0 * fp1 - fp2) / (12.0 * h),
            (-fm2 + 16.0 * fm1 - 30.0 * f0 + 16.0 * fp1 - fp2) / (12.0 * h * h))


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_closed_form_derivatives_match_central_differences(name):
    f = builtin(name)
    xs = _probe_points(f.domain)
    d1, d2 = zip(*(_five_point(f.fn, float(x)) for x in xs))
    np.testing.assert_allclose(np.broadcast_to(f.deriv(xs), xs.shape), d1,
                               rtol=1e-6, atol=1e-8)
    np.testing.assert_allclose(np.broadcast_to(f.deriv2(xs), xs.shape), d2,
                               rtol=1e-6, atol=1e-8)


def test_missing_closed_forms_fail_closed():
    x4 = builtin("x4")
    m = random_in_window_rows(2, NARROW, [SPEC.rng()])[0]
    for bare in (ScalarFunction("bare_x4", x4.fn, x4.domain),
                 ScalarFunction("no_deriv2_x4", x4.fn, x4.domain, deriv=x4.deriv)):
        with pytest.raises(ValueError, match=f"{bare.name} has no closed-form deriv and deriv2"):
            line_second_derivative(bare, m, m)
        with pytest.raises(ValueError, match=bare.name):
            second_derivative_test(bare, NARROW, 2, 10, SPEC)
    with pytest.raises(ValueError, match="bare_x4 has no closed-form deriv$"):
        loewner_matrix(ScalarFunction("bare_x4", x4.fn, x4.domain), [0.5, 1.0])


def _relative_frobenius(x, y):
    """||x - y|| / ||y|| in Frobenius norm, row by row; absolute where ||y|| < 1
    (the second derivative of an affine f is 0)."""
    return (np.linalg.norm(x - y, axis=(-2, -1))
            / np.maximum(np.linalg.norm(y, axis=(-2, -1)), 1.0))


@pytest.mark.parametrize("name", sorted(BUILTINS))
@pytest.mark.parametrize("rows", [None, 6])
def test_the_factor_path_agrees_with_the_matrix_path(name, rows):
    # a 2-D pair of factors, or a (6, 4, 4) stack; the matrix path re-diagonalizes
    f = builtin(name)
    w, u = random_in_window_factors(4, NARROW, RandomSpec(31).rngs(range(rows or 1)))
    (q,) = random_directions(1, 4, RandomSpec(32).rngs(range(rows or 1)))
    # the two paths' spectra differ in the last bits, which the second divided
    # differences of Daleckii-Krein amplify by 1 / gap^2: the derivative runs
    # on spectra spaced 0.4 apart (clustered spectra have their own tests)
    spaced = np.sort(w, axis=-1) * 0.1 + np.linspace(0.2, 1.4, 4)
    if rows is None:
        w, spaced, u, q = w[0], spaced[0], u[0], q[0]
    m = from_spectrum(w, u)
    assert np.all(_relative_frobenius(spectral_function(w, u, f),
                                      apply_function(m, f)) <= 1e-12)
    assert np.all(_relative_frobenius(spectral_second_derivative(f, spaced, u, q),
                                      line_second_derivative(f, from_spectrum(spaced, u), q))
                  <= 1e-12)
    # on the sampler's own spectra the paths agree to eps (|f| + ||M|| |f'|) / gap^2,
    # the rounding of f and of the spectrum through the second divided differences
    # (exp, row 2: 1.6e-12 relative at a gap of 0.0097; at most 6x the scale
    # over the builtins at seeds 31-59)
    gap = np.min(np.diff(np.sort(w, axis=-1), axis=-1), axis=-1)
    scale = np.finfo(float).eps / gap**2 * (
        np.max(np.abs(entrywise(f.fn, w)), axis=-1)
        + np.max(np.abs(w), axis=-1) * np.max(np.abs(entrywise(f.deriv, w)), axis=-1))
    error = np.linalg.norm(spectral_second_derivative(f, w, u, q)
                           - line_second_derivative(f, m, q), axis=(-2, -1))
    assert np.all(error <= 32 * scale)


def test_an_out_of_window_factor_row_raises():
    w, u = random_in_window_factors(2, NARROW, RandomSpec(33).rngs(range(5)))
    good = (w.copy(), u)
    w[3, 0] = -0.5  # row 3 leaves (0, inf)
    f = builtin("inv")
    with pytest.raises(DomainViolationError, match="eigenvalue -0.5 of A0 row 3 outside") as err:
        spectral_function(w, u, f, source="A0")
    assert err.value.source == "A0" and err.value.eigenvalue == -0.5
    with pytest.raises(DomainViolationError, match="eigenvalue -0.5 of M row 3 outside"):
        spectral_second_derivative(f, w, u, u)
    with pytest.raises(DomainViolationError, match="of M_1 row 3 outside"):
        jensen_gap(f, np.full((5, 2), 0.5), [from_spectrum(*good), from_spectrum(w, u)],
                   [good, (w, u)])


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
    res = kernel_identity_residual(builtin(name), a0, a1, 0.4)
    assert res < 1e-6, (name, res)


def test_secant_transform_of_x2_is_affine():
    g = secant_transform(builtin("x2"), 1.0)
    assert g(3.0) == pytest.approx(4.0)   # (9 - 1)/(3 - 1)
    assert g(1.0) == 2.0                  # f'(1): the base point is confluent
    assert g.deriv(1.0 + 1e-9) == 1.0     # f[x, x, y] = 1 for x^2
    np.testing.assert_array_equal(g(np.array([[3.0, 1.0]])), [[4.0, 2.0]])


def test_secant_monotonicity_matches_convexity():
    # Kraus criterion: f matrix convex iff its secant is matrix monotone
    g_convex = secant_transform(builtin("inv"), 1.0)
    v = monotonicity_test(g_convex, WINDOW, 3, 100, SPEC)
    assert v.status == "certified"
    g_bad = secant_transform(builtin("x4"), 1.0)
    v = monotonicity_test(g_bad, NARROW, 3, 300, SPEC)
    assert v.status == "violated"


@pytest.mark.parametrize("name", ["affine", "x2"])
def test_a_secant_site_just_beyond_the_confluent_band_is_exact(name):
    # f[x, y] and f[x, x, y] are constants (affine) or x + y and 1 (x^2), so
    # every Loewner matrix of the secant has least eigenvalue 0
    y = 1.05
    x = y + 2.0 * cx._CONFLUENT * (1.0 + y)
    g = secant_transform(builtin(name), y)
    for sites in ([0.5, x, 1.6], [x - 2e-3, x], [y - 1e-3, y, x]):
        assert abs(min_eigenvalue(loewner_matrix(g, sites))) <= 1e-10, sites
    for seed in range(1, 9):
        v = secant_test(builtin(name), y, NARROW, 4, 200, RandomSpec(seed))
        assert v.status == "certified" and abs(v.worst_margin) <= 1e-10, seed


def test_secant_witness_replays_on_f():
    # the witness records its base point, so replay rebuilds [f[x_i, x_j, y]]
    v = secant_test(builtin("x4"), 1.05, NARROW, 2, 200, RandomSpec(1))
    assert v.status == "violated"
    assert (v.witness["kind"], v.witness["y"]) == ("secant", 1.05)
    assert replay_witness(builtin("x4"), v.witness) == pytest.approx(
        v.witness["margin"], abs=1e-12)


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
    assert replay_witness(builtin("x4"), v.witness) == pytest.approx(
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


@pytest.mark.parametrize("max_sites", [cx.MAX_SITES + 1, 3000])
def test_monotonicity_refuses_more_sites_than_a_window_spaces(max_sites):
    # more than 900 sites cannot keep the 1e-3 * width spacing in the shrunk
    # window: a usage error, never a trial without sites
    with pytest.raises(ValueError, match=f"{max_sites} Loewner sites"):
        monotonicity_test(builtin("sqrt"), WINDOW, max_sites, 5, SPEC)


@pytest.mark.parametrize("max_sites", [1, 0, -4])
def test_monotonicity_refuses_fewer_than_two_sites(max_sites):
    # one site has no Loewner matrix to test; numpy's integers(2, 2) raised
    message = f"^a Loewner trial needs at least 2 sites, got {max_sites}$"
    with pytest.raises(ValueError, match=message):
        monotonicity_test(builtin("sqrt"), WINDOW, max_sites, 5, SPEC)
    with pytest.raises(ValueError, match=message):
        secant_test(builtin("x2"), 1.0, WINDOW, max_sites, 5, SPEC)


@pytest.mark.parametrize("shapes", [
    [3, 2, 3, 3, 2, 4],
    [(2, 3), (3, 2), (2, 3), (2, 2)],
    [7.0, -1.0] * 5,
    [5],
    [],
])
def test_shape_groups_split_the_trials_by_shape(shapes):
    rngs = SPEC.rngs(range(len(shapes)))
    groups = list(cx.shape_groups(rngs, iter(shapes)))  # any iterable of shapes
    assert [shape for shape, _, _ in groups] == sorted(set(shapes))
    seen = []
    for shape, rows, gens in groups:
        assert rows.dtype.kind == "i"
        assert list(rows) == sorted(rows)
        assert all(shapes[t] == shape for t in rows)
        assert len(gens) == len(rows)
        assert all(g is rngs[t] for g, t in zip(gens, rows))
        seen.extend(rows)
    assert sorted(seen) == list(range(len(shapes)))


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

    def spy(margins, witness):
        seen["margins"] = np.asarray(margins)
        return real(margins, witness)

    monkeypatch.setattr(cx, "_aggregate", spy)
    return run(), seen["margins"]


def _definition_trial(f, window, n):
    def trial(rng):
        a0 = random_in_window_rows(n, window, [rng])[0]
        a1 = random_in_window_rows(n, window, [rng])[0]
        lam = float(rng.uniform(0.05, 0.95))
        return min_eigenvalue(jensen_gap(f, [1.0 - lam, lam], [a0, a1]))
    return trial


def _jensen_trial(f, window, n, atoms):
    def trial(rng):
        weights = random_simplex(atoms, rng)
        mats = [random_in_window_rows(n, window, [rng])[0] for _ in range(atoms)]
        return min_eigenvalue(jensen_gap(f, weights, mats))
    return trial


def _second_derivative_trial(f, window, n):
    def trial(rng):
        m = random_in_window_rows(n, window, [rng])[0]
        q = random_directions(1, n, [rng])[0][0]
        return min_eigenvalue(line_second_derivative(f, m, q))
    return trial


def _monotonicity_trial(f, window, max_sites):
    inner, min_sep = window.shrunk(), 1e-3 * (window.b - window.a)

    def trial(rng):
        # k sorted uniform sites min_sep apart: the i-th order statistic on the
        # window less (k - 1) min_sep, shifted by i min_sep
        k = int(rng.integers(2, max_sites + 1))
        free = (inner.b - inner.a) - (k - 1) * min_sep
        xs = inner.a + np.sort(rng.uniform(0.0, free, size=k)) + min_sep * np.arange(k)
        assert np.all(np.diff(xs) >= min_sep * (1 - 1e-12)) and xs[-1] <= inner.b
        loewner = [[f.deriv(x) if i == j else (f.fn(x) - f.fn(y)) / (x - y)
                    for j, y in enumerate(xs)] for i, x in enumerate(xs)]
        return min_eigenvalue(np.array(loewner))
    return trial


_SIGNED_RESOLVENT = ScalarFunction("signed_resolvent", lambda z: 1.0 / (7.0 - z), WINDOW)

ORACLE_CASES = {
    "definition_x2": (lambda s: definition_test(builtin("x2"), WINDOW, 3, 100, s),
                      _definition_trial(builtin("x2"), WINDOW, 3), 100, None),
    "definition_x4": (lambda s: definition_test(builtin("x4"), NARROW, 2, 300, s),
                      _definition_trial(builtin("x4"), NARROW, 2), 300, None),
    "definition_signed_resolvent": (
        lambda s: definition_test(_SIGNED_RESOLVENT, WINDOW, 3, 60, s),
        _definition_trial(_SIGNED_RESOLVENT, WINDOW, 3), 60, None),
    "jensen_inv": (lambda s: jensen_test(builtin("inv"), WINDOW, 3, 3, 60, s),
                   _jensen_trial(builtin("inv"), WINDOW, 3, 3), 60, None),
    "jensen_x4": (lambda s: jensen_test(builtin("x4"), NARROW, 2, 3, 200, s),
                  _jensen_trial(builtin("x4"), NARROW, 2, 3), 200, None),
    "second_derivative_exact": (
        lambda s: second_derivative_test(builtin("x2"), WINDOW, 3, 100, s),
        _second_derivative_trial(builtin("x2"), WINDOW, 3), 100, None),
    "second_derivative_x3": (
        lambda s: second_derivative_test(builtin("x3"), NARROW, 2, 300, s),
        _second_derivative_trial(builtin("x3"), NARROW, 2), 300, None),
    "second_derivative_neglog": (
        lambda s: second_derivative_test(builtin("neglog"), WINDOW, 3, 60, s),
        _second_derivative_trial(builtin("neglog"), WINDOW, 3), 60, None),
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


@pytest.mark.parametrize("max_sites, trials", [(64, 40), (128, 40), (cx.MAX_SITES, 3)])
def test_monotonicity_trials_are_never_nan_up_to_the_site_bound(monkeypatch, max_sites, trials):
    # drawn by rejection, 38 % of trials at 64 sites and every trial at 128
    # would find no spaced sites; sqrt is operator monotone, so all certify
    sites, real = [], cx.loewner_matrix
    monkeypatch.setattr(cx, "loewner_matrix", lambda f, xs: sites.extend(xs) or real(f, xs))
    v, margins = _engine(monkeypatch, lambda: monotonicity_test(
        builtin("sqrt"), WINDOW, max_sites, trials, RandomSpec(2024, 7100)))
    assert margins.shape == (trials,) and np.all(np.isfinite(margins))
    assert v.status == "certified"
    inner, min_sep = WINDOW.shrunk(), 1e-3 * (WINDOW.b - WINDOW.a)
    assert len(sites) == trials
    for xs in sites:
        assert 2 <= len(xs) <= max_sites and inner.a <= xs[0] and xs[-1] <= inner.b
        assert np.min(np.diff(xs)) >= min_sep * (1 - 1e-12)


@pytest.mark.parametrize("extra", [None, 0, 1])
def test_chunk_boundaries_keep_every_row(monkeypatch, extra):
    # trials = 1, the chunk size, and the chunk size + 1
    n = 16
    rows = cx._chunk_rows(n)
    trials = 1 if extra is None else rows + extra
    f = builtin("x4")
    expected, status, _ = _loop(_definition_trial(f, NARROW, n), trials, SPEC)
    calls = _count_kernels(monkeypatch)
    v, margins = _engine(monkeypatch, lambda: definition_test(f, NARROW, n, trials, SPEC))
    np.testing.assert_allclose(margins, expected, rtol=0, atol=1e-12)
    assert (v.trials, v.status) == (trials, status)
    # A_lambda is diagonalized once per chunk, and once more for the lone row
    # that rebuilds a violated verdict's witness
    assert [shape[0] for name, shape in calls if name == "eigh"] == (
        [min(trials, rows)] + ([1] if extra == 1 else []) + ([1] if status == "violated" else []))
    # the margins: one eigvalsh per group, and a one-row last chunk joins the
    # group before it (at n = 16 a chunk already holds more than 500 / n rows)
    assert rows > 500 // n and cx._groups(trials, rows, n, 1) == [range(0, trials, rows)]
    assert [shape[0] for name, shape in calls if name == "eigvalsh"] == [trials]


def test_a_domain_escape_in_one_row_raises():
    rng = SPEC.rng()
    a0 = np.stack([random_in_window_rows(2, WINDOW, [rng])[0] for _ in range(5)])
    a0[3] -= 6.0 * np.eye(2)  # row 3 leaves (0, inf)
    with pytest.raises(DomainViolationError, match="of M_0 row 3 outside") as err:
        jensen_gap(builtin("inv"), np.full((5, 2), 0.5), [a0, a0[::-1]])
    assert err.value.source == "M_0" and err.value.eigenvalue < 0.0
    with pytest.raises(DomainViolationError):
        definition_test(builtin("inv"), SpectrumWindow(-1.0, 5.0), 2, 50, SPEC)


def test_a_non_finite_value_in_one_row_names_it():
    def pole_at_2(x):  # the window holds the pole, so only the finiteness check can fire
        return np.divide(1.0, x - 2.0, out=np.full_like(x, math.inf), where=x != 2.0)

    f = ScalarFunction("pole_at_2", pole_at_2, SpectrumWindow(1.5, 5.0))
    stack = np.stack([np.diag([3.0, 4.0]), np.diag([2.0, 3.0])])
    with pytest.raises(DomainViolationError, match="eigenvalue 2.0 of M row 1 gives"):
        apply_function(stack, f, source="M")
    # the divided-difference kernel checks f, f' and f'' alike
    g = ScalarFunction("nan_deriv2_at_1", lambda x: 3.0 * x + 1.0, SpectrumWindow(0.0, 5.0),
                       deriv=lambda x: 3.0, deriv2=lambda x: np.where(x == 1.0, math.nan, 0.0))
    with pytest.raises(DomainViolationError, match="eigenvalue 1.0 of M row 1 gives"):
        line_second_derivative(g, stack - np.eye(2), stack)


#: Both read as diag(1, 2) by an eigensolver that sees only the lower triangle.
NOT_HERMITIAN = {"asymmetric": np.array([[1.0, 3.0], [0.0, 2.0]]),
                 "nan_upper": np.array([[1.0, math.nan], [0.0, 2.0]])}
_PICK = PickRepresentation(0.5, -0.2, 0.3, 1.0, WINDOW, atoms=((-1.0, 0.4), (7.0, 0.25)))
GATED = {
    "apply_function": lambda m: apply_function(m, builtin("x2")),
    "line_second_derivative_M": lambda m: line_second_derivative(builtin("x2"), m, np.eye(2)),
    "line_second_derivative_Q": lambda m: line_second_derivative(builtin("x2"), np.eye(2), m),
    # the definition's midpoint gap, as a stored witness replays it
    "convexity_gap": lambda m: replay_witness(
        builtin("x2"), {"kind": "definition", "lam": 0.5, "A0": m, "A1": np.eye(2)}),
    "jensen_gap": lambda m: jensen_gap(builtin("x2"), [0.5, 0.5], [m, np.eye(2)]),
    "kernel_identity_residual": lambda m: kernel_identity_residual(
        builtin("x2"), m, np.eye(2), 0.5),
    "pick_spectral": lambda m: apply_function(m, pick_scalar_function(_PICK)),
    "pick_atoms": lambda m: pick_eval_matrix(_PICK, m),
    "resolvent_second_derivative": lambda m: resolvent_second_derivative(
        m, np.eye(2), ResolventPoint(7.0, WINDOW)),
}


@pytest.mark.parametrize("matrix", sorted(NOT_HERMITIAN))
@pytest.mark.parametrize("entry", sorted(GATED))
def test_every_entry_point_refuses_a_non_hermitian_matrix(entry, matrix):
    with pytest.raises(HermiticityError):
        GATED[entry](NOT_HERMITIAN[matrix])


@pytest.mark.parametrize("matrix", sorted(NOT_HERMITIAN))
def test_replay_refuses_a_non_hermitian_direction(matrix):
    witness = second_derivative_test(builtin("x4"), NARROW, 2, 500, SPEC).witness
    replay_witness(builtin("x4"), witness)
    with pytest.raises(HermiticityError):
        replay_witness(builtin("x4"), {**witness, "Q": NOT_HERMITIAN[matrix]})


#: A violated run of each witness kind, and the sampled data its witness holds.
VIOLATED = {
    "definition": (lambda: definition_test(builtin("x4"), NARROW, 2, 1000, SPEC),
                   {"A0", "A1", "lam"}),
    "jensen": (lambda: jensen_test(builtin("x4"), NARROW, 2, 3, 500, SPEC),
               {"matrices", "weights"}),
    "second_derivative": (lambda: second_derivative_test(builtin("x4"), NARROW, 2, 500, SPEC),
                          {"M", "Q"}),
    "loewner": (lambda: monotonicity_test(builtin("x3"), WINDOW, 4, 100, SPEC), {"sites"}),
    "secant": (lambda: secant_test(builtin("x4"), 1.05, NARROW, 2, 200, RandomSpec(1)),
               {"sites", "y"}),
}


@pytest.mark.parametrize("kind", sorted(VIOLATED))
def test_a_witness_holds_only_what_was_sampled(kind):
    run, sampled = VIOLATED[kind]
    v = run()
    assert v.status == "violated" and v.witness["kind"] == kind
    assert v.witness.keys() == {"kind", "stream_id", "margin", *sampled}


@pytest.mark.parametrize("kind", ["definition", "jensen", "second_derivative"])
def test_a_witness_that_stored_its_factors_replays_as_one_that_did_not(kind):
    # an older format stored each sampled matrix's (w, U) next to it, under
    # KEY_eigenvalues and KEY_eigenvectors; replay reads the matrices alone
    run, sampled = VIOLATED[kind]
    witness = run().witness
    stored = dict(witness)
    for key in sampled & {"A0", "A1", "M", "matrices"}:
        stored[f"{key}_eigenvalues"], stored[f"{key}_eigenvectors"] = factor(
            np.asarray(witness[key]))
    replayed = replay_witness(builtin("x4"), witness)
    assert replay_witness(builtin("x4"), stored) == replayed
    assert replayed == pytest.approx(witness["margin"], abs=1e-12)


@pytest.mark.parametrize("kind", sorted(VIOLATED))
def test_a_witness_as_a_report_holds_it_replays_bit_for_bit(kind):
    witness = VIOLATED[kind][0]().witness
    saved = json.loads(json.dumps(serialize_witness(witness)))
    decoded = witness_from_dict(saved)
    for key, value in witness.items():
        assert np.array_equal(decoded[key], value), key
    f = builtin("x3" if kind == "loewner" else "x4")
    replayed = replay_witness(f, witness)
    assert replay_witness(f, saved) == replayed
    assert replayed == pytest.approx(witness["margin"], abs=1e-12)


@pytest.mark.parametrize("matrix", sorted(NOT_HERMITIAN))
@pytest.mark.parametrize("kind, key", [("definition", "A0"), ("definition", "A1"),
                                       ("jensen", "matrices"), ("second_derivative", "M")])
def test_replay_refuses_a_non_hermitian_matrix(kind, key, matrix):
    witness = VIOLATED[kind][0]().witness
    bad = NOT_HERMITIAN[matrix]
    replay_witness(builtin("x4"), witness)
    with pytest.raises(HermiticityError):
        replay_witness(builtin("x4"), {
            **witness, key: [bad, *witness[key][1:]] if key == "matrices" else bad})


#: A Jensen witness for x2, which is operator convex: its gap is PSD at
#: every probability measure, so only tampered weights could show a violation.
X2_JENSEN = {"kind": "jensen", "weights": [0.25, 0.75],
             "matrices": [np.diag([0.5, 1.0]), np.diag([2.0, 3.0])]}


@pytest.mark.parametrize("weights", [[2.0, -1.0], [math.nan, 0.5], [math.inf, 0.0],
                                     [0.5, 0.6], [0.2, 0.3, 0.5], [1.0], 1.0],
                         ids=["negative", "nan", "inf", "sum", "three", "one", "scalar"])
def test_replay_refuses_weights_that_are_no_probability_measure(weights):
    # [2, -1] replayed to a margin of -8 when the weights went unchecked
    assert replay_witness(builtin("x2"), X2_JENSEN) >= 0.0
    with pytest.raises(ValueError, match="Jensen weights"):
        replay_witness(builtin("x2"), {**X2_JENSEN, "weights": weights})


def test_the_weight_rule_holds_row_by_row():
    mats = [np.stack([np.eye(2)] * 3), np.stack([2.0 * np.eye(2)] * 3)]
    rows = np.array([[0.5, 0.5], [1.0, 0.0], [0.3, 0.7]])
    assert jensen_gap(builtin("x2"), rows, mats).shape == (3, 2, 2)
    rows[1] = [1.0, 1e-11]  # one row sums to 1 + 1e-11
    with pytest.raises(ValueError, match="sum to 1 within 1e-12"):
        jensen_gap(builtin("x2"), rows, mats)


@pytest.mark.parametrize("witness", [
    {"kind": "definition", "lam": 0.5, "A0": np.eye(2), "A1": 2.0 * np.eye(3)},
    {"kind": "jensen", "weights": [0.5, 0.5], "matrices": [np.eye(2), 2.0 * np.eye(3)]},
], ids=["definition", "jensen"])
def test_replay_refuses_atoms_of_different_shapes(witness):
    # numpy's bare broadcast ValueError came out of the barycenter sum
    with pytest.raises(DimensionMismatchError, match=r"M_1 has shape \(3, 3\), M_0 has shape"):
        replay_witness(builtin("x2"), witness)


@pytest.mark.parametrize("lam", [0.0, 1.0, 1.5, math.nan])
def test_replay_refuses_a_definition_weight_outside_the_open_interval(lam):
    witness = {"kind": "definition", "lam": lam, "A0": np.eye(2), "A1": 2.0 * np.eye(2)}
    with pytest.raises(ValueError, match="mixing weight"):
        replay_witness(builtin("x2"), witness)


def test_zero_trials_is_an_error():
    with pytest.raises(ValueError, match="at least one trial"):
        definition_test(builtin("x2"), WINDOW, 2, 0, SPEC)


@pytest.mark.parametrize("n", [0, -1])
def test_a_size_below_one_is_refused_before_any_draw(n):
    # refused before the chunk grouping divides by n
    with pytest.raises(DimensionMismatchError, match=f"dimension must be >= 1, got n={n}"):
        definition_test(builtin("x2"), SpectrumWindow(0.1, 2.0), n, 3, RandomSpec(1))


def test_a_nan_row_never_certifies():
    def trial(rngs):  # row 1 of every chunk is NaN, the others pass
        margins = np.zeros(len(rngs))
        margins[1::len(rngs)] = math.nan
        return margins, lambda t: {"kind": "test", "row": t}

    (v,) = run_trials(trial, 4, SPEC, 2)
    assert v.status == "inconclusive" and math.isnan(v.worst_margin)

    # each row's margin is a function of its own stream, as a stacked kernel's
    spec = RandomSpec(3, 40)
    margin_of = {spec.stream(t).rng().uniform(): m
                 for t, m in enumerate([0.0, math.nan, -1.0, -2.0])}

    def violated_after_nan(rngs):
        xs = [rng.uniform() for rng in rngs]
        return np.array([margin_of[x] for x in xs]), lambda t: {"kind": "test", "x": xs[t]}

    (v,) = run_trials(violated_after_nan, 4, spec, 2)
    assert v.status == "violated" and math.isnan(v.worst_margin)
    assert v.witness == {"kind": "test", "x": spec.stream(2).rng().uniform(),
                         "stream_id": 42, "margin": -1.0}


def test_witness_of_a_later_chunk_regenerates_from_its_stream_id():
    # n = 64 gives chunks of 3 rows; this seed's first draw above 0.9 is trial 5
    spec = RandomSpec(11, 505)
    first = next(t for t in range(30) if spec.stream(t).rng().uniform() > 0.9)
    assert cx._chunk_rows(64) == 3 and first == 5

    def trial(rngs):
        xs = np.array([rng.uniform() for rng in rngs])
        return np.where(xs > 0.9, -1.0, 0.0), lambda t: {"kind": "test", "x": xs[t]}

    (v,) = run_trials(trial, 30, spec, 64)
    assert v.status == "violated"
    assert v.witness["stream_id"] == spec.stream(first).stream_id
    assert v.witness["x"] == RandomSpec(11, v.witness["stream_id"]).rng().uniform()


def test_definition_makes_one_eigh_per_chunk_and_one_eigvalsh_per_group(monkeypatch):
    calls = _count_kernels(monkeypatch)
    chunks = -(-1000 // cx._chunk_rows(2))
    assert chunks == 9
    for names in (("x4",), ("x3", "x4")):  # one function, and two on shared draws
        calls.clear()
        verdicts = definition_tests(map(builtin, names), NARROW, 2, 1000, SPEC)
        assert [(v.status, v.trials) for v in verdicts] == [("violated", 1000)] * len(names)
        # A_lambda: one eigh for every function (A0 and A1 come with their
        # factors); A0, A1: one QR each; once per chunk, and once more for the
        # lone row that rebuilds each witness.  The gap of each function: one
        # eigvalsh per group of chunks (4 and 5 chunks of 124 rows, the last
        # one short), none for the witnesses
        runs = chunks + len(names)
        assert sorted(name for name, _ in calls) == sorted(
            ["eigh"] * runs + ["eigvalsh"] * 2 * len(names) + ["qr"] * 2 * runs)
        assert [shape for name, shape in calls if name == "eigvalsh"] == [
            (496, 2, 2)] * len(names) + [(504, 2, 2)] * len(names)


def _count_kernels(monkeypatch):
    """Record every eigh / eigvalsh / qr call as (name, shape of its argument)."""
    calls = []
    for name in ("eigh", "eigvalsh", "qr"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda a, *r, _real=real, _name=name, **k:
                            calls.append((_name, np.shape(a))) or _real(a, *r, **k))
    return calls


def test_second_derivative_makes_one_margin_eigensolve_per_group(monkeypatch):
    calls = _count_kernels(monkeypatch)
    v = second_derivative_test(builtin("neglog"), NARROW, 2, 500, SPEC)
    chunks = -(-500 // cx._chunk_rows(2))
    assert v.status == "certified" and chunks == 5
    # the derivative: no eigh (M comes with its factors); sampling: one QR
    # for M and one eigvalsh normalizing Q, per chunk; D^2: one eigvalsh per
    # group, here one group of every chunk (4 full ones make 1 group of 3)
    assert sorted(name for name, _ in calls) == sorted(
        ["eigvalsh"] * (chunks + 1) + ["qr"] * chunks)
    assert [shape for name, shape in calls if name == "eigvalsh"] == [
        (124, 2, 2)] * 4 + [(4, 2, 2), (500, 2, 2)]


def test_jensen_makes_one_eigh_per_chunk(monkeypatch):
    calls = _count_kernels(monkeypatch)
    v = jensen_test(builtin("x4"), NARROW, 2, 3, 500, SPEC)
    chunks = -(-500 // cx._chunk_rows(2))
    assert v.status == "violated" and chunks == 5
    # the barycenter: one eigh (the atoms come with their factors); the 3
    # atoms: one QR each; once per chunk, and once more for the lone row that
    # rebuilds the witness.  The gap: one eigvalsh for the one group, after
    # every chunk, and none for the witness
    runs = chunks + 1
    assert sorted(name for name, _ in calls) == sorted(
        ["eigh"] * runs + ["eigvalsh"] + ["qr"] * 3 * runs)
    assert calls[-5] == ("eigvalsh", (500, 2, 2))
    assert all(shape[0] == 1 for _, shape in calls[-4:])


def test_certify_representation_makes_no_eigh(monkeypatch):
    rep = PickRepresentation(alpha=0.5, beta=1.0, gamma=0.25, c=1.0, window=NARROW,
                             atoms=((-1.0, 0.5), (7.0, 2.0)))
    calls = _count_kernels(monkeypatch)
    v = certify_representation(rep, 3, 200, SPEC)
    chunks = -(-200 // cx._chunk_rows(3))
    assert v.status == "certified" and chunks == 2
    # as second_derivative_test: no eigh; eigvalsh of Q and one QR per
    # chunk; eigvalsh of D^2 once for the one group
    assert sorted(name for name, _ in calls) == sorted(
        ["eigvalsh"] * (chunks + 1) + ["qr"] * chunks)
    assert [shape for name, shape in calls if name == "eigvalsh"][-1] == (200, 3, 3)


def test_kernel_identity_runs_its_nodes_as_one_stack(monkeypatch):
    rng = SPEC.rng()
    a0, a1 = (random_in_window_rows(2, NARROW, [rng])[0] for _ in range(2))
    calls = _count_kernels(monkeypatch)
    res = kernel_identity_residual(builtin("x4"), a0, a1, 0.42)
    assert res <= 1e-12
    # the gap: A0, A1 and A_lambda; the integrand: all 2 x 32 nodes at once
    assert [c for c in calls if c[0] == "eigh"] == [("eigh", (2, 2))] * 3 + [("eigh", (64, 2, 2))]


def _count_hashes(monkeypatch):
    """Count seed-word hashes, one length per batch, and record the entropy of
    every numpy SeedSequence built (the lone streams of RandomSpec.rng)."""
    real, real_lone, batches, lone = RandomSpec.seed_words, np.random.SeedSequence, [], []

    def counted(self, offsets):
        words = real(self, offsets)
        batches.append(len(words))
        return words

    def recorded(entropy, *args, **kwargs):
        lone.append(entropy)
        return real_lone(entropy, *args, **kwargs)

    monkeypatch.setattr(RandomSpec, "seed_words", counted)
    monkeypatch.setattr(np.random, "SeedSequence", recorded)
    return batches, lone


def test_definition_hashes_its_streams_once(monkeypatch):
    batches, lone = _count_hashes(monkeypatch)
    v = definition_test(builtin("x4"), NARROW, 2, 1000, SPEC)
    assert v.status == "violated" and v.trials == 1000
    # one batch for all 9 chunks; the witness's stream is rebuilt alone by RandomSpec.rng
    assert batches == [1000]
    assert lone == [(SPEC.seed, v.witness["stream_id"])]


def test_witnesses_on_one_stream_rerun_it_once():
    spec, calls = RandomSpec(5, 70), []

    def trial(rngs):
        calls.append(len(rngs))
        x = np.array([rng.uniform() for rng in rngs])
        return -x, -2.0 * x, lambda t: {"kind": "test", "x": float(x[t])}

    first, second = run_trials(trial, 5, spec, 2)
    assert calls == [5, 1]  # the chunk, then one rerun of stream 70 for both witnesses
    x0 = spec.stream(0).rng().uniform()
    assert first.witness == {"kind": "test", "x": x0, "stream_id": 70, "margin": -x0}
    assert second.witness == {"kind": "test", "x": x0, "stream_id": 70, "margin": -2.0 * x0}


def test_one_row_chunks_share_one_hash(monkeypatch):
    batches, lone = _count_hashes(monkeypatch)
    spec, drawn = RandomSpec(4, 60), []

    def trial(rngs):
        drawn.append([rng.uniform() for rng in rngs])
        return np.zeros(len(rngs)), lambda t: {"kind": "test"}

    assert cx._chunk_rows(128) == 1
    (v,) = run_trials(trial, 5, spec, 128)
    assert v.status == "certified" and batches == [5] and lone == []
    monkeypatch.undo()
    assert drawn == [[spec.stream(t).rng().uniform()] for t in range(5)]
