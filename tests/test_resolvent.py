"""Resolvent calculus: exact derivatives, the two evaluation routes of a
representation, and input validation."""

import math

import numpy as np
import pytest

from helpers import fd_step, second_difference
from matconvex.convexity import ScalarFunction, line_second_derivative
from matconvex.errors import ConditioningError, DomainViolationError, HermiticityError
from matconvex.linalg import SpectrumWindow, _probe_points, apply_function
from matconvex.rand import (
    RandomSpec,
    random_directions,
    random_in_window_rows,
)
from matconvex.resolvent import (
    PickRepresentation,
    ResolventPoint,
    certify_representation,
    elementary_decomposition_residual,
    pick_eval_matrix,
    pick_eval_scalar,
    pick_scalar_function,
    pick_second_derivative,
    resolvent_identity_residual,
    resolvent_second_derivative,
    resolvent_value,
)

WINDOW = SpectrumWindow(0.1, 5.0)


def test_point_sign_and_scalar():
    below = ResolventPoint(-1.0, WINDOW)
    above = ResolventPoint(7.0, WINDOW)
    assert below.sign == -1 and above.sign == 1
    assert below.scalar(1.0) == pytest.approx(0.5)      # -1/(-1-1)
    assert above.scalar(1.0) == pytest.approx(1.0 / 6.0)


def test_point_inside_window_rejected():
    with pytest.raises(ValueError, match="outside"):
        ResolventPoint(2.0, WINDOW)


@pytest.mark.parametrize("u", [math.nan, math.inf, -math.inf])
def test_a_non_finite_pole_is_refused(u):
    # a NaN pole lies in no window, and would give an all-NaN resolvent
    with pytest.raises(ValueError, match="^u must be finite, got"):
        ResolventPoint(u, WINDOW)


def test_resolvent_value_matches_scalar_calculus():
    a = np.diag([1.0, 2.0]) + 0.0j
    p = ResolventPoint(-1.0, WINDOW)
    np.testing.assert_allclose(
        resolvent_value(a, p), np.diag([p.scalar(1.0), p.scalar(2.0)]), atol=1e-14
    )


def test_resolvent_near_singular_refused():
    a = np.diag([1.0, 5.0 - 1e-13]) + 0.0j
    with pytest.raises(ConditioningError, match="^u=5.0 within"):
        resolvent_value(a, ResolventPoint(5.0, WINDOW))
    stack = np.stack([np.diag([1.0, 2.0]), np.diag([1.0, 2.0]), a])
    with pytest.raises(ConditioningError, match="^row 2: u=5.0 within .* of an eigenvalue of A;"):
        resolvent_value(stack, ResolventPoint(5.0, WINDOW))


def test_resolvent_spectrum_check():
    with pytest.raises(DomainViolationError):
        resolvent_value(np.diag([6.0, 1.0]) + 0.0j, ResolventPoint(7.0, WINDOW))


@pytest.mark.parametrize("u", [-1.0, 7.0])
def test_second_derivative_psd_both_branches(u):
    for t in range(20):
        a = random_in_window_rows(3, WINDOW, [RandomSpec(10, t).rng()])[0]
        q = random_directions(1, 3, [RandomSpec(10, 1000 + t).rng()])[0][0]
        d2 = resolvent_second_derivative(a, q, ResolventPoint(u, WINDOW))
        assert np.linalg.eigvalsh(d2).min() >= -1e-10


@pytest.mark.parametrize("u", [-1.0, 7.0])
def test_second_derivative_matches_fd(u):
    spec = RandomSpec(11)
    a = random_in_window_rows(3, WINDOW, [spec.rng()])[0]
    q = random_directions(1, 3, [spec.stream(1).rng()])[0][0]
    point = ResolventPoint(u, WINDOW)
    exact = resolvent_second_derivative(a, q, point)
    f = ScalarFunction("f_u", point.scalar, WINDOW)
    fd = second_difference(lambda x: apply_function(x, f), a, q, fd_step(a))
    rel = np.linalg.norm(exact - fd) / np.linalg.norm(exact)
    assert rel < 1e-4


def test_resolvent_identity_exact():
    spec = RandomSpec(12)
    a = random_in_window_rows(4, WINDOW, [spec.rng()])[0] + 6.0 * np.eye(4)
    delta = 0.01 * random_directions(1, 4, [spec.stream(1).rng()])[0][0]
    assert resolvent_identity_residual(a, delta) < 1e-12


@pytest.mark.parametrize("u", [-2.0, -0.5, 6.0, 20.0])
def test_elementary_decomposition_exact(u):
    rng = RandomSpec(13).rng()
    for _ in range(100):
        c = float(rng.uniform(0.2, 4.8))
        z = float(rng.uniform(0.2, 4.8))
        assert elementary_decomposition_residual(u, c, z, WINDOW) < 1e-12


REP = PickRepresentation(
    alpha=0.5, beta=-0.2, gamma=0.3, c=1.0, window=WINDOW,
    atoms=((-1.0, 0.4), (7.0, 0.25)),
)


def test_representation_validation():
    with pytest.raises(ValueError, match="gamma"):
        PickRepresentation(0.0, 0.0, -1.0, 1.0, WINDOW)
    with pytest.raises(ValueError, match="center"):
        PickRepresentation(0.0, 0.0, 0.0, 9.0, WINDOW)
    with pytest.raises(ValueError, match="inside the window"):
        PickRepresentation(0.0, 0.0, 0.0, 1.0, WINDOW, atoms=((2.0, 1.0),))
    with pytest.raises(ValueError, match="weight"):
        PickRepresentation(0.0, 0.0, 0.0, 1.0, WINDOW, atoms=((-1.0, -0.1),))


@pytest.mark.parametrize("field", ["alpha", "beta", "gamma", "c", "u", "w"])
def test_a_representation_refuses_a_non_finite_field(field):
    # NaN passes every comparison check, and both Pick routes would return NaN
    fields = {"alpha": 0.5, "beta": 1.0, "gamma": 0.25, "c": 1.0, "u": -1.0, "w": 0.4,
              field: math.nan}
    with pytest.raises(ValueError, match=f"^{field} must be finite, got nan$"):
        PickRepresentation(fields["alpha"], fields["beta"], fields["gamma"], fields["c"],
                           WINDOW, ((fields["u"], fields["w"]),))


def test_scalar_eval_at_pole_free_point():
    # hand value at z = 0.5: alpha + beta z + gamma z^2 + atom terms
    z = 0.5
    expect = 0.5 - 0.2 * z + 0.3 * z * z
    expect += 0.4 * (z - 1.0) * (1.0 - z) / (-1.0 - z)
    expect += 0.25 * (1.0 - z) * (1.0 + 7.0 * z) / (z - 7.0)
    assert pick_eval_scalar(REP, z) == pytest.approx(expect)
    with pytest.raises(DomainViolationError):
        pick_eval_scalar(REP, 6.0)


def test_matrix_routes_agree():
    for t in range(10):
        a = random_in_window_rows(4, WINDOW, [RandomSpec(14, t).rng()])[0]
        via_spectral = apply_function(a, pick_scalar_function(REP))
        via_atoms = pick_eval_matrix(REP, a)
        np.testing.assert_allclose(via_spectral, via_atoms, atol=1e-10)


def test_matrix_routes_agree_on_a_stack():
    # five rows of 3 x 3: the identity must take the matrix size, not the row count
    a = random_in_window_rows(3, WINDOW, RandomSpec(15).rngs(range(5)))
    via_atoms = pick_eval_matrix(REP, a)
    assert via_atoms.shape == (5, 3, 3)
    np.testing.assert_allclose(apply_function(a, pick_scalar_function(REP)), via_atoms,
                               atol=1e-10)
    for t in range(5):
        np.testing.assert_allclose(via_atoms[t], pick_eval_matrix(REP, a[t]),
                                   rtol=0, atol=1e-13)


def test_matrix_route_commuting_case_matches_scalar():
    a = np.diag([0.5, 2.0, 4.0]) + 0.0j
    out = pick_eval_matrix(REP, a)
    expect = np.diag([pick_eval_scalar(REP, x) for x in (0.5, 2.0, 4.0)])
    np.testing.assert_allclose(out, expect, atol=1e-12)


def test_exact_second_derivative_psd_and_matches_fd():
    spec = RandomSpec(15)
    m = random_in_window_rows(3, WINDOW, [spec.rng()])[0]
    q = random_directions(1, 3, [spec.stream(1).rng()])[0][0]
    exact = pick_second_derivative(REP, m, q)
    assert np.linalg.eigvalsh(exact).min() >= -1e-10
    f = pick_scalar_function(REP)
    fd = second_difference(lambda x: apply_function(x, f), m, q, fd_step(m))
    assert np.linalg.norm(exact - fd) / np.linalg.norm(exact) < 1e-4


def test_pick_closed_forms_match_central_differences():
    f = pick_scalar_function(REP)
    for x in _probe_points(REP.window):
        h = 1e-3 * (1.0 + abs(x))
        fm2, fm1, f0, fp1, fp2 = (pick_eval_scalar(REP, x + k * h) for k in (-2, -1, 0, 1, 2))
        d1 = (fm2 - 8.0 * fm1 + 8.0 * fp1 - fp2) / (12.0 * h)
        d2 = (-fm2 + 16.0 * fm1 - 30.0 * f0 + 16.0 * fp1 - fp2) / (12.0 * h * h)
        assert f.deriv(x) == pytest.approx(d1, rel=1e-6)
        assert f.deriv2(x) == pytest.approx(d2, rel=1e-6)


@pytest.mark.parametrize("n, lines, tol", [(4, 50, 1e-10), (128, 3, 1e-8)])
def test_daleckii_krein_matches_the_resolvent_sum(n, lines, tol):
    f = pick_scalar_function(REP)
    for t in range(lines):
        rng = RandomSpec(17, t).rng()
        m = random_in_window_rows(n, WINDOW, [rng])[0]
        q = random_directions(1, n, [rng])[0][0]
        exact = pick_second_derivative(REP, m, q)
        dk = line_second_derivative(f, m, q)
        assert np.linalg.norm(dk - exact) / np.linalg.norm(exact) <= tol


def test_certify_representation():
    verdict = certify_representation(REP, 4, 100, RandomSpec(16))
    assert verdict.status == "certified"


def test_certify_needs_bounded_window():
    rep = PickRepresentation(0.0, 1.0, 0.0, 1.0, SpectrumWindow(0.0, np.inf))
    with pytest.raises(ValueError, match="bounded"):
        certify_representation(rep, 3, 10, RandomSpec(0))


def test_pure_quadratic_representation_is_x2_like():
    # gamma alone represents alpha + beta z + gamma z^2; second derivative 2 gamma Q^2
    rep = PickRepresentation(0.0, 0.0, 1.5, 1.0, WINDOW)
    q = np.array([[0.0, 1.0], [1.0, 0.0]])
    d2 = pick_second_derivative(rep, np.eye(2), q)
    np.testing.assert_allclose(d2, 3.0 * np.eye(2), atol=1e-14)


#: A nilpotent direction (whose lower triangle reads as 0) and a non-finite one.
BAD_DIRECTIONS = {"nilpotent": np.array([[0.0, 1.0], [0.0, 0.0]]),
                  "nan": np.array([[1.0, math.nan], [math.nan, 2.0]])}


@pytest.mark.parametrize("q", sorted(BAD_DIRECTIONS))
def test_the_resolvent_route_refuses_a_bad_direction(q):
    # as line_second_derivative does, and not with a zero or NaN derivative
    a, point = np.diag([1.0, 2.0]), ResolventPoint(7.0, WINDOW)
    for derivative in (lambda: resolvent_second_derivative(a, BAD_DIRECTIONS[q], point),
                       lambda: pick_second_derivative(REP, a, BAD_DIRECTIONS[q]),
                       lambda: line_second_derivative(pick_scalar_function(REP), a,
                                                      BAD_DIRECTIONS[q])):
        with pytest.raises(HermiticityError):
            derivative()


@pytest.mark.parametrize("m", sorted(BAD_DIRECTIONS))
def test_an_atomless_representation_checks_its_point(m):
    # with no atoms to sum, the resolvent gate still checks M
    rep = PickRepresentation(0.0, 0.0, 1.5, 1.0, WINDOW)
    with pytest.raises(HermiticityError):
        pick_second_derivative(rep, BAD_DIRECTIONS[m], np.eye(2))
