"""Parallel sums, tensor powers by two routes, trace functionals, means."""

import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import sqrtm
from scipy.special import gamma

from helpers import gamma_quadrature, second_difference
from matconvex import jointconcavity as jc
from matconvex import linalg
from matconvex.entropy import epsilon_limit_residual, relative_entropy
from matconvex.errors import (
    ConditioningError,
    DimensionMismatchError,
    HermiticityError,
    UnsupportedArityError,
    ValidationError,
)
from matconvex.jointconcavity import (
    ERROR_CURVE_NODES,
    KuboAndoRepresentation,
    _block_projection,
    c_constant,
    kubo_ando_eval,
    lieb_functional,
    parallel_sum,
    parallel_sum_certificate,
    parallel_sum_hessian,
    tensor_power_direct,
    tensor_power_errors,
    tensor_power_integral,
    wyd_skew_information,
)
from matconvex.linalg import SpectrumWindow, min_eigenvalue
from matconvex.quadrature import QuadratureConfig, orthant_rule
from matconvex.rand import (
    RandomSpec,
    haar_unitaries,
    random_densities,
    random_hermitian_rows,
    random_in_window_rows,
)

WINDOW = SpectrumWindow(0.1, 5.0)


def _tuple(k, n, seed):
    return list(random_in_window_rows(n, WINDOW, RandomSpec(seed).rngs(range(k))))


def _hermitian(n, seed, stream_id):
    return random_hermitian_rows(n, [RandomSpec(seed, stream_id).rng()])[0]


def _directions(n, seed, stream_ids):
    """One Hermitian direction per stream, the tuple scaled so that its
    largest operator norm is one."""
    dirs = [_hermitian(n, seed, s) for s in stream_ids]
    scale = max(linalg.op_norm(q) for q in dirs)
    return [q / scale for q in dirs]


# ---------------------------------------------------------------------------
# Parallel sums.


def test_parallel_sum_scalars():
    # harmonic half: (1/2 + 1/3)^(-1) = 6/5
    out = parallel_sum([np.array([[2.0]]), np.array([[3.0]])])
    assert out[0, 0] == pytest.approx(1.2)


def test_parallel_sum_dominated_by_each_entry():
    mats = _tuple(3, 4, 21)
    ps = parallel_sum(mats)
    for a in mats:
        assert min_eigenvalue(a - ps) >= -1e-10


def test_parallel_sum_rejects_nonpositive():
    with pytest.raises(ConditioningError):
        parallel_sum([np.diag([1.0, -0.5]), np.eye(2)])


def test_hessian_scalar_oracle():
    # f(a, b) = ab/(a+b) at (1, 1) along (1, -1): value (1-t^2)/2, second
    # derivative identically -1
    hess = parallel_sum_hessian(
        [np.array([[1.0]]), np.array([[1.0]])],
        [np.array([[1.0]]), np.array([[-1.0]])],
    )
    assert hess[0, 0] == pytest.approx(-1.0)


@pytest.mark.parametrize("k,n", [(2, 2), (2, 5), (3, 3)])
def test_hessian_negative_semidefinite_and_matches_fd(k, n):
    mats = _tuple(k, n, 100 * k + n)
    dirs = _directions(n, 7, range(50, 50 + k))
    hess = parallel_sum_hessian(mats, dirs)
    assert np.linalg.eigvalsh(hess).max() <= 1e-10
    fd = second_difference(parallel_sum, mats, dirs, 1e-4)
    assert np.linalg.norm(hess - fd) / np.linalg.norm(hess) < 1e-4


def test_hessian_direction_count_mismatch():
    mats = _tuple(2, 3, 5)
    with pytest.raises(DimensionMismatchError):
        parallel_sum_hessian(mats, [np.eye(3)])


#: route -> call on the tuple diag(1, 2), diag(3, 1.5) with directions ``dirs``
DIRECTION_ROUTES = {
    "parallel_sum_hessian": lambda dirs: parallel_sum_hessian(
        [np.diag([1.0, 2.0]), np.diag([3.0, 1.5])], dirs),
    "parallel_sum_certificate": lambda dirs: parallel_sum_certificate(
        [np.diag([1.0, 2.0]), np.diag([3.0, 1.5])], dirs),
}


@pytest.mark.parametrize("route", sorted(DIRECTION_ROUTES))
@pytest.mark.parametrize("bad, message", [
    ([[0.0, 1.0], [0.0, 0.0]], r"^matrix asymmetry 1\.000e\+00 exceeds tolerance 2\.000e-12$"),
    ([[math.nan, 0.0], [0.0, 1.0]], "^matrix has non-finite entries$"),
], ids=["upper-triangular", "nan"])
def test_a_non_hermitian_direction_is_refused_not_symmetrized(route, bad, message):
    # the Hessian symmetrizes its result, so without the check it would
    # quietly use another direction
    with pytest.raises(HermiticityError, match=message):
        DIRECTION_ROUTES[route]([np.array(bad), np.zeros((2, 2))])


@pytest.mark.parametrize("k,n", [(2, 3), (3, 4)])
def test_block_projection_residuals(k, n):
    # the certificate's residual is max(||T - T*||, ||T^2 - T||)
    mats = _tuple(k, n, 31 + k)
    _, _, residual = parallel_sum_certificate(mats, [np.eye(n)] * k)
    assert residual < 1e-10


def _hessian_block_sum(mats, dirs):
    """-2 sum_jm Y_j* (delta_jm - T_jm) Y_m over all k^2 blocks, with every
    inverse from np.linalg.inv and A^(-1/2) = inv(sqrtm(A)): no eigh."""
    invs = [np.linalg.inv(a) for a in mats]
    r_inv = np.linalg.inv(sum(invs))
    roots = [np.linalg.inv(sqrtm(a)) for a in mats]
    ys = [s @ q @ a_inv @ r_inv for s, q, a_inv in zip(roots, dirs, invs)]
    n, total = len(mats[0]), 0.0
    for j in range(len(mats)):
        for m in range(len(mats)):
            delta = np.eye(n) if j == m else 0.0
            total = total + ys[j].conj().T @ (delta - roots[j] @ r_inv @ roots[m]) @ ys[m]
    return -(total + total.conj().T)


@pytest.mark.parametrize("k,n,seed", [(2, 2, 1), (2, 5, 2), (3, 3, 3), (3, 4, 4)])
def test_hessian_matches_the_block_sum_oracle(k, n, seed):
    mats = _tuple(k, n, 200 + seed)
    dirs = _directions(n, 8, range(10 * seed, 10 * seed + k))
    hess, oracle = parallel_sum_hessian(mats, dirs), _hessian_block_sum(mats, dirs)
    assert np.linalg.norm(hess - oracle) <= 1e-12 * np.linalg.norm(oracle)
    # the projection's blocks are A_j^(-1/2) R^(-1) A_m^(-1/2)
    r_inv = np.linalg.inv(sum(np.linalg.inv(a) for a in mats))
    s = np.concatenate([np.linalg.inv(sqrtm(a)) for a in mats])
    np.testing.assert_allclose(_block_projection(mats)[3], s @ r_inv @ s.conj().T,
                               atol=1e-12)


@pytest.mark.parametrize("k", [2, 3])
def test_certificate_factors_each_entry_once(monkeypatch, k):
    mats = _tuple(k, 3, 40 + k)
    dirs = _directions(3, 9, range(k))
    expected = parallel_sum_certificate(mats, dirs)
    calls = Counter()
    for name in ("eigh", "eigvalsh", "inv"):
        def counted(*args, _real=getattr(np.linalg, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    hess, eig, residual = parallel_sum_certificate(mats, dirs)
    assert calls == {"eigh": k, "eigvalsh": 1, "inv": 1}
    np.testing.assert_array_equal(hess, expected[0])
    assert (eig, residual) == expected[1:]
    assert eig <= 1e-10 and residual <= 1e-12


# ---------------------------------------------------------------------------
# Tensor powers.


def test_tensor_power_direct_diagonal_example():
    out = tensor_power_direct(
        [np.diag([1.0, 9.0]), np.diag([4.0, 16.0])], (0.5, 0.5)
    )
    np.testing.assert_allclose(out, np.diag([2.0, 4.0, 6.0, 12.0]), atol=1e-12)


def test_tensor_power_zero_exponent_gives_identity_factor():
    a = np.diag([2.0, 3.0])
    out = tensor_power_direct([a, a], (1.0, 0.0))
    np.testing.assert_allclose(out, np.kron(a, np.eye(2)), atol=1e-12)


@pytest.mark.parametrize("p", [(0.5, 0.5), (0.3, 0.7), (0.2, 0.5, 0.3)])
def test_tensor_power_integral_matches_direct(p):
    mats = _tuple(len(p), 2, sum(int(10 * x) for x in p))
    direct = tensor_power_direct(mats, p)
    approx = tensor_power_integral(mats, p, QuadratureConfig(64))
    rel = np.linalg.norm(approx - direct) / np.linalg.norm(direct)
    assert rel < 1e-5, (p, rel)


def test_tensor_power_integral_diagonal_case():
    mats = [np.diag([0.5, 2.0]), np.diag([1.0, 3.0])]
    direct = tensor_power_direct(mats, (0.5, 0.5))
    approx = tensor_power_integral(mats, (0.5, 0.5), QuadratureConfig(64))
    np.testing.assert_allclose(approx, direct, atol=1e-8)


def test_tensor_power_integral_input_validation():
    mats = _tuple(2, 2, 9)
    with pytest.raises(ValueError, match="sum exactly 1"):
        tensor_power_integral(mats, (0.4, 0.4))
    with pytest.raises(UnsupportedArityError):
        tensor_power_integral(_tuple(4, 2, 9), (0.25, 0.25, 0.25, 0.25))
    with pytest.raises(ValueError):
        tensor_power_direct(mats, (0.9, 0.9))


def _dense_resolvent_integral(mats, p, quad):
    """Reference for tensor_power_integral without eigendecompositions: embed
    each inverse as I x ... x A_j^(-1) x ... x I and invert the resolvent
    densely at every node of the same orthant rule."""
    eyes = [np.eye(a.shape[0]) for a in mats]
    inv_tilde = []
    for j, a in enumerate(mats):
        big = np.eye(1)
        for m in range(len(mats)):
            big = np.kron(big, np.linalg.inv(a) if m == j else eyes[m])
        inv_tilde.append(big)
    rows, weights, _ = orthant_rule(list(p[1:]), quad.nodes_per_axis)
    points = rows[:, 1:]
    total = np.zeros_like(inv_tilde[0])
    norm = 0.0
    for us, weight in zip(points, weights):
        stack = inv_tilde[0] + sum(u * g for u, g in zip(us, inv_tilde[1:]))
        total = total + weight * np.linalg.inv(stack)
        norm += weight / (1.0 + us.sum())
    return total / norm


@pytest.mark.parametrize("k,n", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_tensor_power_integral_matches_dense_oracle(k, n):
    p = (0.3, 0.7) if k == 2 else (0.2, 0.5, 0.3)
    mats = _tuple(k, n, 80 + 10 * k + n)
    # a factor with a repeated eigenvalue: its eigenbasis is not unique
    u = haar_unitaries(n, [RandomSpec(90, n).rng()])[0]
    mats[1] = (u * np.array([0.7] * (n - 1) + [2.5])) @ u.conj().T
    quad = QuadratureConfig(16)
    oracle = _dense_resolvent_integral(mats, p, quad)
    out = tensor_power_integral(mats, p, quad)
    assert np.linalg.norm(out - oracle) / np.linalg.norm(oracle) <= 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_tensor_power_factor_order(n):
    a, b = _tuple(2, n, 95 + n)
    swap = np.zeros((n * n, n * n))
    for i in range(n):
        for j in range(n):
            swap[j * n + i, i * n + j] = 1.0
    for route in (tensor_power_direct, tensor_power_integral):
        ab = route([a, b], (0.3, 0.7))
        ba = route([b, a], (0.7, 0.3))
        rel = np.linalg.norm(ba - swap @ ab @ swap.T) / np.linalg.norm(ba)
        assert rel <= 1e-12, (route.__name__, rel)


def test_tensor_power_errors_factor_each_entry_once(monkeypatch):
    mats = _tuple(2, 3, 60)
    expected = [tensor_power_errors(mats, (0.3, 0.7), ERROR_CURVE_NODES),
                tensor_power_errors(mats, (0.3, 0.7), [64])]
    calls = Counter()
    real = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: calls.update(["eigh"]) or real(*a, **k))
    curve = tensor_power_errors(mats, (0.3, 0.7), ERROR_CURVE_NODES)
    assert calls == {"eigh": 2}
    assert curve == expected[0]
    assert tensor_power_errors(mats, (0.3, 0.7), [64]) == expected[1]
    assert calls == {"eigh": 4}


@pytest.mark.parametrize("k,n", [(2, 4), (3, 2)])
def test_tensor_power_integral_never_forms_the_product_basis(monkeypatch, k, n):
    def refuse(*args):
        raise AssertionError("the Kronecker eigenbasis was formed")

    p = (0.3, 0.7) if k == 2 else (0.2, 0.5, 0.3)
    mats = _tuple(k, n, 70 + k)
    expected = tensor_power_direct(mats, p)
    for module in (jc, linalg):
        monkeypatch.setattr(module, "tensor", refuse)
    out = tensor_power_integral(mats, p, QuadratureConfig(64))
    assert np.linalg.norm(out - expected) / np.linalg.norm(expected) < 1e-5


def test_tensor_power_integral_rejects_without_repair():
    good = np.diag([1.0, 2.0])
    upper = np.array([[1.0, 0.5], [0.0, 2.0]])
    with pytest.raises(HermiticityError):
        tensor_power_integral([upper, good], (0.5, 0.5))
    nan_entry = np.array([[1.0, np.nan], [np.nan, 2.0]])
    with pytest.raises(HermiticityError):
        tensor_power_integral([good, nan_entry], (0.5, 0.5))
    # the direct route goes through the same gate
    with pytest.raises(HermiticityError):
        tensor_power_direct([good, nan_entry], (0.5, 0.5))


@pytest.mark.parametrize("route", [tensor_power_direct, tensor_power_integral])
def test_tensor_power_rejects_non_finite_powers(route):
    mats = _tuple(2, 2, 11)
    for p in [(math.nan, 0.5), (0.5, math.nan), (math.inf, 0.5)]:
        with pytest.raises(ValueError, match="finite"):
            route(mats, p)


def test_c_constant_against_closed_forms():
    assert c_constant((0.5, 0.5)) == pytest.approx(math.pi, abs=1e-6)
    third = 1.0 / 3.0
    assert c_constant((third, third, third)) == pytest.approx(
        float(gamma(third)) ** 3, abs=1e-5
    )


def test_c_constant_against_gamma_oracle():
    for p in [(0.5, 0.5), (0.3, 0.7), (0.2, 0.5, 0.3)]:
        oracle = 1.0
        for x in p:
            oracle *= gamma_quadrature(x)
        assert c_constant(p) == pytest.approx(oracle, rel=1e-6)


#: power vectors the integral route refuses, with the error and its message
REFUSED_POWERS = [
    ((0.3, 0.3), ValueError, "sum exactly 1"),
    ((0.7, 0.7), ValueError, "sum to at most 1"),
    ((0.0, 1.0), ValueError, "all p_j > 0"),
    ((-0.3, 1.3), ValueError, "finite and nonnegative"),
    ((math.nan, 0.5), ValueError, "finite and nonnegative"),
    ((1.0,), UnsupportedArityError, "k in {2, 3}, got k=1"),
    ((0.25,) * 4, UnsupportedArityError, "k in {2, 3}, got k=4"),
    # p_1 > 0 and the sum is 1 within 1e-12, but the orthant rule's exponent
    # p_2 + ... + p_k rounds to 1
    ((1e-300, 1.0), ValueError, "p_2 + ... + p_k < 1, got 1.0"),
    ((1e-13, 1.0), ValueError, "p_2 + ... + p_k < 1, got 1.0"),
    ((1e-300, 0.5, 0.5), ValueError, "p_2 + ... + p_k < 1, got 1.0"),
]


@pytest.mark.parametrize("p, error, message", REFUSED_POWERS,
                         ids=[str(p) for p, _, _ in REFUSED_POWERS])
def test_c_constant_shares_the_integral_power_rule(p, error, message):
    # the constant reads p_1 only through the sum, so (0.3, 0.3) would pass
    # for (0.7, 0.3) unless the sum must be exactly 1
    with pytest.raises(error, match=re.escape(message)) as refused:
        c_constant(p)
    with pytest.raises(error) as integral:
        tensor_power_integral(_tuple(len(p), 2, 9), p)
    assert str(integral.value) == str(refused.value)


def _per_call_rule(ps, nodes):
    """The coefficient rows (1, u) and normalization of the orthant rule
    rebuilt from its points in every call, as the integral formed them before
    the rule kept them."""
    rows, weights, _ = orthant_rule(ps, nodes)
    points = rows[:, 1:]
    coeffs = np.column_stack([np.ones(len(weights)), points])
    return coeffs, weights, np.sum(weights / (1.0 + points.sum(axis=1)))


@pytest.mark.parametrize("nodes", [16, 64, 128])
@pytest.mark.parametrize("k,rows", [(2, None), (2, 3), (3, None), (3, 3)])
def test_tensor_power_integral_equals_its_per_call_design(monkeypatch, k, rows, nodes):
    # k = 3, n = 3 takes 1, 2 and 7 resolvent chunks of 4,854 points at 16, 64, 128 nodes
    p = (0.3, 0.7) if k == 2 else (0.2, 0.5, 0.3)
    mats = (_tuple(k, 3, 30 + k) if rows is None else
            [random_in_window_rows(3, WINDOW, RandomSpec(30 + k, j).rngs(range(rows)))
             for j in range(k)])
    quad = QuadratureConfig(nodes)
    cached = tensor_power_integral(mats, p, quad)
    monkeypatch.setattr(jc, "orthant_rule", _per_call_rule)
    assert np.array_equal(cached, tensor_power_integral(mats, p, quad))
    assert c_constant(p, quad) == _per_call_rule(list(p[1:]), nodes)[2]


def test_each_resolvent_rule_is_built_once(capsys):
    from matconvex import convexity as cx
    from matconvex.cli import main
    from matconvex.quadrature import _orthant_rule

    p, quad = (0.2, 0.5, 0.3), QuadratureConfig(64)
    mats = _tuple(3, 3, 33)
    _orthant_rule.cache_clear()
    first = tensor_power_integral(mats, p, quad)
    assert np.array_equal(tensor_power_integral(mats, p, quad), first)
    c_constant(p, quad)
    assert _orthant_rule.cache_info()[:2] == (2, 1)  # (hits, misses)
    _orthant_rule.cache_clear()
    chunks = -(-30 // cx._chunk_rows(32))
    assert chunks > 1
    assert main(["check-concavity", "tensor-power", "--p", "0.2,0.5,0.3", "--n", "3",
                 "--trials", "30", "--seed", "1", "--format", "json"]) == 0
    capsys.readouterr()
    assert _orthant_rule.cache_info()[:2] == (chunks - 1, 1)


# ---------------------------------------------------------------------------
# Lieb functional, skew information, means.


def test_lieb_functional_commuting_value():
    # diagonal everything: sum_i a_i^p |k_ii|^2 b_i^r reduces to plain arithmetic
    a = np.diag([1.0, 4.0])
    b = np.diag([9.0, 16.0])
    k = np.diag([1.0, 2.0])
    # 1*9^0.5*1 + 4^0.5*16^0.5*4 = 3 + 32
    assert lieb_functional(a, b, k, 0.5, 0.5) == pytest.approx(35.0)


def test_lieb_functional_is_real_for_random_k():
    rng = RandomSpec(55).rng()
    a, b = _tuple(2, 3, 56)
    k = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    val = lieb_functional(a, b, k, 0.4, 0.5)
    assert isinstance(val, float)


@pytest.mark.parametrize("p, r", [(math.nan, 0.5), (0.4, math.nan), (-0.1, 0.5),
                                  (0.6, 0.5), (np.array([0.2, math.nan]), 0.5)])
def test_lieb_functional_rejects_bad_exponents(p, r):
    # with A = B = I, 1^NaN = 1 would turn a NaN exponent into a finite value
    eye = np.stack([np.eye(2)] * 2) if np.ndim(p) else np.eye(2)
    with pytest.raises(ValueError, match="p \\+ r <= 1"):
        lieb_functional(eye, eye, eye, p, r)


def test_vectorization_identity():
    # column stacking puts the transpose on the A factor:
    # Tr[A^p K* B^r K] = <vec K| (A^p)^T x B^r |vec K>
    rng = RandomSpec(57).rng()
    a, b = _tuple(2, 4, 58)
    k = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    (wa, ua), (wb, ub) = np.linalg.eigh(a), np.linalg.eigh(b)
    a_p = (ua * wa**0.3) @ ua.conj().T
    b_r = (ub * wb**0.6) @ ub.conj().T
    v = k.flatten(order="F")
    bilinear = (v.conj() @ np.kron(a_p.T, b_r) @ v).real
    assert abs(lieb_functional(a, b, k, 0.3, 0.6) - bilinear) < 1e-12


def test_wyd_hand_value():
    # rho = diag(3/4, 1/4), K the flip; cross term 2 sqrt(3)/4, plain term 1
    rho = np.diag([0.75, 0.25])
    k = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert wyd_skew_information(rho, k, 0.5) == pytest.approx(
        math.sqrt(3.0) / 2.0 - 1.0
    )


def test_wyd_zero_iff_commuting_and_nonpositive():
    for t in range(20):
        rho = random_densities(3, [RandomSpec(60, t).rng()])[0]
        k = _hermitian(3, 61, t)
        assert wyd_skew_information(rho, k, 0.3) <= 1e-12
    w, u = np.linalg.eigh(random_densities(3, [RandomSpec(62).rng()])[0])
    k_comm = (u * np.array([1.0, -2.0, 0.5])) @ u.conj().T
    rho = (u * w) @ u.conj().T
    assert abs(wyd_skew_information(rho, k_comm, 0.7)) < 1e-12


@pytest.mark.parametrize("rho, message", [
    (np.diag([1.5, -0.5]), "negative eigenvalue -5.000e-01"),
    (np.diag([2.0, 1.0]), "trace 3.0 deviates from 1"),
    (np.diag([1.0 + 1e-9, 0.0]), "deviates from 1"),
    (np.stack([np.diag([0.5, 0.5]), np.diag([0.75, 0.5])]), "row 1: trace 1.25"),
], ids=["negative", "trace-3", "trace-off-by-1e-9", "stack"])
def test_wyd_refuses_a_rho_that_is_not_a_density(rho, message):
    # lifting the eigenvalues and renormalizing the trace would quietly
    # evaluate another state
    k = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValidationError, match=re.escape(message)):
        wyd_skew_information(rho, k, 0.5)


def test_wyd_lifts_only_roundoff_eigenvalues():
    # an eigenvalue in [-1e-10, 1e-12) is rounding: lifted to 1e-12, as before
    k = np.array([[0.0, 1.0], [1.0, 0.0]])
    near = wyd_skew_information(np.diag([1.0 + 5e-11, -5e-11]), k, 0.5)
    lifted = wyd_skew_information(np.diag([1.0, 1e-12]), k, 0.5)
    assert near == pytest.approx(lifted, rel=1e-9) and near < 0.0


def test_kubo_ando_validation():
    with pytest.raises(ValueError):
        KuboAndoRepresentation(0.0, 0.0, atoms=((-1.0, 1.0),))
    with pytest.raises(ValueError):
        KuboAndoRepresentation(0.0, 0.0, atoms=((1.0, 0.0),))


@pytest.mark.parametrize("field", ["a", "b", "t", "nu"])
def test_a_mean_refuses_a_non_finite_field(field):
    # NaN passes every comparison check, and kubo_ando_eval would return NaN
    fields = {"a": 0.5, "b": 0.5, "t": 1.0, "nu": 0.3, field: math.nan}
    with pytest.raises(ValueError, match=f"^{field} must be finite, got nan$"):
        KuboAndoRepresentation(fields["a"], fields["b"], ((fields["t"], fields["nu"]),))


@pytest.mark.parametrize("field", ["a", "b"])
def test_a_mean_refuses_a_negative_linear_part(field):
    # a A + b B with a < 0 or b < 0 is jointly concave but not monotone, so
    # it is no Kubo-Ando mean
    fields = {"a": 0.2, "b": 0.2, field: -0.1}
    with pytest.raises(ValueError, match=f"^{field} must be nonnegative, got -0.1$"):
        KuboAndoRepresentation(fields["a"], fields["b"], ((1.0, 0.5),))
    KuboAndoRepresentation(0.0, 0.0, ((1.0, 0.5),))  # a = b = 0 is still a mean


def test_kubo_ando_matrix_vs_scalar_coherence():
    rep = KuboAndoRepresentation(0.2, 0.1, atoms=((0.5, 0.3), (2.0, 0.7)))

    def f(x):  # the induced scalar function (B = 1, A = x)
        return rep.a * x + rep.b + sum(nu * (t * x / (1.0 + t * x)) * (1.0 + t) / t
                                       for t, nu in rep.atoms)

    # commuting pair: eval must equal b * f_rep(a/b) on joint eigenvalues
    a = np.diag([0.5, 3.0])
    b = np.eye(2)
    out = kubo_ando_eval(rep, a, b)
    np.testing.assert_allclose(
        out, np.diag([f(0.5), f(3.0)]), atol=1e-12
    )


def test_kubo_ando_arithmetic_and_harmonic_extremes():
    a, b = _tuple(2, 3, 64)
    arithmetic = KuboAndoRepresentation(0.5, 0.5)
    np.testing.assert_allclose(
        kubo_ando_eval(arithmetic, a, b), 0.5 * (a + b), atol=1e-12
    )
    harmonic = KuboAndoRepresentation(0.0, 0.0, atoms=((1.0, 1.0),))
    np.testing.assert_allclose(
        kubo_ando_eval(harmonic, a, b), 2.0 * parallel_sum([a, b]), atol=1e-10
    )


def test_kubo_ando_midpoint_concavity():
    rep = KuboAndoRepresentation(0.1, 0.2, atoms=((1.0, 0.5),))
    for t in range(20):
        a0, b0 = _tuple(2, 3, 70 + t)
        a1, b1 = _tuple(2, 3, 170 + t)
        gap = kubo_ando_eval(rep, 0.5 * (a0 + a1), 0.5 * (b0 + b1)) - 0.5 * (
            kubo_ando_eval(rep, a0, b0) + kubo_ando_eval(rep, a1, b1)
        )
        assert np.linalg.eigvalsh(gap).min() >= -1e-10


# ---------------------------------------------------------------------------
# The tuple gate, and the relative-entropy and skew-information entry points:
# every one rejects non-finite or non-Hermitian input.

_KUBO = KuboAndoRepresentation(0.1, 0.2, atoms=((1.0, 0.5),))

#: name -> call with one bad operand (and good ones elsewhere)
GATED = {
    "parallel_sum": lambda bad, good: parallel_sum([good, bad]),
    "parallel_sum_hessian": lambda bad, good: parallel_sum_hessian(
        [bad, good], [good, good]),
    "parallel_sum_certificate": lambda bad, good: parallel_sum_certificate(
        [good, bad], [good, good]),
    "tensor_power_direct": lambda bad, good: tensor_power_direct([good, bad], (0.3, 0.7)),
    "tensor_power_integral": lambda bad, good: tensor_power_integral(
        [bad, good], (0.3, 0.7), QuadratureConfig(8)),
    "lieb_functional_a": lambda bad, good: lieb_functional(bad, good, good, 0.4, 0.5),
    "lieb_functional_b": lambda bad, good: lieb_functional(good, bad, good, 0.4, 0.5),
    "kubo_ando_eval_a": lambda bad, good: kubo_ando_eval(_KUBO, bad, good),
    "kubo_ando_eval_b": lambda bad, good: kubo_ando_eval(_KUBO, good, bad),
    "relative_entropy_a": lambda bad, good: relative_entropy(bad, good),
    "relative_entropy_b": lambda bad, good: relative_entropy(good, bad),
    "epsilon_limit_residual_a": lambda bad, good: epsilon_limit_residual(bad, good, 1e-5),
    "epsilon_limit_residual_b": lambda bad, good: epsilon_limit_residual(good, bad, 1e-5),
    "wyd_skew_information": lambda bad, good: wyd_skew_information(
        bad / np.trace(good).real, good, 0.4),
    "wyd_skew_information_k": lambda bad, good: wyd_skew_information(
        good / np.trace(good).real, bad, 0.4),
}


@settings(max_examples=120, deadline=None)
@given(
    name=st.sampled_from(sorted(GATED)),
    n=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=10**6),
    i=st.integers(min_value=0, max_value=3),
    j=st.integers(min_value=0, max_value=3),
    defect=st.one_of(st.just(math.nan), st.floats(min_value=1e-9, max_value=10.0)),
)
def test_gated_entry_points_reject_without_repair(name, n, seed, i, j, defect):
    rng = RandomSpec(seed).rng()
    good = random_in_window_rows(n, WINDOW, [rng])[0]
    bad = good.copy()
    i, j = i % n, j % n
    if math.isnan(defect):
        bad[i, j] = math.nan  # one triangle only: eigvalsh alone would not see it
    else:
        bad[i, j] += defect * (1.0 + 1.0j)  # asymmetric on and off the diagonal
    with pytest.raises(HermiticityError):
        GATED[name](bad, good)
    GATED[name](good, good)  # the same call passes on good input
