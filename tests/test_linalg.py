import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from matconvex.errors import DimensionMismatchError, DomainViolationError, HermiticityError
from matconvex.linalg import (
    ScalarFunction,
    SpectrumWindow,
    apply_function,
    check_hermitian,
    frobenius,
    from_spectrum,
    hermitian,
    kron_from_spectrum,
    min_eigenvalue,
    op_norm,
    tensor,
)


def test_hermitian_symmetrizes_roundoff():
    a = np.array([[1.0, 0.5 + 1e-14], [0.5, 2.0]])
    h = hermitian(a)
    np.testing.assert_allclose(h, h.conj().T)


def _stack_with_bad_row():
    stack = np.stack([np.eye(2, dtype=complex)] * 3)
    stack[1, 0, 1] = 1e-9j
    return stack


#: The gate's corpus: (name, input, error type and message, or None if it
#: passes).  The tolerance is 1e-12 * (1 + max|entry|).
GATE_CASES = [
    ("scale 1, at the edge", np.array([[0.0, 1e-12], [0.0, 0.0]]), None),
    ("scale 1, past the edge", np.array([[0.0, 1.5e-12], [0.0, 0.0]]), (
        HermiticityError, "matrix asymmetry 1.500e-12 exceeds tolerance 1.000e-12")),
    ("scale 1e3, inside", np.array([[999.0, 0.9e-9j], [0.0, 999.0]]), None),
    ("scale 1e3, past the edge", np.array([[999.0, 1.1e-9j], [0.0, 999.0]]), (
        HermiticityError, "matrix asymmetry 1.100e-09 exceeds tolerance 1.000e-09")),
    ("nan", np.array([[1.0, math.nan], [math.nan, 1.0]]), (
        HermiticityError, "matrix has non-finite entries")),
    ("inf", np.array([[1.0, math.inf], [math.inf, 1.0]]), (
        HermiticityError, "matrix has non-finite entries")),
    ("-inf", np.array([[-math.inf, 0.0], [0.0, 1.0]]), (
        HermiticityError, "matrix has non-finite entries")),
    ("stack", _stack_with_bad_row(), (
        HermiticityError, "row 1: matrix asymmetry 1.000e-09 exceeds tolerance 2.000e-12")),
    ("real", np.array([[1.0, 2.0], [0.0, 1.0]]), (
        HermiticityError, "matrix asymmetry 2.000e+00 exceeds tolerance 3.000e-12")),
    ("int64 wrapping to its minimum", np.array([[0, np.iinfo(np.int64).max], [-1, 0]]), (
        HermiticityError, "matrix asymmetry 9.223e+18 exceeds tolerance 9.223e+06")),
    ("list", [[1.0, 2j], [-2j, 1.0]], None),
    ("asymmetric list", [[1.0, 2j], [2j, 1.0]], (
        HermiticityError, "matrix asymmetry 4.000e+00 exceeds tolerance 3.000e-12")),
    ("not square", np.zeros((2, 3)), (
        DimensionMismatchError, "expected a square matrix, got shape (2, 3)")),
    ("empty", np.zeros((0, 0)), (DimensionMismatchError, "dimension must be >= 1")),
]


def test_hermitian_rejects_asymmetric():
    # the gate and the constructor on it raise one type and message per case
    for name, entries, expected in GATE_CASES:
        for gate in (check_hermitian, hermitian):
            if expected is None:
                gate(entries)
                continue
            with pytest.raises(expected[0]) as info:
                gate(entries)
            assert str(info.value) == expected[1], (name, gate.__name__)


def test_check_hermitian_returns_the_array_it_checked():
    stack = np.stack([np.eye(3)] * 2)
    assert check_hermitian(stack) is stack
    rows = [[2.0, 1j], [-1j, 2.0]]
    np.testing.assert_array_equal(check_hermitian(rows), np.asarray(rows))


@pytest.mark.parametrize("shape", [(3, 3, 3), (4, 2, 2)])
def test_hermitian_symmetrizes_a_stack_row_by_row(shape):
    rng = np.random.default_rng(5)
    g = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    stack = g + g.conj().swapaxes(-1, -2)  # Hermitian to the last bit
    np.testing.assert_array_equal(hermitian(stack), stack)
    nudged = stack + 1e-14 * rng.normal(size=shape)
    np.testing.assert_array_equal(hermitian(nudged), [hermitian(row) for row in nudged])


def test_a_scalar_only_function_is_refused_when_built():
    with pytest.raises(ValueError, match="scalar_log is not a numpy form"):
        ScalarFunction("scalar_log", lambda x: math.log(x), SpectrumWindow(0.0, math.inf))
    with pytest.raises(ValueError, match="scalar_deriv is not a numpy form"):
        ScalarFunction("scalar_deriv", np.log, SpectrumWindow(0.0, math.inf),
                       deriv=lambda x: 1.0 / float(x))


def test_window_validation():
    with pytest.raises(ValueError):
        SpectrumWindow(2.0, 1.0)
    w = SpectrumWindow(0.0, 1.0)
    assert w.contains(0.5)
    assert not w.contains(0.0)  # open interval
    with pytest.raises(DomainViolationError):
        w.check_spectrum(np.array([0.5, 1.5]))


def test_window_shrunk():
    inner = SpectrumWindow(0.0, 10.0).shrunk()
    assert inner.a == pytest.approx(0.5)
    assert inner.b == pytest.approx(9.5)


def test_apply_function_matches_direct_eigencalc():
    rng = np.random.default_rng(0)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = hermitian(g + g.conj().T)
    shifted = h + 10.0 * np.eye(4)
    out = apply_function(shifted, ScalarFunction("sqrt", np.sqrt, SpectrumWindow(0.0, math.inf)))
    np.testing.assert_allclose(out @ out, shifted, atol=1e-10)


def test_apply_function_domain_violation_names_source():
    with pytest.raises(DomainViolationError, match="A0"):
        apply_function(
            np.diag([-1.0, 2.0]), ScalarFunction("sqrt", np.sqrt, SpectrumWindow(0.0, math.inf)),
            source="A0",
        )


def test_loewner_order_helpers():
    assert min_eigenvalue(np.diag([3.0, -2.0])) == pytest.approx(-2.0)
    # a matrix is the stack of one: a float for it, a (T,) array for a stack
    stack = np.array([np.diag([3.0, -2.0]), [[2.0, 1j], [-1j, 2.0]]])
    assert type(min_eigenvalue(stack[0])) is float
    np.testing.assert_array_equal(min_eigenvalue(stack), [min_eigenvalue(h) for h in stack])
    np.testing.assert_allclose(min_eigenvalue(stack), [-2.0, 1.0], rtol=1e-15)
    assert op_norm(np.diag([3.0, -5.0])) == pytest.approx(5.0)


def test_tensor_is_kron():
    a, b = np.diag([1.0, 2.0]), np.diag([3.0, 4.0])
    np.testing.assert_allclose(tensor(a, b), np.kron(a, b))


def _unitaries(dims, rng, *stack):
    return [np.linalg.qr(rng.normal(size=(*stack, n, n))
                         + 1j * rng.normal(size=(*stack, n, n)))[0] for n in dims]


@pytest.mark.parametrize("dims", [(3,), (2, 3), (3, 3), (2, 3, 4), (3, 3, 3), (16, 16)])
def test_kron_from_spectrum_matches_the_product_basis(dims):
    rng = np.random.default_rng(sum(dims))
    us = _unitaries(dims, rng)
    w = rng.normal(size=math.prod(dims))
    basis = np.eye(1)
    for u in us:
        basis = tensor(basis, u)
    expected = from_spectrum(w, basis)
    out = kron_from_spectrum(w, us)
    assert np.linalg.norm(out - expected) <= 1e-13 * np.linalg.norm(expected)


@pytest.mark.parametrize("dims", [(3,), (2, 3), (2, 3, 4), (3, 3, 3)])
def test_kron_from_spectrum_stacked_rows_equal_their_calls(dims):
    rng = np.random.default_rng(7)
    us = _unitaries(dims, rng, 4)
    w = rng.normal(size=(4, math.prod(dims)))
    stacked = kron_from_spectrum(w, us)
    for t in range(4):
        np.testing.assert_array_equal(stacked[t], kron_from_spectrum(w[t], [u[t] for u in us]))


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 17, 64])
def test_stacked_frobenius_rows_equal_their_norms(n, dtype):
    rng = np.random.default_rng(n)
    for scale in (1.0, 1e-150, 1e150):
        x = scale * rng.normal(size=(9, n, n))
        if dtype is complex:
            x = x + 1j * scale * rng.normal(size=(9, n, n))
        np.testing.assert_array_equal(frobenius(x), [np.linalg.norm(row) for row in x])
        assert frobenius(x[4]) == np.linalg.norm(x[4]) and type(frobenius(x[4])) is float
    assert frobenius(np.zeros((0, n, n), dtype=dtype)).shape == (0,)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=10**6))
def test_apply_function_reconstructs(n, seed):
    # f(x) = x gives back H and f(x) = 1 gives U U* = I; min_eigenvalue
    # reads the low end of the ascending spectrum
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = hermitian(0.5 * (g + g.conj().T))
    reals = SpectrumWindow(-math.inf, math.inf)
    identity, one = (ScalarFunction(name, g, reals)
                     for name, g in (("identity", lambda x: x), ("one", lambda x: 1.0)))
    np.testing.assert_allclose(apply_function(h, identity), h, atol=1e-10)
    np.testing.assert_allclose(apply_function(h, one), np.eye(n), atol=1e-10)
    w = np.linalg.eigvalsh(h)
    assert min_eigenvalue(h) == w.min()
