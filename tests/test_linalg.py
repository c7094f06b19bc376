import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from matconvex.errors import DomainViolationError, HermiticityError
from matconvex.linalg import (
    ScalarFunction,
    SpectrumWindow,
    apply_function,
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


def test_hermitian_rejects_asymmetric():
    with pytest.raises(HermiticityError):
        hermitian(np.array([[1.0, 2.0], [0.0, 1.0]]))
    for bad in (math.nan, math.inf):
        with pytest.raises(HermiticityError, match="non-finite"):
            hermitian(np.array([[1.0, bad], [bad, 1.0]]))


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
        assert frobenius(x[4]) == np.linalg.norm(x[4])
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
