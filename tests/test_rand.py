import numpy as np
import pytest

from matconvex.errors import UnboundedWindowError
from matconvex.linalg import SpectrumWindow
from matconvex.rand import (
    RandomSpec,
    haar_unitaries,
    haar_unitary_from,
    random_densities,
    random_density_from,
    random_direction_from,
    random_hermitian_from,
    random_in_window_from,
    random_pure_density,
    random_simplex,
)


def test_same_spec_same_draw():
    a = random_hermitian_from(5, RandomSpec(42, 3).rng())
    b = random_hermitian_from(5, RandomSpec(42, 3).rng())
    np.testing.assert_array_equal(a, b)


def test_different_streams_differ():
    a = random_hermitian_from(5, RandomSpec(42, 0).rng())
    b = random_hermitian_from(5, RandomSpec(42, 1).rng())
    assert np.linalg.norm(a - b) > 1e-3


def test_stream_helper():
    spec = RandomSpec(7)
    assert spec.stream(9) == RandomSpec(7, 9)
    # stream ids nest: an offset stream of an offset stream adds up
    assert RandomSpec(7, 5).stream(3) == RandomSpec(7, 8)


def test_haar_unitary_is_unitary():
    u = haar_unitary_from(6, RandomSpec(0).rng())
    np.testing.assert_allclose(u @ u.conj().T, np.eye(6), atol=1e-12)


def test_random_in_window_spectrum_confined():
    window = SpectrumWindow(1.0, 3.0)
    for t in range(20):
        m = random_in_window_from(4, window, RandomSpec(1, t).rng())
        eigs = np.linalg.eigvalsh(m)
        assert eigs.min() > 1.0 and eigs.max() < 3.0
        # the 5% sampling margin keeps spectra clear of the edges
        assert eigs.min() > 1.0 + 0.05 * 2.0 - 1e-12


def test_random_in_window_rejects_unbounded():
    with pytest.raises(UnboundedWindowError):
        random_in_window_from(3, SpectrumWindow(0.0, np.inf), RandomSpec(0).rng())


def test_random_direction_unit_norm():
    q = random_direction_from(4, RandomSpec(3).rng())
    assert np.max(np.abs(np.linalg.eigvalsh(q))) == pytest.approx(1.0)


def test_random_density_valid():
    rho = random_density_from(5, RandomSpec(9).rng())
    assert np.trace(rho).real == pytest.approx(1.0)
    assert np.linalg.eigvalsh(rho).min() >= 0.0


def test_random_pure_density_rank_one():
    rho = random_pure_density(4, RandomSpec(2))
    eigs = np.sort(np.linalg.eigvalsh(rho))
    np.testing.assert_allclose(eigs, [0, 0, 0, 1], atol=1e-12)


def test_random_simplex_sums_to_one():
    w = random_simplex(5, RandomSpec(4).rng())
    assert w.sum() == pytest.approx(1.0)
    assert np.all(w > 0)


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_stacked_haar_rows_bit_identical_to_per_stream_draws(n):
    spec = RandomSpec(5, 40)
    stack = haar_unitaries(n, (spec.stream(t).rng() for t in range(30)))
    assert stack.shape == (30, n, n)
    for t in range(30):
        alone = haar_unitary_from(n, spec.stream(t).rng())
        np.testing.assert_array_equal(stack[t], alone)
        # the 2-D formula a loop over streams would run
        rng = spec.stream(t).rng()
        q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        phase = np.diagonal(r) / np.abs(np.diagonal(r))
        np.testing.assert_array_equal(stack[t], q * phase)


def test_stacked_density_rows_bit_identical_to_per_stream_draws():
    spec = RandomSpec(6, 70)
    stack = random_densities(4, (spec.stream(t).rng() for t in range(20)))
    for t in range(20):
        alone = random_density_from(4, spec.stream(t).rng())
        np.testing.assert_array_equal(stack[t], alone)
