import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from matconvex.errors import UnboundedWindowError
from matconvex.linalg import SpectrumWindow
from matconvex.rand import (
    RandomSpec,
    _stacked_draws,
    haar_unitaries,
    haar_unitaries_from,
    random_densities,
    random_direction_rows,
    random_hermitian_rows,
    random_in_window_factors,
    random_in_window_rows,
    random_simplex,
    uniform_range,
    uniform_rows,
)


def test_same_spec_same_draw():
    a = random_hermitian_rows(5, [RandomSpec(42, 3).rng()])
    b = random_hermitian_rows(5, [RandomSpec(42, 3).rng()])
    np.testing.assert_array_equal(a, b)


def test_different_streams_differ():
    a, b = random_hermitian_rows(5, RandomSpec(42).rngs([0, 1]))
    assert np.linalg.norm(a - b) > 1e-3


def test_stream_helper():
    spec = RandomSpec(7)
    assert spec.stream(9) == RandomSpec(7, 9)
    # stream ids nest: an offset stream of an offset stream adds up
    assert RandomSpec(7, 5).stream(3) == RandomSpec(7, 8)


def test_haar_unitary_is_unitary():
    (u,) = haar_unitaries(6, [RandomSpec(0).rng()])
    np.testing.assert_allclose(u @ u.conj().T, np.eye(6), atol=1e-12)


def test_random_in_window_spectrum_confined():
    window = SpectrumWindow(1.0, 3.0)
    for t in range(20):
        (m,) = random_in_window_rows(4, window, [RandomSpec(1, t).rng()])
        eigs = np.linalg.eigvalsh(m)
        assert eigs.min() > 1.0 and eigs.max() < 3.0
        # the 5% sampling margin keeps spectra clear of the edges
        assert eigs.min() > 1.0 + 0.05 * 2.0 - 1e-12


def test_random_in_window_rejects_unbounded():
    with pytest.raises(UnboundedWindowError):
        random_in_window_rows(3, SpectrumWindow(0.0, np.inf), [RandomSpec(0).rng()])


def test_random_direction_unit_norm():
    (q,) = random_direction_rows(4, [RandomSpec(3).rng()])
    assert np.max(np.abs(np.linalg.eigvalsh(q))) == pytest.approx(1.0)


def test_random_density_valid():
    (rho,) = random_densities(5, [RandomSpec(9).rng()])
    assert np.trace(rho).real == pytest.approx(1.0)
    assert np.linalg.eigvalsh(rho).min() >= 0.0


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
        (alone,) = haar_unitaries(n, [spec.stream(t).rng()])
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
        (alone,) = random_densities(4, [spec.stream(t).rng()])
        np.testing.assert_array_equal(stack[t], alone)
        # the 2-D formula a loop over streams would run
        rng = spec.stream(t).rng()
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        w = g @ g.conj().T
        np.testing.assert_array_equal(stack[t], w / np.trace(w).real)


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_stacked_window_and_direction_rows_bit_identical_to_per_stream_draws(n):
    # one pass per input over the same generators keeps each one's draw order
    spec, window = RandomSpec(8, 90), SpectrumWindow(0.1, 5.0)
    rngs = [spec.stream(t).rng() for t in range(25)]
    a, q = random_in_window_rows(n, window, rngs), random_direction_rows(n, rngs)
    assert a.shape == q.shape == (25, n, n)
    for t in range(25):
        rngs = [spec.stream(t).rng()]
        np.testing.assert_array_equal(a[t], random_in_window_rows(n, window, rngs)[0])
        np.testing.assert_array_equal(q[t], random_direction_rows(n, rngs)[0])
        # the 2-D formulas a loop over streams would run: spectrum, then unitary
        rng = spec.stream(t).rng()
        inner = window.shrunk()
        lam = rng.uniform(inner.a, inner.b, size=n)
        (u,) = haar_unitaries(n, [rng])
        np.testing.assert_array_equal(a[t], (u * lam) @ u.conj().T)


def test_haar_unitaries_from_one_generator():
    u = haar_unitaries_from(3, 50, RandomSpec(9).rng())
    rng = RandomSpec(9).rng()
    g = rng.standard_normal((50, 3, 3)) + 1j * rng.standard_normal((50, 3, 3))
    for s in (0, 49):
        q, r = np.linalg.qr(g[s])
        np.testing.assert_array_equal(u[s], q * (np.diagonal(r) / np.abs(np.diagonal(r))))
    np.testing.assert_allclose(u @ u.conj().swapaxes(1, 2), np.broadcast_to(np.eye(3), u.shape),
                               atol=1e-12)


def _numpy_generator(seed: int, stream_id: int) -> np.random.Generator:
    """The construction the reproducibility contract names."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, stream_id))))


def _any_word_count(bits: int):
    """Integers below ``2**bits`` of every uint32 word count, often next to a
    word boundary (2**32, 2**64)."""
    return st.one_of(st.integers(0, 2**bits - 1),
                     *(st.integers(2**k - 4, 2**k + 4) for k in range(32, bits, 32)))


@settings(max_examples=100, deadline=None)
@given(seed=_any_word_count(70), base=_any_word_count(34),
       offsets=st.lists(_any_word_count(33), max_size=6))
def test_batched_streams_match_numpy_seed_sequence(seed, base, offsets):
    # seeds, ids and offsets all cross 2^32, so an entropy array may hold one
    # word more or less than its neighbour in the batch
    gens = RandomSpec(seed, base).rngs(offsets)
    assert len(gens) == len(offsets)
    for offset, rng in zip(offsets, gens):
        ref = _numpy_generator(seed, base + offset)
        assert rng.bit_generator.state == ref.bit_generator.state
        np.testing.assert_array_equal(rng.standard_normal(3), ref.standard_normal(3))
        assert rng.integers(0, 2**63) == ref.integers(0, 2**63)


def test_batched_streams_cover_word_count_boundaries():
    for seed in (0, 2**32 - 1, 2**32, 2**64, 2**96 + 5):
        spec = RandomSpec(seed, 2**32 - 2)
        offsets = [0, 1, 2, 3, 2**32 + 2, 2**33, 5]  # ids of 1, 2 and 2 words, mixed
        for offset, rng in zip(offsets, spec.rngs(offsets)):
            ref = _numpy_generator(seed, spec.stream_id + offset)
            assert rng.bit_generator.state == ref.bit_generator.state
    # an id beyond int64, reached from a large base
    rng = RandomSpec(3, 2**70).rngs([1])[0]
    assert rng.bit_generator.state == _numpy_generator(3, 2**70 + 1).bit_generator.state


def test_rng_is_the_batch_of_one():
    spec = RandomSpec(42, 7)
    assert spec.rng().bit_generator.state == spec.rngs([0])[0].bit_generator.state
    assert spec.rng().bit_generator.state == _numpy_generator(42, 7).bit_generator.state


def test_empty_batch():
    assert RandomSpec(1, 5).rngs([]) == []
    assert RandomSpec(1, 5).seed_words(range(0)).shape == (0, 4)


@pytest.mark.parametrize("spec, offsets", [
    (RandomSpec(-1), [0]),
    (RandomSpec(-1), []),
    (RandomSpec(0, -1), [0]),
    (RandomSpec(0, 3), [0, -4]),  # the batch reaches id -1
])
def test_negative_seed_or_stream_id_is_rejected_like_numpy(spec, offsets):
    with pytest.raises(ValueError, match="expected non-negative integer"):
        spec.rngs(offsets)
    if offsets == [0]:
        with pytest.raises(ValueError, match="expected non-negative integer"):
            spec.rng()


@pytest.mark.parametrize("n", [1, 2, 4])
def test_stacked_draws_fill_each_row_from_its_generator(n):
    spec = RandomSpec(12, 300)
    stack = _stacked_draws(n, spec.rngs(range(9)))
    assert stack.shape == (9, n, n) and stack.dtype == complex
    for t, rng in enumerate(spec.rngs(range(9))):
        np.testing.assert_array_equal(
            stack[t], rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    assert _stacked_draws(n, []).shape == (0, n, n)


@pytest.mark.parametrize("n", [1, 3])
def test_window_samplers_take_an_empty_stack(n):
    window = SpectrumWindow(0.1, 5.0)
    lam, u = random_in_window_factors(n, window, [])
    assert lam.shape == (0, n) and u.shape == (0, n, n)
    assert random_in_window_rows(n, window, []).shape == (0, n, n)
    assert uniform_rows(0.0, 1.0, [], n).shape == (0, n)
    assert uniform_rows(0.0, 1.0, []).shape == (0,)


@pytest.mark.parametrize("low, high", [
    (0.05, 0.95), (0.1, 5.0), (1e-9, 3e-9), (-7.5, -2.25), (-1e6, 1e6), (-1e300, 1e300),
])
@pytest.mark.parametrize("size", [(), 1, 4, (2, 3)])
def test_uniform_rows_are_numpy_uniform_draws(low, high, size):
    spec = RandomSpec(17, 500)
    rows = uniform_rows(low, high, spec.rngs(range(12)), size)
    shape = (size,) if isinstance(size, int) else size
    assert rows.shape == (12, *shape) and rows.dtype == float
    for t, rng in enumerate(spec.rngs(range(12))):
        expect = rng.uniform(low, high, size=None if size == () else size)
        np.testing.assert_array_equal(rows[t], expect)


def test_uniform_rows_take_a_range_per_row():
    # Lieb's exponents: p on (0.2, 0.8), then r on (0.05, 1 - p) per row
    spec = RandomSpec(23, 40)
    rngs = spec.rngs(range(30))
    p = uniform_rows(0.2, 0.8, rngs)
    r = uniform_rows(0.05, 1.0 - p, rngs)
    lam = uniform_rows(np.linspace(-3.0, 1.0, 30), np.linspace(-1.0, 9.0, 30), rngs, 3)
    for t, rng in enumerate(spec.rngs(range(30))):
        pt = rng.uniform(0.2, 0.8)
        assert p[t] == pt and r[t] == rng.uniform(0.05, 1.0 - pt)
        lo, hi = np.linspace(-3.0, 1.0, 30)[t], np.linspace(-1.0, 9.0, 30)[t]
        np.testing.assert_array_equal(lam[t], rng.uniform(lo, hi, size=3))


def test_uniform_rows_leave_each_generator_where_uniform_would():
    spec = RandomSpec(29, 7)
    rngs = spec.rngs(range(5))
    uniform_rows(0.1, 5.0, rngs, 3)
    uniform_rows(0.05, 0.95, rngs)
    for rng, ref in zip(rngs, spec.rngs(range(5))):
        ref.uniform(0.1, 5.0, size=3)
        ref.uniform(0.05, 0.95)
        assert rng.bit_generator.state == ref.bit_generator.state
        # later draws of every kind stay aligned
        np.testing.assert_array_equal(rng.standard_normal(4), ref.standard_normal(4))
        assert rng.integers(0, 4) == ref.integers(0, 4)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("low, high", [
    (0.0, np.inf), (-np.inf, 0.0), (np.nan, 1.0), (0.0, np.nan), (-1e308, 1e308), (1.0, 0.0),
])
def test_a_bad_range_raises_as_numpy_does(low, high):
    with pytest.raises((OverflowError, ValueError)) as numpy_error:
        np.random.default_rng(0).uniform(low, high)
    rngs = RandomSpec(3).rngs(range(2))
    for call in (lambda: uniform_rows(low, high, rngs),
                 lambda: uniform_rows(np.full(2, low), np.full(2, high), rngs, 2),
                 lambda: uniform_range(low, high)):
        with pytest.raises(numpy_error.type, match=str(numpy_error.value)):
            call()
    # a row whose range alone is bad fails the stack, as its lone call would
    with pytest.raises(numpy_error.type):
        uniform_rows(np.array([0.0, low]), np.array([1.0, high]), rngs)
    # no generator moved
    for rng, ref in zip(rngs, RandomSpec(3).rngs(range(2))):
        assert rng.bit_generator.state == ref.bit_generator.state


def test_lone_draws_map_random_as_uniform_does():
    low, span = uniform_range(0.0, 2.0 * np.pi)
    rng, ref = RandomSpec(5).rng(), RandomSpec(5).rng()
    np.testing.assert_array_equal(low + span * rng.random((7, 3)),
                                  ref.uniform(0.0, 2.0 * np.pi, size=(7, 3)))
