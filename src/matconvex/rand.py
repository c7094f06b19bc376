"""Seedable random ensembles: GUE-like Hermitian matrices, spectra confined to
a window, Haar unitaries, unit directions, and random density operators.

Reproducibility contract: every draw is a pure function of a
:class:`RandomSpec`, and streams split by ``stream_id`` never share generator
state, so parallel trial loops are bit-stable.  Stream ids nest:
``RandomSpec(seed, s).stream(i)`` is ``RandomSpec(seed, s + i)``, so a caller
that hands ``spec.stream(k * STREAM_BLOCK)`` to the k-th part of its work
keeps every part, and every helper that part calls with a sub-stream, inside
its own block of ``STREAM_BLOCK`` ids.  A reported ``stream_id`` is always the
absolute id: ``RandomSpec(seed, stream_id).rng()`` regenerates that draw.

A batch of generators is made by :meth:`RandomSpec.rngs`, which seeds its
streams with one vectorized pass of numpy's ``SeedSequence`` entropy hash
(O'Neill's ``seed_seq``, fixed as a stable stream by NEP 19); a lone one, by
:meth:`RandomSpec.rng` through numpy's ``SeedSequence`` itself, which costs
less for one row than a batch's fixed numpy calls.  Either way stream
``stream(o)`` gets ``Generator(PCG64(SeedSequence((seed, stream_id + o))))``
bit for bit, so every stored witness and report replays unchanged.

Samplers (``haar_unitaries``, ``random_densities``, ``*_rows``) take a
sequence of generators and draw row t from the t-th, straight into one stack
buffer, then run one QR or product for the stack; a lone draw is the stack of
one, ``random_in_window_rows(n, window, [spec.rng()])[0]``.  A windowed sample
is made from its spectral factors, and ``random_in_window_factors`` returns
them, so the matrix can travel with (lambda, U) and never be diagonalized
again; ``random_in_window_rows`` is their product.  One generator can
feed several draws in a fixed order, and generators are independent, so a
trial stack that draws A, then Q makes one pass over its generators per input.
A Monte Carlo average has no per-sample witness and owns one stream
(``haar_unitaries_from``); ``random_simplex`` draws one weight vector from one
generator.

Draw contract: a sampler makes one generator call per distribution per row.
A complex Gaussian row G + iH is one ``standard_normal`` call that fills G,
then H, as two calls would.  A uniform is never drawn by
``Generator.uniform``: :func:`uniform_rows` fills each row with one
``Generator.random`` call and maps the stack once by numpy's own
``low + (high - low) * u``, which is bit for bit what ``uniform`` returns and
leaves each generator where ``uniform`` would; a lone generator maps its
``random`` draws the same way, with the range checked by
:func:`uniform_range`.
"""

from __future__ import annotations

import dataclasses
import math
import operator
from typing import Iterable, Sequence

import numpy as np

from .errors import UnboundedWindowError
from .linalg import SpectrumWindow, from_spectrum, op_norm

#: Stream ids per block; a battery that splits its work into parts hands
#: part k the block starting at ``k * STREAM_BLOCK``.
STREAM_BLOCK = 1_000_000

# numpy's SeedSequence hash: a pool of 4 uint32 words and the hashmix and mix
# constants; every step ends with a xor-shift by 16 bits.
_POOL = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


@dataclasses.dataclass(frozen=True)
class RandomSpec:
    """Seed plus stream identifier; identical pairs reproduce draws bit-exactly."""

    seed: int
    stream_id: int = 0

    def rng(self) -> np.random.Generator:
        """The generator of this stream, ``rngs((0,))[0]``, built by numpy's
        own ``SeedSequence``: one row costs less that way than a batch."""
        return np.random.Generator(np.random.PCG64(
            np.random.SeedSequence((operator.index(self.seed), operator.index(self.stream_id)))))

    def rngs(self, offsets: Iterable[int]) -> list[np.random.Generator]:
        """The generators of streams ``stream(o)``, o in ``offsets``, in order."""
        return generators(self.seed_words(offsets))

    def seed_words(self, offsets: Iterable[int]) -> np.ndarray:
        """``SeedSequence((seed, stream_id + o)).generate_state(4, np.uint64)``
        as row t of a ``(T, 4)`` array, o the t-th offset: one hash per batch.

        Raises ValueError for a negative seed or stream id, as numpy does.
        """
        seed, base = operator.index(self.seed), operator.index(self.stream_id)
        offsets = np.asarray(offsets, dtype=np.int64).reshape(-1)
        if seed < 0 or base + int(offsets.min(initial=0)) < 0:
            raise ValueError("expected non-negative integer")
        seed_row = _uint32_words(seed, np.zeros(1, dtype=np.int64))[0]
        ids = _uint32_words(base, offsets)
        # numpy drops an id's leading zero words, so each row has its own length
        lengths = len(seed_row) + np.max(
            np.where(ids != 0, np.arange(1, ids.shape[1] + 1), 1), axis=1)
        seed_rows = np.broadcast_to(seed_row, (len(ids), len(seed_row)))
        return _seed_sequence_state(np.concatenate([seed_rows, ids], axis=1), lengths)

    def stream(self, offset: int) -> "RandomSpec":
        """The stream ``offset`` ids past this one (ids nest, see module doc)."""
        return RandomSpec(self.seed, self.stream_id + offset)


def _uint32_words(base: int, offsets: np.ndarray) -> np.ndarray:
    """Row t holds the uint32 words of ``base + offsets[t]`` (non-negative),
    least significant first, zero-padded to the word count of the largest.
    ``base`` may be any int; the int64 offsets are carried word by word."""
    top = base + int(offsets.max(initial=0))
    words = np.empty((len(offsets), max(1, -(-top.bit_length() // 32))), dtype=np.uint32)
    carry = offsets
    for k in range(words.shape[1]):
        low = (base & _MASK32) + carry
        words[:, k] = low & _MASK32
        carry, base = low >> 32, base >> 32
    return words


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """The running hash constant before and after each of ``count`` steps."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint32)


def _seed_sequence_state(entropy: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``SeedSequence(e).generate_state(4, np.uint64)`` for each row e of a
    zero-padded ``(T, L)`` uint32 entropy array, row t holding ``lengths[t]``
    words, in uint32 arithmetic (wrapping as C does).

    Each hashmix step k xors the value with constant k, multiplies it by
    constant k + 1 and xor-shifts it; the steps run in numpy's order, a pool
    word's updates against every other word at once.  Padding inside the
    pool is what numpy pads with; a word beyond it is mixed in only where
    the row reaches it, and comes after every other step.
    """
    width = entropy.shape[1]
    a = _hash_constants(_INIT_A, _MULT_A, _POOL * _POOL + _POOL * max(0, width - _POOL))
    step = 0

    def hashmix(values: np.ndarray, count: int) -> np.ndarray:
        nonlocal step
        out = (values ^ a[step:step + count]) * a[step + 1:step + count + 1]
        step += count
        return out ^ (out >> 16)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        out = _MIX_L * x - _MIX_R * y
        return out ^ (out >> 16)

    pool = np.zeros((len(entropy), _POOL), dtype=np.uint32)
    pool[:, :width] = entropy[:, :_POOL]
    pool = hashmix(pool, _POOL)
    for src in range(_POOL):  # late words reach early ones
        dst = [d for d in range(_POOL) if d != src]
        pool[:, dst] = mix(pool[:, dst], hashmix(pool[:, src, None], _POOL - 1))
    for src in range(_POOL, width):  # entropy beyond the pool
        mixed = mix(pool, hashmix(entropy[:, src, None], _POOL))
        pool = np.where((lengths > src)[:, None], mixed, pool)
    b = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL)
    words = (np.concatenate([pool, pool], axis=1) ^ b[:-1]) * b[1:]
    words ^= words >> 16
    return words.astype("<u4").view("<u8").astype(np.uint64)


class _SeedWords:
    """Hands PCG64 the seed words :meth:`RandomSpec.seed_words` computed; PCG64
    asks for 4 uint64 words once, at construction."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def generators(words: np.ndarray) -> list[np.random.Generator]:
    """``Generator(PCG64)`` per row of a :meth:`RandomSpec.seed_words` array."""
    # registered here, not at import, so that importing matconvex does not load
    # numpy.random; registering again is a no-op
    np.random.bit_generator.ISeedSequence.register(_SeedWords)
    return [np.random.Generator(np.random.PCG64(_SeedWords(w))) for w in words]


def _stacked_draws(n: int, rngs: Iterable[np.random.Generator]) -> np.ndarray:
    """Complex Gaussian G + iH, row t from ``rngs[t]``: one ``standard_normal``
    call fills G, then H, in place."""
    rngs = list(rngs)
    buf = np.empty((len(rngs), 2, n, n))
    for rng, row in zip(rngs, buf):
        rng.standard_normal(out=row)
    return buf[:, 0] + 1j * buf[:, 1]


def uniform_range(low, high) -> tuple[np.ndarray, np.ndarray]:
    """``(low, high - low)`` as float arrays, checked as ``Generator.uniform``
    checks them: OverflowError for a range that is not finite, ValueError for
    a negative one.  ``low + span * rng.random(size)`` is then that draw."""
    low = np.asarray(low, dtype=float)
    span = np.subtract(high, low, dtype=float)
    if not np.all(np.isfinite(span)):
        raise OverflowError("high - low range exceeds valid bounds")
    if np.any(span < 0.0):
        raise ValueError("high - low < 0")
    return low, span


def uniform_rows(low, high, rngs: Sequence[np.random.Generator], size=()) -> np.ndarray:
    """Row t is ``rngs[t].uniform(low[t], high[t], size)`` bit for bit, shaped
    ``(T, *size)``: one ``random`` call per row, then numpy's map
    low + (high - low) * u once for the stack.  ``low`` and ``high`` are
    scalars or ``(T,)`` arrays; the range is checked (:func:`uniform_range`)
    before any generator moves."""
    low, span = uniform_range(low, high)
    size = tuple(size) if np.iterable(size) else (operator.index(size),)
    u = np.empty((len(rngs), math.prod(size)))
    for rng, row in zip(rngs, u):
        rng.random(out=row)
    lift = (1,) * len(size)
    return low.reshape(low.shape + lift) + span.reshape(span.shape + lift) * u.reshape(
        len(rngs), *size)


def _haar(g: np.ndarray) -> np.ndarray:
    """QR of complex Gaussian matrices with the phase-of-diagonal correction."""
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def haar_unitaries(n: int, rngs: Iterable[np.random.Generator]) -> np.ndarray:
    """Haar unitaries, row t from the t-th generator."""
    return _haar(_stacked_draws(n, rngs))


def haar_unitaries_from(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` Haar unitaries from one generator: the real parts of every
    sample, then the imaginary parts, then one QR."""
    shape = (count, n, n)
    return _haar(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def random_hermitian_rows(n: int, rngs: Iterable[np.random.Generator]) -> np.ndarray:
    """GUE-like samples (G + G*)/2 with G complex standard Gaussian, row t
    from the t-th generator."""
    g = _stacked_draws(n, rngs)
    return 0.5 * (g + g.conj().swapaxes(-1, -2))


def random_in_window_factors(
    n: int, window: SpectrumWindow, rngs: Sequence[np.random.Generator]
) -> tuple[np.ndarray, np.ndarray]:
    """The spectral factors ``(lambda, U)`` of a stack of sampled matrices:
    lambda ``(T, n)`` uniform on the 5%-shrunk window and U ``(T, n, n)`` Haar,
    row t from the t-th generator.  Each draws its spectrum, then its
    unitary; one QR for the stack."""
    if not window.is_bounded:
        raise UnboundedWindowError(
            "random_in_window needs a bounded window; pass a compact sub-window"
        )
    inner = window.shrunk()
    return uniform_rows(inner.a, inner.b, rngs, n), haar_unitaries(n, rngs)


def random_in_window_rows(
    n: int, window: SpectrumWindow, rngs: Sequence[np.random.Generator]
) -> np.ndarray:
    """U diag(lambda) U*, the product of :func:`random_in_window_factors`,
    row t from the t-th generator: one product for the stack."""
    return from_spectrum(*random_in_window_factors(n, window, rngs))


def random_direction_rows(n: int, rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """Random Hermitian matrices normalized to unit operator norm, row t from
    the t-th generator."""
    q = random_hermitian_rows(n, rngs)
    return q / op_norm(q)[:, None, None]


def random_densities(n: int, rngs: Iterable[np.random.Generator]) -> np.ndarray:
    """Hilbert-Schmidt ensemble G G* / Tr(G G*), G complex Gaussian, row t
    from the t-th generator."""
    g = _stacked_draws(n, rngs)
    w = g @ g.conj().swapaxes(-1, -2)
    w /= np.trace(w, axis1=-2, axis2=-1).real[..., None, None]
    return w


def random_simplex(k: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform probability vector on the k-simplex."""
    e = rng.exponential(size=k)
    return e / e.sum()
