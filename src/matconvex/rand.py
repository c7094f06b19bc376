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

Samplers take a ``np.random.Generator`` (``x_from(n, spec.rng())``), so one
stream can feed several draws in a fixed order.

Stacked samplers (``haar_unitaries``, ``random_densities``, ``*_rows``) draw
row t from the t-th generator as the ``_from`` form would, then run one QR or
product for the stack; the ``_from`` form is the unstacked case, equal to a row
bit for bit.  Generators are independent, so a trial stack that draws A, then Q
makes one pass over its generators per input.  A Monte Carlo average has no
per-sample witness and owns one stream (``haar_unitaries_from``).
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Sequence

import numpy as np

from .errors import UnboundedWindowError
from .linalg import SpectrumWindow, op_norm

#: Margin fraction kept clear of each window edge when sampling spectra.
WINDOW_MARGIN = 0.05

#: Stream ids per block; a battery that splits its work into parts hands
#: part k the block starting at ``k * STREAM_BLOCK``.
STREAM_BLOCK = 1_000_000


@dataclasses.dataclass(frozen=True)
class RandomSpec:
    """Seed plus stream identifier; identical pairs reproduce draws bit-exactly."""

    seed: int
    stream_id: int = 0

    def rng(self) -> np.random.Generator:
        return np.random.Generator(
            np.random.PCG64(np.random.SeedSequence((self.seed, self.stream_id)))
        )

    def stream(self, offset: int) -> "RandomSpec":
        """The stream ``offset`` ids past this one (ids nest, see module doc)."""
        return RandomSpec(self.seed, self.stream_id + offset)


def _complex_gaussian(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _stacked_draws(n: int, rngs: Iterable[np.random.Generator]) -> np.ndarray:
    # a list, not np.fromiter: filling a (n, n) subarray dtype item by item
    # costs about 1 ms per row at n = 128, where a chunk is one row
    return np.array([_complex_gaussian((n, n), rng) for rng in rngs]).reshape(-1, n, n)


def _haar(g: np.ndarray) -> np.ndarray:
    """QR of complex Gaussian matrices with the phase-of-diagonal correction."""
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def haar_unitaries(n: int, rngs: Iterable[np.random.Generator]) -> np.ndarray:
    """Haar unitaries, row t from the t-th generator."""
    return _haar(_stacked_draws(n, rngs))


def haar_unitary_from(n: int, rng: np.random.Generator) -> np.ndarray:
    """One Haar-distributed unitary (the unstacked :func:`haar_unitaries`)."""
    return _haar(_complex_gaussian((n, n), rng))


def haar_unitaries_from(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` Haar unitaries from one generator: the real parts of every
    sample, then the imaginary parts, then one QR."""
    return _haar(_complex_gaussian((count, n, n), rng))


def random_hermitian_rows(n: int, rngs: Iterable[np.random.Generator]) -> np.ndarray:
    """Row t is ``random_hermitian_from(n, rngs[t])``."""
    g = _stacked_draws(n, rngs)
    return 0.5 * (g + g.conj().swapaxes(-1, -2))


def random_hermitian_from(n: int, rng: np.random.Generator) -> np.ndarray:
    """GUE-like sample (G + G*)/2 with G complex standard Gaussian."""
    return random_hermitian_rows(n, (rng,))[0]


def random_in_window_rows(
    n: int, window: SpectrumWindow, rngs: Sequence[np.random.Generator]
) -> np.ndarray:
    """Row t is ``random_in_window_from(n, window, rngs[t])``: each generator
    draws its spectrum, then its unitary; one QR and one product for the stack."""
    if not window.is_bounded:
        raise UnboundedWindowError(
            "random_in_window needs a bounded window; pass a compact sub-window"
        )
    inner = window.shrunk(WINDOW_MARGIN)
    lam = np.array([rng.uniform(inner.a, inner.b, size=n) for rng in rngs])
    u = haar_unitaries(n, rngs)
    return (u * lam[:, None, :]) @ u.conj().swapaxes(-1, -2)


def random_in_window_from(
    n: int, window: SpectrumWindow, rng: np.random.Generator
) -> np.ndarray:
    """U diag(lambda) U* with lambda uniform on the 5%-shrunk window and U Haar."""
    return random_in_window_rows(n, window, (rng,))[0]


def random_direction_rows(n: int, rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """Row t is ``random_direction_from(n, rngs[t])``."""
    q = random_hermitian_rows(n, rngs)
    return q / op_norm(q)[:, None, None]


def random_direction_from(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random Hermitian matrix normalized to unit operator norm."""
    return random_direction_rows(n, (rng,))[0]


def _hilbert_schmidt(g: np.ndarray) -> np.ndarray:
    """G G* / Tr(G G*) for complex Gaussian G, row by row over a stack."""
    w = g @ g.conj().swapaxes(-1, -2)
    w /= np.trace(w, axis1=-2, axis2=-1).real[..., None, None]
    return w


def random_densities(n: int, rngs: Iterable[np.random.Generator]) -> np.ndarray:
    """Hilbert-Schmidt ensemble, row t from the t-th generator."""
    return _hilbert_schmidt(_stacked_draws(n, rngs))


def random_density_from(n: int, rng: np.random.Generator) -> np.ndarray:
    """One Hilbert-Schmidt density matrix (the unstacked :func:`random_densities`)."""
    return _hilbert_schmidt(_complex_gaussian((n, n), rng))


def random_pure_density(n: int, spec: RandomSpec) -> np.ndarray:
    """Rank-one projector onto a Haar-random unit vector."""
    rng = spec.rng()
    v = _complex_gaussian((n, 1), rng)[:, 0]
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def random_simplex(k: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform probability vector on the k-simplex."""
    e = rng.exponential(size=k)
    return e / e.sum()
