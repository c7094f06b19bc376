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
"""

from __future__ import annotations

import dataclasses

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


def _complex_gaussian(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


def haar_unitary_from(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Gaussian matrix with the
    phase-of-diagonal correction."""
    q, r = np.linalg.qr(_complex_gaussian(n, n, rng))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_hermitian_from(n: int, rng: np.random.Generator) -> np.ndarray:
    """GUE-like sample (G + G*)/2 with G complex standard Gaussian."""
    g = _complex_gaussian(n, n, rng)
    return 0.5 * (g + g.conj().T)


def random_in_window_from(
    n: int, window: SpectrumWindow, rng: np.random.Generator
) -> np.ndarray:
    """U diag(lambda) U* with lambda uniform on the 5%-shrunk window and U Haar."""
    if not window.is_bounded:
        raise UnboundedWindowError(
            "random_in_window needs a bounded window; pass a compact sub-window"
        )
    inner = window.shrunk(WINDOW_MARGIN)
    lam = rng.uniform(inner.a, inner.b, size=n)
    u = haar_unitary_from(n, rng)
    return (u * lam) @ u.conj().T


def random_direction_from(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random Hermitian matrix normalized to unit operator norm."""
    q = random_hermitian_from(n, rng)
    return q / op_norm(q)


def random_density_from(n: int, rng: np.random.Generator) -> np.ndarray:
    """Hilbert-Schmidt ensemble: G G* / Tr(G G*), G complex Gaussian."""
    g = _complex_gaussian(n, n, rng)
    w = g @ g.conj().T
    return w / np.trace(w).real


def random_pure_density(n: int, spec: RandomSpec) -> np.ndarray:
    """Rank-one projector onto a Haar-random unit vector."""
    rng = spec.rng()
    v = _complex_gaussian(n, 1, rng)[:, 0]
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def random_simplex(k: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform probability vector on the k-simplex."""
    e = rng.exponential(size=k)
    return e / e.sum()
