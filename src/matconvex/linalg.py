"""Hermitian linear-algebra substrate.

All matrices are finite-dimensional, complex, and self-adjoint.  The working
currency throughout the library is a plain ``numpy.ndarray`` that has passed
through :func:`hermitian`, which validates and exactly symmetrizes its input.
Matrix functions are evaluated on a spectral decomposition, so degenerate
eigenvalues need no special handling; they take a ``(T, n, n)`` stack as well
as one matrix, and an error on a stack names the row it came from.  A sampled
matrix travels with its spectral factors (w, U), from which
:func:`spectral_function` evaluates f without diagonalizing it again;
:func:`apply_function` is that core after one ``eigh`` of a matrix that came
without them.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable

import numpy as np

from .errors import (
    DimensionMismatchError,
    DomainViolationError,
    HermiticityError,
)

#: Maximum allowed asymmetry at construction.
HERMITICITY_TOL = 1e-12


@dataclasses.dataclass(frozen=True)
class SpectrumWindow:
    """Open interval (a, b) of admissible spectra; either end may be infinite."""

    a: float
    b: float

    def __post_init__(self):
        if not self.a < self.b:
            raise ValueError(f"window requires a < b, got ({self.a}, {self.b})")

    @property
    def is_bounded(self) -> bool:
        return math.isfinite(self.a) and math.isfinite(self.b)

    def contains(self, x):
        """a < x < b; entrywise for an array (NaN is never contained)."""
        return (self.a < x) & (x < self.b)

    def check_spectrum(self, eigenvalues: np.ndarray, source: str = "matrix") -> None:
        """Raise DomainViolationError naming the first eigenvalue (in row order
        over a stack of spectra) that escapes the window; NaN escapes too."""
        w = np.asarray(eigenvalues, dtype=float)
        _raise_first(~self.contains(w), w, source,
                     f"outside window ({self.a}, {self.b})")

    def shrunk(self, fraction: float = 0.05) -> "SpectrumWindow":
        """Compact sub-window with a margin of ``fraction * (b - a)`` per side."""
        if not self.is_bounded:
            raise ValueError("cannot shrink an unbounded window")
        delta = fraction * (self.b - self.a)
        return SpectrumWindow(self.a + delta, self.b - delta)


def _raise_first(bad: np.ndarray, w: np.ndarray, source: str, what: str) -> None:
    """DomainViolationError for the first flagged eigenvalue of ``w``, if any."""
    if bad.any():
        k = int(np.argmax(bad.ravel()))
        lam = float(w.ravel()[k])
        row = f" row {k // w.shape[-1]}" if w.ndim > 1 else ""
        raise DomainViolationError(f"eigenvalue {lam} of {source}{row} {what}",
                                   eigenvalue=lam, source=source)


def _dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose, row by row over a leading stack axis."""
    return m.conj().swapaxes(-1, -2)


def _trace(m: np.ndarray) -> np.ndarray:
    """Trace of a matrix, or of each matrix of a stack."""
    return np.trace(m, axis1=-2, axis2=-1)


def _float_or_rows(x):
    """A 0-d result as a float; a stack's ``(T,)`` array as it is."""
    return float(x) if np.ndim(x) == 0 else x


def check_hermitian(h: np.ndarray) -> None:
    """Raise unless ``h`` is a finite square matrix with asymmetry at most
    ``HERMITICITY_TOL * (1 + max|entry|)``.  A ``(T, n, n)`` stack is checked
    row by row and the first failing row is named.  Never modifies ``h``."""
    if h.ndim not in (2, 3) or h.shape[-2] != h.shape[-1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {h.shape}")
    if h.shape[-1] < 1:
        raise DimensionMismatchError("dimension must be >= 1")
    rows = h.reshape(-1, *h.shape[-2:])
    t = rows.swapaxes(1, 2)  # |h - h*| entrywise, without a complex temporary
    with np.errstate(invalid="ignore"):  # inf - inf: any non-finite entry gives NaN or inf
        asym = np.hypot(rows.real - t.real, rows.imag + t.imag)
    if asym.max() <= HERMITICITY_TOL:  # finite, and within the bound since scale >= 1
        return
    scale = 1.0 + np.max(np.abs(rows), axis=(1, 2))  # NaN or inf iff an entry is
    asym = np.max(asym, axis=(1, 2))
    bad = ~np.isfinite(scale) | (asym > HERMITICITY_TOL * scale)
    if np.any(bad):
        k = int(np.argmax(bad))
        raise HermiticityError((f"row {k}: " if h.ndim == 3 else "") + (
            "matrix has non-finite entries" if not np.isfinite(scale[k]) else
            f"matrix asymmetry {asym[k]:.3e} exceeds tolerance "
            f"{HERMITICITY_TOL * scale[k]:.3e}"))


def hermitian(entries) -> np.ndarray:
    """Validate and exactly symmetrize a square complex matrix.

    Non-finite entries or asymmetry beyond ``HERMITICITY_TOL * (1 + max|entry|)``
    are construction errors (see :func:`check_hermitian`); the returned array
    is (H + H*)/2 so later formula chains cannot drift.
    """
    h = np.asarray(entries, dtype=complex)
    check_hermitian(h)
    return 0.5 * (h + h.conj().T)


def entrywise(f: Callable, x: np.ndarray) -> np.ndarray:
    """``f`` at every entry of the float array ``x``: one array call when ``f``
    declares itself ``vectorized`` (a ScalarFunction with a numpy form), one
    scalar call per entry otherwise."""
    x = np.asarray(x, dtype=float)
    if getattr(f, "vectorized", False):
        return np.asarray(f(x), dtype=float)
    return np.array([f(float(v)) for v in x.ravel()], dtype=float).reshape(x.shape)


def from_spectrum(w: np.ndarray, u: np.ndarray) -> np.ndarray:
    """U diag(w) U*, row by row over a stack of spectra and eigenvector bases."""
    return (u * w[..., None, :]) @ _dagger(u)


def spectral_function(
    w: np.ndarray,
    u: np.ndarray,
    f: Callable[[float], float],
    domain: SpectrumWindow | None = None,
    source: str = "matrix",
) -> np.ndarray:
    """The matrix function U diag(f(w)) U* of the matrix with spectrum ``w``
    and orthonormal eigenvectors ``u`` (columns), row by row over a stack,
    with ``f`` evaluated through :func:`entrywise`.

    When ``domain`` is given, every eigenvalue must lie inside it; an escape,
    or a non-finite value of f, raises :class:`DomainViolationError` carrying
    the offending eigenvalue and the source (and row) it came from.
    """
    if domain is not None:
        domain.check_spectrum(w, source=source)
    fw = entrywise(f, w)
    _raise_first(~np.isfinite(fw), w, source, "gives a non-finite function value")
    return from_spectrum(fw, u)


def apply_function(
    h: np.ndarray,
    f: Callable[[float], float],
    domain: SpectrumWindow | None = None,
    source: str = "matrix",
) -> np.ndarray:
    """:func:`spectral_function` of a Hermitian matrix or ``(T, n, n)`` stack,
    through its eigendecomposition."""
    return spectral_function(*np.linalg.eigh(h), f, domain, source)


def frobenius(x: np.ndarray):
    """Frobenius norm of a matrix; a ``(T,)`` array for a stack.  Each row is
    one 2-D ``np.linalg.norm`` call: the stacked reduction sums in another
    order and can differ in the last bit."""
    if x.ndim == 2:
        return float(np.linalg.norm(x))
    return np.array([np.linalg.norm(row) for row in x])


def min_eigenvalue(h: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(h)[0])


def op_norm(h: np.ndarray):
    """Operator (spectral) norm of a Hermitian matrix; a ``(T,)`` array for a stack."""
    return _float_or_rows(np.max(np.abs(np.linalg.eigvalsh(h)), axis=-1))


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product, row by row over a leading stack axis (2-D: ``np.kron``)."""
    prod = a[..., :, None, :, None] * b[..., None, :, None, :]
    return prod.reshape(*prod.shape[:-4], *np.multiply(a.shape[-2:], b.shape[-2:]))
