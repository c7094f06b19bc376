"""Hermitian linear-algebra substrate.

All matrices are finite-dimensional, complex, and self-adjoint.  The working
currency throughout the library is a plain ``numpy.ndarray`` that has passed
through :func:`hermitian`, which validates and exactly symmetrizes its input.
Matrix functions always go through a full spectral decomposition, so degenerate
eigenvalues need no special handling.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, NamedTuple

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

    def contains(self, x: float) -> bool:
        return self.a < x < self.b

    def check_spectrum(self, eigenvalues: np.ndarray, source: str = "matrix") -> None:
        """Raise DomainViolationError if any eigenvalue escapes the window."""
        for lam in np.atleast_1d(eigenvalues):
            if not self.contains(float(lam)):
                raise DomainViolationError(
                    f"eigenvalue {lam} of {source} outside window ({self.a}, {self.b})",
                    eigenvalue=float(lam),
                    source=source,
                )

    def shrunk(self, fraction: float = 0.05) -> "SpectrumWindow":
        """Compact sub-window with a margin of ``fraction * (b - a)`` per side."""
        if not self.is_bounded:
            raise ValueError("cannot shrink an unbounded window")
        delta = fraction * (self.b - self.a)
        return SpectrumWindow(self.a + delta, self.b - delta)


class SpectralDecomposition(NamedTuple):
    """Ascending eigenvalues and the matching unitary of column eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def check_hermitian(h: np.ndarray, tol: float = HERMITICITY_TOL) -> None:
    """Raise unless ``h`` is a finite square matrix with asymmetry at most
    ``tol * (1 + max|entry|)``.  A ``(T, n, n)`` stack is checked row by row
    and the first failing row is named.  Never modifies ``h``."""
    if h.ndim not in (2, 3) or h.shape[-2] != h.shape[-1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {h.shape}")
    if h.shape[-1] < 1:
        raise DimensionMismatchError("dimension must be >= 1")
    rows = h.reshape(-1, *h.shape[-2:])
    t = rows.swapaxes(1, 2)  # |h - h*| entrywise, without a complex temporary
    with np.errstate(invalid="ignore"):  # inf - inf: any non-finite entry gives NaN or inf
        asym = np.hypot(rows.real - t.real, rows.imag + t.imag)
    if asym.max() <= tol:  # finite, and within tol * scale since scale >= 1
        return
    scale = 1.0 + np.max(np.abs(rows), axis=(1, 2))  # NaN or inf iff an entry is
    asym = np.max(asym, axis=(1, 2))
    bad = ~np.isfinite(scale) | (asym > tol * scale)
    if np.any(bad):
        k = int(np.argmax(bad))
        raise HermiticityError((f"row {k}: " if h.ndim == 3 else "") + (
            "matrix has non-finite entries" if not np.isfinite(scale[k]) else
            f"matrix asymmetry {asym[k]:.3e} exceeds tolerance {tol * scale[k]:.3e}"))


def hermitian(entries, tol: float = HERMITICITY_TOL) -> np.ndarray:
    """Validate and exactly symmetrize a square complex matrix.

    Non-finite entries or asymmetry beyond ``tol * (1 + max|entry|)`` are
    construction errors (see :func:`check_hermitian`); the returned array is
    (H + H*)/2 so later formula chains cannot drift.
    """
    h = np.asarray(entries, dtype=complex)
    check_hermitian(h, tol)
    return 0.5 * (h + h.conj().T)


def spectral_decompose(h: np.ndarray) -> SpectralDecomposition:
    """Full eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    Backed by LAPACK's Hermitian solver; non-convergence surfaces as
    ``numpy.linalg.LinAlgError`` (ill-formed input or a bug, never truncated).
    """
    w, u = np.linalg.eigh(h)
    return SpectralDecomposition(w, u)


def apply_function(
    h: np.ndarray,
    f: Callable[[float], float],
    domain: SpectrumWindow | None = None,
    source: str = "matrix",
) -> np.ndarray:
    """Evaluate the matrix function U diag(f(lambda_i)) U*.

    When ``domain`` is given, every eigenvalue must lie inside it; an escape
    raises :class:`DomainViolationError` carrying the offending eigenvalue.
    """
    w, u = spectral_decompose(h)
    if domain is not None:
        domain.check_spectrum(w, source=source)
    fw = np.array([f(float(lam)) for lam in w], dtype=float)
    if not np.all(np.isfinite(fw)):
        bad = float(w[np.argmax(~np.isfinite(fw))])
        raise DomainViolationError(
            f"function value not finite at eigenvalue {bad} of {source}",
            eigenvalue=bad,
            source=source,
        )
    return (u * fw) @ u.conj().T


def matrix_power_psd(h: np.ndarray, p: float) -> np.ndarray:
    """Fractional power of a positive semidefinite matrix, with 0**0 = 1."""
    w, u = spectral_decompose(h)
    w = np.clip(w.real, 0.0, None)
    if p == 0.0:
        fw = np.ones_like(w)
    else:
        fw = w**p
    return (u * fw) @ u.conj().T


def min_eigenvalue(h: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(h)[0])


def max_eigenvalue(h: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(h)[-1])


def is_psd(h: np.ndarray, tol: float = 0.0) -> bool:
    return min_eigenvalue(h) >= -tol


def loewner_leq(a: np.ndarray, b: np.ndarray, tol: float = 0.0) -> bool:
    """A <= B in the Loewner order, i.e. B - A is PSD within tol."""
    if a.shape != b.shape:
        raise DimensionMismatchError(f"shape mismatch {a.shape} vs {b.shape}")
    return is_psd(b - a, tol)


def op_norm(h: np.ndarray) -> float:
    """Operator (spectral) norm of a Hermitian matrix."""
    return float(np.max(np.abs(np.linalg.eigvalsh(h))))


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product, row by row over a leading stack axis (2-D: ``np.kron``)."""
    prod = a[..., :, None, :, None] * b[..., None, :, None, :]
    return prod.reshape(*prod.shape[:-4], *np.multiply(a.shape[-2:], b.shape[-2:]))
