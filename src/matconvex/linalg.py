"""Hermitian linear-algebra substrate and the library's one spectral calculus.

All matrices are finite-dimensional, complex, and self-adjoint; every function
takes a ``(T, n, n)`` stack as well as one matrix, and an error on a stack
names the row it came from.  A matrix function f(A) = U f(w) U* has three
steps, each of which exists once: :func:`factor` (:func:`check_hermitian`,
then the library's only ``eigh``), f at the spectrum (a :class:`ScalarFunction`
of numpy forms, in one :func:`entrywise` call) and :func:`from_spectrum`.  A
sampled matrix travels with its factors (w, U), from which
:func:`spectral_function` evaluates f without diagonalizing it again;
:func:`apply_function` is that core after :func:`factor`.
:func:`kron_from_spectrum` is the last step on a basis U_1 x ... x U_k.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    DomainViolationError,
    HermiticityError,
    UnboundedWindowError,
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

    def shrunk(self) -> "SpectrumWindow":
        """Compact sub-window, ``0.05 * (b - a)`` in from each side; refuses an unbounded one."""
        if not self.is_bounded:
            raise UnboundedWindowError(f"needs a bounded window, got ({self.a}, {self.b}); "
                                       "pass a compact sub-window")
        delta = 0.05 * (self.b - self.a)
        return SpectrumWindow(self.a + delta, self.b - delta)


@dataclasses.dataclass(frozen=True)
class ScalarFunction:
    """A named real function with its admissible spectrum window.

    ``fn`` and the closed forms ``deriv`` (f') and ``deriv2`` (f'') are numpy
    forms, each mapping a float array entrywise (a constant may return a
    scalar).  Loewner matrices need ``deriv``, line second derivatives both.
    Construction refuses a form that takes no array, or an ``fn`` not finite
    on probe points of the window, with a ``ValueError`` naming the function.
    """

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    domain: SpectrumWindow
    deriv: Callable[[np.ndarray], np.ndarray] | None = None
    deriv2: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        xs = _probe_points(self.domain)
        try:
            ys = entrywise(self.fn, xs)
            for g in (self.deriv, self.deriv2):
                if g is not None:
                    entrywise(g, xs)
        except TypeError as err:  # a scalar-only form, such as math.log
            raise ValueError(f"{self.name} is not a numpy form: {err}") from err
        if not np.all(np.isfinite(ys)):
            x = xs[np.argmax(~np.isfinite(ys))]
            raise ValueError(f"{self.name} is not finite at probe point {x}")

    def __call__(self, x):
        return self.fn(x)


def _probe_points(domain: SpectrumWindow, count: int = 32) -> np.ndarray:
    """A compact sub-interval of the domain, sampled at ``count`` points."""
    if domain.is_bounded:
        inner = domain.shrunk()
        lo, hi = inner.a, inner.b
    elif math.isfinite(domain.a):
        lo, hi = domain.a + 0.05, domain.a + 10.0
    elif math.isfinite(domain.b):
        lo, hi = domain.b - 10.0, domain.b - 0.05
    else:
        lo, hi = -10.0, 10.0
    return np.linspace(lo, hi, count)


def _raise_first(bad: np.ndarray, w: np.ndarray, source: str, what: str) -> None:
    """DomainViolationError for the first flagged eigenvalue of ``w``, if any."""
    if bad.any():
        k = int(np.argmax(bad.ravel()))
        lam = float(w.ravel()[k])
        row = f" row {k // w.shape[-1]}" if w.ndim > 1 else ""
        raise DomainViolationError(f"eigenvalue {lam} of {source}{row} {what}",
                                   eigenvalue=lam, source=source)


def raise_rows(bad, error: type[Exception], message) -> None:
    """Raise ``error`` for the first flagged row, if any: ``bad`` is one flag
    (a matrix) or a ``(T,)`` array (a stack), ``message`` a string or
    ``message(k)`` for row k, prefixed ``row k: `` for a stack."""
    bad = np.asarray(bad)
    if bad.any():
        k = int(np.argmax(bad.ravel()))
        raise error((f"row {k}: " if bad.ndim else "")
                    + (message(k) if callable(message) else message))


def check_finite(**fields) -> None:
    """Raise ValueError naming the first of ``fields`` that is not finite."""
    for name, value in fields.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def check_mixing_weight(lam):
    """A weight in (0, 1), or a ``(T,)`` array of them; NaN fails."""
    arr = np.asarray(lam, dtype=float)
    if not np.all((0.0 < arr) & (arr < 1.0)):
        raise ValueError(f"mixing weight must lie in (0, 1), got {lam}")
    return float(arr) if arr.ndim == 0 else arr


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
    raise_rows(bad.reshape(h.shape[:-2]), HermiticityError, lambda k: (
        "matrix has non-finite entries" if not np.isfinite(scale[k]) else
        f"matrix asymmetry {asym[k]:.3e} exceeds tolerance "
        f"{HERMITICITY_TOL * scale[k]:.3e}"))


def hermitian(entries) -> np.ndarray:
    """Validate and exactly symmetrize a square complex matrix.

    Non-finite entries or asymmetry beyond ``HERMITICITY_TOL * (1 + max|entry|)``
    are construction errors (see :func:`check_hermitian`); the returned array
    is (H + H*)/2 so later formula chains cannot drift.  A ``(T, n, n)``
    stack is checked and symmetrized row by row.
    """
    h = np.asarray(entries, dtype=complex)
    check_hermitian(h)
    out = h + _dagger(h)
    out *= 0.5
    return out


def factor(h) -> tuple[np.ndarray, np.ndarray]:
    """Spectral factors (w, U) of a Hermitian matrix or stack: ``np.linalg.eigh``,
    which reads one triangle, after :func:`check_hermitian` has read both."""
    h = np.asarray(h)
    check_hermitian(h)
    return np.linalg.eigh(h)


def entrywise(g: Callable, x) -> np.ndarray:
    """The numpy form ``g`` at every entry of the float array ``x``, in one
    call; a scalar result (a constant form) is broadcast to the shape of x."""
    x = np.asarray(x, dtype=float)
    return np.broadcast_to(np.asarray(g(x), dtype=float), x.shape)


def from_spectrum(w: np.ndarray, u: np.ndarray) -> np.ndarray:
    """U diag(w) U*, row by row over a stack of spectra and eigenvector bases."""
    return (u * w[..., None, :]) @ _dagger(u)


def kron_from_spectrum(w: np.ndarray, us: Sequence[np.ndarray]) -> np.ndarray:
    """(U_1 x ... x U_k) diag(w) (U_1 x ... x U_k)* for ``w`` in Kronecker order,
    row by row over a stack, without forming the product basis: X is the sum
    over a of (u_a u_a*) x X'_a, with X'_a the same over U_2 ... U_k on w[a, ...];
    one (n^2 x n) @ (n x m^2) product and an axis swap per factor, O(n^(2k+1))
    in all where the product basis costs (n^k)^3."""
    u, rest = us[0], us[1:]
    if not rest:
        return from_spectrum(w, u)
    n, m = u.shape[-1], w.shape[-1] // u.shape[-1]
    inner = kron_from_spectrum(w.reshape(*w.shape[:-1], n, m),
                               [v[..., None, :, :] for v in rest])
    outer = u[..., :, None, :] * u.conj()[..., None, :, :]  # [i, j, a] = u_ia conj(u_ja)
    x = outer.reshape(*outer.shape[:-3], n * n, n) @ inner.reshape(*inner.shape[:-2], m * m)
    x = x.reshape(*x.shape[:-2], n, n, m, m).swapaxes(-3, -2)
    return x.reshape(*x.shape[:-4], n * m, n * m)


def spectral_function(
    w: np.ndarray, u: np.ndarray, f: ScalarFunction, source: str = "matrix",
) -> np.ndarray:
    """The matrix function U diag(f(w)) U* of the matrix with spectrum ``w``
    and orthonormal eigenvectors ``u`` (columns), row by row over a stack,
    with f evaluated through :func:`entrywise`.

    Every eigenvalue must lie inside ``f.domain``; an escape, or a non-finite
    value of f, raises :class:`DomainViolationError` carrying the offending
    eigenvalue and the source (and row) it came from.
    """
    f.domain.check_spectrum(w, source=source)
    fw = entrywise(f.fn, w)
    _raise_first(~np.isfinite(fw), w, source, "gives a non-finite function value")
    return from_spectrum(fw, u)


def apply_function(h, f: ScalarFunction, source: str = "matrix") -> np.ndarray:
    """:func:`spectral_function` of a Hermitian matrix or ``(T, n, n)`` stack,
    on the factors from :func:`factor`."""
    return spectral_function(*factor(h), f, source)


def frobenius(x: np.ndarray):
    """Frobenius norm of a matrix; a ``(T,)`` array for a stack, each row bit
    for bit its own ``np.linalg.norm``.  That norm is the square root of the
    flattened row's dot product with itself, over the real and imaginary
    parts; here one ``(T, 1, K) @ (T, K, 1)`` product per part forms every
    row's, on C-contiguous rows (numpy's reduction over a stack sums in
    another order and can differ in the last bit)."""
    if x.ndim == 2:
        return float(np.linalg.norm(x))
    rows = np.ascontiguousarray(x).reshape(len(x), 1, math.prod(x.shape[1:]))
    parts = (rows.real, rows.imag) if np.iscomplexobj(rows) else (rows,)
    return np.sqrt(sum(part @ part.swapaxes(1, 2) for part in parts))[:, 0, 0]


def min_eigenvalue(h: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(h)[0])


def op_norm(h: np.ndarray):
    """Operator (spectral) norm of a Hermitian matrix; a ``(T,)`` array for a stack."""
    return _float_or_rows(np.max(np.abs(np.linalg.eigvalsh(h)), axis=-1))


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product, row by row over a leading stack axis (2-D: ``np.kron``)."""
    prod = a[..., :, None, :, None] * b[..., None, :, None, :]
    return prod.reshape(*prod.shape[:-4], *np.multiply(a.shape[-2:], b.shape[-2:]))
