"""Exact resolvent calculus.

The signed resolvent family f_u(z) = sgn(u) / (u - z), u outside the window,
is the elementary building block of matrix-convex functions: its second
derivative along any matrix line has the closed form sgn(u) * 2 R Q R Q R with
R = (u I - A)^(-1), manifestly positive semidefinite on both branches.  A
Pick-style representation (affine + quadratic + positive combination of signed
resolvents) therefore certifies convexity with exact derivatives, no finite
differences involved; :func:`pick_second_derivative` is their resolvent-sum oracle.
Every route reads R from one gate, :func:`_resolvents`, which checks and
diagonalizes A once per call and inverts one pole at a time.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .convexity import ScalarFunction, Verdict, second_derivative_test
from .errors import ConditioningError
from .linalg import (SpectrumWindow, _float_or_rows, check_finite, check_hermitian, frobenius,
                     raise_rows)
from .rand import RandomSpec

#: Resolvents are refused closer to the spectrum than this.
NEAR_SINGULAR_TOL = 1e-10


@dataclasses.dataclass(frozen=True)
class ResolventPoint:
    """A real pole location u outside the spectrum window."""

    u: float
    window: SpectrumWindow

    def __post_init__(self):
        check_finite(u=self.u)
        if self.window.contains(self.u):
            raise ValueError(
                f"resolvent point u={self.u} must lie outside "
                f"({self.window.a}, {self.window.b})"
            )

    @property
    def sign(self) -> int:
        """-1 below the window, +1 above it."""
        return -1 if self.u <= self.window.a else 1

    def scalar(self, z: float) -> float:
        """f_u(z) = sgn(u) / (u - z)."""
        return self.sign / (self.u - z)


def _resolvents(a: np.ndarray, window: SpectrumWindow, poles):
    """R = (u I - A)^(-1) for each pole u in turn, row by row over a stack, each
    after a conditioning check, once A is checked Hermitian with its spectrum in
    ``window`` (eagerly, at the call); each check names the first bad row.  R
    comes from ``inv``, so this route stays independent of the spectral one."""
    a = check_hermitian(a)
    eigs = np.linalg.eigvalsh(a)
    window.check_spectrum(eigs, source="A")

    def each():
        for u in poles:
            gap = np.min(np.abs(u - eigs), axis=-1)
            raise_rows(~(gap >= NEAR_SINGULAR_TOL), ConditioningError, lambda k: (
                f"u={u} within {gap.flat[k]:.3e} of an eigenvalue of A; "
                "resolvent ill-conditioned"))
            yield np.linalg.inv(u * np.eye(a.shape[-1]) - a)

    return each()


def resolvent_value(a: np.ndarray, p: ResolventPoint) -> np.ndarray:
    """f_u(A) = sgn(u) (u I - A)^(-1)."""
    (r,) = _resolvents(a, p.window, [p.u])
    return p.sign * r


def resolvent_second_derivative(
    a: np.ndarray, q: np.ndarray, p: ResolventPoint
) -> np.ndarray:
    """Exact d^2/dt^2 f_u(A + tQ)|_0 = sgn(u) * 2 R Q R Q R; always PSD.
    Stacks of A and Q give one derivative per row; both are checked Hermitian."""
    q = check_hermitian(q)
    (r,) = _resolvents(a, p.window, [p.u])
    return p.sign * 2.0 * (r @ q @ r @ q @ r)


def resolvent_identity_residual(a: np.ndarray, delta: np.ndarray):
    """|| (A+D)^(-1) - A^(-1) + A^(-1) D (A+D)^(-1) ||_F (should vanish); a
    ``(T,)`` array for stacks."""
    inv_a = np.linalg.inv(a)
    inv_ad = np.linalg.inv(a + delta)
    return frobenius(inv_ad - inv_a + inv_a @ delta @ inv_ad)


@dataclasses.dataclass(frozen=True)
class PickRepresentation:
    """Parameters (alpha, beta, gamma, c) plus a discrete positive measure.

    ``atoms`` is a list of (u_j, w_j) pairs with u_j outside the window and
    w_j > 0.  Only discrete measures are supported; the represented function
    is affine + gamma z^2 + the atomwise combination of signed resolvents.
    """

    alpha: float
    beta: float
    gamma: float
    c: float
    window: SpectrumWindow
    atoms: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        check_finite(alpha=self.alpha, beta=self.beta, gamma=self.gamma, c=self.c)
        if self.gamma < 0.0:
            raise ValueError(f"gamma must be nonnegative, got {self.gamma}")
        if not self.window.contains(self.c):
            raise ValueError(f"center c={self.c} must lie inside the window")
        for u, w in self.atoms:
            check_finite(u=u, w=w)
            if self.window.contains(u):
                raise ValueError(f"atom location u={u} lies inside the window")
            if w <= 0.0:
                raise ValueError(f"atom weight must be positive, got {w}")


def pick_eval_scalar(rep: PickRepresentation, z):
    """Value of the represented function inside the window, entrywise on an
    array; the first point outside the window raises DomainViolationError."""
    z = np.asarray(z, dtype=float)
    rep.window.check_spectrum(z, source="z")
    total = rep.alpha + rep.beta * z + rep.gamma * z * z
    for u, w in rep.atoms:
        total = total + w * (z - rep.c) * (1.0 + u * z) / (u - z)
    return _float_or_rows(total)


def pick_scalar_function(rep: PickRepresentation) -> ScalarFunction:
    """The represented function with closed-form f' and f'', as numpy forms.

    Each atom term (z - c)(1 + uz)/(u - z) contributes
    (1 + u^2)(u - c)/(u - z)^2 - u to f' and 2 (1 + u^2)(u - c)/(u - z)^3 to f''.
    """
    def atoms(z, power):
        return sum(w * (1.0 + u * u) * (u - rep.c) / (u - z) ** power for u, w in rep.atoms)

    slope = rep.beta - sum(w * u for u, w in rep.atoms)
    return ScalarFunction(
        name="pick_representation",
        fn=lambda z: pick_eval_scalar(rep, z),
        domain=rep.window,
        deriv=lambda z: slope + 2.0 * rep.gamma * z + atoms(z, 2),
        deriv2=lambda z: 2.0 * rep.gamma + 2.0 * atoms(z, 3),
    )


def pick_eval_matrix(rep: PickRepresentation, a: np.ndarray) -> np.ndarray:
    """Matrix value by atomwise resolvent sums: by the elementary decomposition of
    each atom, the spectral route ``apply_function(a, pick_scalar_function(rep))``."""
    resolvents = _resolvents(a, rep.window, [u for u, _ in rep.atoms])
    eye = np.eye(a.shape[-1])
    total = rep.alpha * eye + rep.beta * a + rep.gamma * (a @ a)
    for (u, w), r in zip(rep.atoms, resolvents):
        # (u I - A)^(-1) = sgn(u) f_u(A) on either branch
        coeff = (1.0 + u * u) * (u - rep.c)
        total += w * (coeff * r - u * a + (u * rep.c - (1.0 + u * u)) * eye)
    return total


def pick_second_derivative(
    rep: PickRepresentation, m: np.ndarray, q: np.ndarray
) -> np.ndarray:
    """Exact d^2/dt^2 of the represented function along M + tQ.

    2 gamma Q^2 plus w (1 + u^2)(u - c) 2 R Q R Q R per atom, PSD by
    construction since u - c has the sign of u's branch.  Q is checked
    Hermitian, M with its spectrum by the resolvent gate.
    """
    q = check_hermitian(q)
    resolvents = _resolvents(m, rep.window, [u for u, _ in rep.atoms])
    total = 2.0 * rep.gamma * (q @ q)
    for (u, w), r in zip(rep.atoms, resolvents):
        total = total + w * (1.0 + u * u) * (u - rep.c) * (2.0 * (r @ q @ r @ q @ r))
    return total


def elementary_decomposition_residual(u, c, z, window: SpectrumWindow):
    """Residual of the atom integrand's algebraic decomposition (exact identity).

    (z-c)(1+uz)/(u-z) == (1+u^2)(u-c) sgn(u) f_u(z) - uz + uc - (1+u^2).
    Arrays u, c, z give the residual entrywise; the first bad pole (checked as a
    :class:`ResolventPoint`), or c or z outside the window, raises.
    """
    u, c, z = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (u, c, z)))
    for pole in dict.fromkeys(u.ravel().tolist()):
        ResolventPoint(pole, window)
    for x, label in ((c, "c"), (z, "z")):
        window.check_spectrum(x, source=label)
    sign = np.where(u <= window.a, -1.0, 1.0)  # ResolventPoint.sign
    lhs = (z - c) * (1.0 + u * z) / (u - z)
    rhs = (1.0 + u * u) * (u - c) * sign * (sign / (u - z)) - u * z + u * c - (1.0 + u * u)
    return _float_or_rows(np.abs(lhs - rhs))


def certify_representation(
    rep: PickRepresentation, n: int, trials: int, spec: RandomSpec
) -> Verdict:
    """Second-derivative certification of the represented function.

    Runs the Daleckii-Krein derivative from the closed-form f' and f''; anything
    but `certified` indicates an implementation bug, not a property of f.
    """
    return second_derivative_test(
        pick_scalar_function(rep), rep.window, n, trials, spec
    )
