"""Joint concavity machinery for several matrix variables.

Every tuple operand passes one gate: its shape, then finite and Hermitian
(never repaired), then one ``eigh`` whose smallest eigenvalue must clear
POSITIVITY_FLOOR.  Its inverse, inverse root and powers all come from that one
factorization.  Parallel sums come with an exact Hessian certificate: along
A_j + t Q_j the second derivative is -2 Y*(I - T) Y, with T the block
projection A_j^(-1/2) R^(-1) A_m^(-1/2), R = sum_j A_j^(-1), and Y the stacked
A_j^(-1/2) Q_j A_j^(-1) R^(-1), so negative semidefiniteness is structural;
one T gives the Hessian and both projection residuals.  Tensor products of
fractional powers are handled twice, by direct spectral calculus and by an
integral of parallel-sum-type resolvents over the positive orthant.  The
embedded inverses I x ... x A_j^(-1) x ... x I act on different tensor
factors, so they commute and share the eigenbasis V = V_1 x ... x V_k; the
integral is evaluated there, where every resolvent on the quadrature grid is
diagonal and no matrix is inverted, and V diag(d) V* is assembled one tensor
factor at a time, so V is never formed.  The two routes share only the
per-factor eigendecompositions (one per entry for both routes and every node
count of :func:`tensor_power_errors`); the orthant quadrature, its
normalization and the factor-by-factor assembly belong to the integral route
alone, so they still cross-check each other.  The tests keep a dense per-node
inversion of the resolvents as an oracle that uses no eigendecomposition.  On
top of these sit the Lieb trace functional, the skew-information form, and
operator means with their discrete Loewner-representation evaluator.

The parallel-sum, tensor-power, Lieb, skew-information and operator-mean
kernels are stack-aware: tuple entries may be ``(T, n, n)`` stacks of one
shape, gated row by row (one ``eigh`` per entry for the whole stack), with
``(T,)`` exponents where a row has its own; row t of a stacked call equals
the 2-D call on row t bit for bit, and the 2-D call is the unstacked case of
the same code.  Frobenius norms are taken per row for that reason
(:func:`linalg.frobenius`).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Sequence

import numpy as np

from .errors import ConditioningError, DimensionMismatchError, UnsupportedArityError
from .linalg import (
    SpectrumWindow,
    _dagger,
    _float_or_rows,
    _trace,
    factor,
    frobenius,
    from_spectrum,
    kron_from_spectrum,
    op_norm,
    tensor,
)
from .quadrature import QuadratureConfig, orthant_rule
from .rand import _stacked_draws, random_hermitian_rows, random_in_window_rows, uniform_rows

#: Entries of a concavity-domain tuple must clear this eigenvalue floor.
POSITIVITY_FLOOR = 1e-8

#: Entries per row of a chunk of the (points, n^k) resolvent-diagonal temporary
#: in tensor_power_integral: 2^17 float64 values, 1 MB a row at any node count.
_RESOLVENT_CHUNK = 1 << 17

#: Per-axis node counts of the tensor-power quadrature error curve.
ERROR_CURVE_NODES = (16, 32, 64, 128)


def _factor(mats: Sequence[np.ndarray]) -> list[tuple[np.ndarray, np.ndarray]]:
    """The tuple gate (module docstring): one (w, U) per entry, from
    :func:`linalg.factor`, which also checks it.  Entries may be ``(T, n, n)``
    stacks of one shape; the floor test is NaN-safe and names the first bad row."""
    if not len(mats):
        raise ValueError("empty matrix tuple")
    shape = np.shape(mats[0])
    shape = (*shape[:-2], shape[-1], shape[-1])
    factors = []
    for j, a in enumerate(mats):
        a = np.asarray(a)
        if a.shape != shape:
            raise DimensionMismatchError(f"tuple entry {j} has shape {a.shape}, "
                                         f"expected {shape}")
        w, u = factor(a)
        low = ~(w[..., 0] >= POSITIVITY_FLOOR)
        if low.any():
            row = int(np.argmax(low.ravel()))
            raise ConditioningError(
                f"tuple entry {j}{f' row {row}' if low.ndim else ''} has min eigenvalue "
                f"{w[..., 0].ravel()[row]:.3e} below floor {POSITIVITY_FLOOR:.0e}")
        factors.append((w, u))
    return factors


def _power(factors: tuple[np.ndarray, np.ndarray], p) -> np.ndarray:
    """A^p from the (w, U) that _factor returned for A; a ``(T,)`` array of
    exponents raises row t of a stack to p[t]."""
    w, u = factors
    if np.ndim(p):  # a scalar p stays one: w**p keeps numpy's sqrt and reciprocal paths
        p = np.asarray(p)[:, None]
    return from_spectrum(w**p, u)


def normalize_directions(dirs: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Scale a direction tuple (or each row of a tuple of stacks) so the
    largest operator norm equals one."""
    scale = np.max([op_norm(q) for q in dirs], axis=0)
    scale = np.where(scale == 0.0, 1.0, scale)[..., None, None]
    return [q / scale for q in dirs]


def random_directions(
    k: int, n: int, rngs: Sequence[np.random.Generator]
) -> list[np.ndarray]:
    """k ``(T, n, n)`` stacks of Hermitian directions, row t drawn in turn from
    the t-th of T generators, each row scaled jointly by normalize_directions."""
    return normalize_directions([random_hermitian_rows(n, rngs) for _ in range(k)])


def parallel_sum(mats: Sequence[np.ndarray]) -> np.ndarray:
    """(sum_j A_j^(-1))^(-1), row by row over stacks; dominated by every A_j
    in the Loewner order."""
    return np.linalg.inv(sum(_power(f, -1.0) for f in _factor(mats)))


def _block_projection(mats: Sequence[np.ndarray]):
    """(A_j^(-1) list, A_j^(-1/2) list, R^(-1), T) from one factorization per
    entry, with R = sum_j A_j^(-1) and T = S R^(-1) S* for S the A_j^(-1/2)
    stacked kn x n, so the blocks of T are A_j^(-1/2) R^(-1) A_m^(-1/2)."""
    factors = _factor(mats)
    invs = [_power(f, -1.0) for f in factors]
    roots = [_power(f, -0.5) for f in factors]
    r_inv = np.linalg.inv(sum(invs))
    s = np.concatenate(roots, axis=-2)
    return invs, roots, r_inv, s @ r_inv @ _dagger(s)


def _hessian(projection, dirs: Sequence[np.ndarray]) -> np.ndarray:
    invs, roots, r_inv, t = projection
    if len(dirs) != len(invs):
        raise DimensionMismatchError("direction tuple length must match matrix tuple")
    y = np.concatenate([s @ q @ a_inv @ r_inv for s, q, a_inv in zip(roots, dirs, invs)],
                       axis=-2)
    h = -2.0 * (_dagger(y) @ (y - t @ y))
    return 0.5 * (h + _dagger(h))


def parallel_sum_hessian(
    mats: Sequence[np.ndarray], dirs: Sequence[np.ndarray]
) -> np.ndarray:
    """Exact d^2/dt^2 of the parallel sum along A_j + t Q_j.

    Equals -2 Y* (I - T) Y with Y the blocks Y_j = A_j^(-1/2) Q_j A_j^(-1) R^(-1)
    stacked kn x n and T the block projection A_j^(-1/2) R^(-1) A_m^(-1/2).
    Negative semidefinite because T is an orthogonal projection.
    """
    return _hessian(_block_projection(mats), dirs)


def parallel_sum_certificate(
    mats: Sequence[np.ndarray], dirs: Sequence[np.ndarray]
) -> tuple[np.ndarray, float, float]:
    """(Hessian, its largest eigenvalue, the larger projection residual
    max(||T - T*||, ||T^2 - T||)), all read from one block projection; for
    every admissible tuple the eigenvalue is <= 0 and the residual 0, up to
    roundoff.  Stacks give a Hessian per row and ``(T,)`` arrays; a fixed
    tuple (2-D entries) with stacked directions is factored once."""
    projection = _block_projection(mats)
    hess, t = _hessian(projection, dirs), projection[3]
    top = _float_or_rows(np.linalg.eigvalsh(hess).max(axis=-1))
    residual = np.maximum(frobenius(t - _dagger(t)), frobenius(t @ t - t))
    return hess, top, _float_or_rows(residual)


# ---------------------------------------------------------------------------
# Tensor products of fractional powers.


def check_power_vector(p: Sequence[float]) -> list[float]:
    ps = [float(x) for x in p]
    if not all(math.isfinite(x) and x >= 0.0 for x in ps):
        raise ValueError(f"powers must be finite and nonnegative, got {ps}")
    if sum(ps) > 1.0 + 1e-12:
        raise ValueError(f"powers must sum to at most 1, got {ps}")
    return ps


def _check_powers(mats, p, integral: bool = False) -> list[float]:
    """The power vector of a tuple, one p_j per entry; the integral route also
    needs every p_j > 0 with sum exactly 1, and k in {2, 3}."""
    ps = check_power_vector(p)
    if len(ps) != len(mats):
        raise DimensionMismatchError("power vector length must match tuple length")
    if integral and (any(x <= 0.0 for x in ps) or abs(sum(ps) - 1.0) > 1e-12):
        raise ValueError("integral route needs all p_j > 0 with sum exactly 1")
    if integral and len(ps) not in (2, 3):
        raise UnsupportedArityError(
            f"integral route supports k in {{2, 3}}, got k={len(ps)}; "
            "use tensor_power_direct for other arities"
        )
    return ps


def tensor_power_direct(mats: Sequence[np.ndarray], p: Sequence[float]) -> np.ndarray:
    """Kronecker product of spectral fractional powers A_j^(p_j) (A^0 = I),
    row by row over stacks."""
    ps = _check_powers(mats, p)
    return _tensor_power_direct(_factor(mats), ps)


def _tensor_power_direct(factors, ps: list[float]) -> np.ndarray:
    out = np.eye(1)
    for f, pj in zip(factors, ps):
        out = tensor(out, _power(f, pj))
    return out


def tensor_power_integral(
    mats: Sequence[np.ndarray],
    p: Sequence[float],
    quad: QuadratureConfig = QuadratureConfig(),
) -> np.ndarray:
    """Tensor power via the resolvent integral over the positive orthant.

    Approximates A_1^(p_1) x ... x A_k^(p_k) for strictly positive p_j summing
    to one, k in {2, 3}, by quadrature of
    (A~_1^(-1) + u_2 A~_2^(-1) + ... + u_k A~_k^(-1))^(-1) against the measure
    prod u_j^(p_j) du_j / u_j, normalized by the constant evaluated on the
    same grid (so commuting tuples are reproduced to roundoff).

    The embedded inverses A~_j^(-1) commute and are diagonal in the joint
    eigenbasis V = V_1 x ... x V_k (A_j = V_j diag(lambda_j) V_j*), so each
    resolvent is the diagonal 1 / ((1, u) . g), with g the (k, n^k) array of
    joint reciprocal eigenvalues in Kronecker order.  Their weighted sum d is
    accumulated in fixed-size chunks of grid points, and V diag(d / norm) V*
    is assembled factor by factor (:func:`linalg.kron_from_spectrum`).  The
    tuple gate rejects input that is not finite and Hermitian, never
    symmetrizing it: eigh reads one triangle.  A chunk of
    ``_RESOLVENT_CHUNK / n^k`` points runs every row of a ``(T, n, n)`` stack
    (up to T MB), so a row equals its 2-D call bit for bit.
    """
    ps = _check_powers(mats, p, integral=True)
    return _tensor_power_integral(_factor(mats), ps, quad)


def _tensor_power_integral(factors, ps: list[float], quad: QuadratureConfig) -> np.ndarray:
    k = len(ps)
    stack, n = factors[0][0].shape[:-1], factors[0][0].shape[-1]
    # g[..., j, :] is 1/lambda_j on axis j of the Kronecker index (n, ..., n)
    g = np.stack([
        np.broadcast_to((1.0 / w).reshape(*stack, *(n if i == j else 1 for i in range(k))),
                        (*stack, *(n,) * k)).reshape(*stack, n**k)
        for j, (w, _) in enumerate(factors)
    ], axis=-2)
    points, weights = orthant_rule(ps[1:], quad.nodes_per_axis)
    coeffs = np.column_stack([np.ones(len(weights)), points])

    diag = np.zeros((*stack, n**k))
    chunk = max(1, _RESOLVENT_CHUNK // n**k)
    for start in range(0, len(weights), chunk):
        resolvents = coeffs[start:start + chunk] @ g
        np.reciprocal(resolvents, out=resolvents)
        diag += weights[start:start + chunk] @ resolvents
    norm = np.sum(weights / (1.0 + points.sum(axis=1)))
    return kron_from_spectrum(diag / norm, [u for _, u in factors])


def tensor_power_errors(
    mats: Sequence[np.ndarray], p: Sequence[float], nodes: Sequence[int]
) -> list[float]:
    """Relative Frobenius error of tensor_power_integral against
    tensor_power_direct, one entry per per-axis node count in ``nodes``
    (pass ERROR_CURVE_NODES for the error curve); each entry a ``(T,)``
    array for a tuple of stacks.  Both routes and every node count share one
    factorization per tuple entry."""
    ps = _check_powers(mats, p, integral=True)
    factors = _factor(mats)
    direct = _tensor_power_direct(factors, ps)
    scale = frobenius(direct)
    return [frobenius(_tensor_power_integral(factors, ps, QuadratureConfig(m)) - direct) / scale
            for m in nodes]


def c_constant(
    p: Sequence[float], quad: QuadratureConfig = QuadratureConfig()
) -> float:
    """The normalizing constant of the tensor-power integral representation.

    A (k-1)-dimensional integral of 1/(1 + u_2 + ... + u_k) against
    prod u_j^(p_j) du_j / u_j; equals the product of Gamma(p_j) when the p_j
    sum to one (the acceptance suite checks c_2 = pi and c_3 = Gamma(1/3)^3).
    """
    ps = check_power_vector(p)
    if len(ps) < 2:
        raise ValueError("the constant is defined for k >= 2")
    if any(x <= 0.0 for x in ps):
        raise ValueError("integral diverges when some p_j = 0; drop that axis")
    points, weights = orthant_rule(ps[1:], quad.nodes_per_axis)
    return float(np.sum(weights / (1.0 + points.sum(axis=1))))


# ---------------------------------------------------------------------------
# Lieb functional, skew information, operator means.


def _check_exponents(p, r):
    """p, r >= 0 with p + r <= 1, entrywise; NaN fails (1^NaN = 1 would hide it)."""
    if not np.all(np.greater_equal(p, 0.0) & np.greater_equal(r, 0.0)
                  & (np.add(p, r) <= 1.0 + 1e-12)):
        raise ValueError(f"need p, r >= 0 with p + r <= 1, got p={p}, r={r}")


def lieb_functional(a: np.ndarray, b: np.ndarray, k: np.ndarray, p, r):
    """Tr[A^p K* B^r K]; real for this sandwiched form, jointly concave in (A, B).
    Stacks of A, B and K take ``(T,)`` arrays (or scalars) p, r and give a
    ``(T,)`` array."""
    _check_exponents(p, r)
    (fa,), (fb,) = _factor([a]), _factor([b])
    product = _power(fa, p) @ _dagger(k) @ _power(fb, r) @ k
    return _float_or_rows(_trace(product).real)


def lieb_midpoint_gap(
    n: int, window: SpectrumWindow, rngs: Sequence[np.random.Generator]
) -> tuple[np.ndarray, np.ndarray]:
    """Midpoint joint-concavity trials of the Lieb functional L, row t drawing
    p, r, A0, A1, B0, B1 (in the window) and K from ``rngs[t]`` in that order;
    returns the ``(T,)`` arrays of (L(mid) - avg) / max(|L(mid)|, |avg|, 1),
    >= 0 up to roundoff, and of p."""
    p = uniform_rows(0.2, 0.8, rngs)
    r = uniform_rows(0.05, 1.0 - p, rngs)
    a0, a1, b0, b1 = (random_in_window_rows(n, window, rngs) for _ in range(4))
    k = _stacked_draws(n, rngs)
    mid = lieb_functional(0.5 * (a0 + a1), 0.5 * (b0 + b1), k, p, r)
    avg = 0.5 * (lieb_functional(a0, b0, k, p, r) + lieb_functional(a1, b1, k, p, r))
    return (mid - avg) / np.maximum(np.maximum(np.abs(mid), np.abs(avg)), 1.0), p


def wyd_skew_information(rho: np.ndarray, k: np.ndarray, p):
    """Tr[K rho^p K rho^(1-p)] - Tr[K rho K]; zero iff [rho, K] = 0, else < 0.

    The conventionally normalized skew information is the negation of this
    value.  Eigenvalues of rho below 1e-12 are lifted to 1e-12 with trace
    renormalization before the fractional powers are taken; rho must be finite
    and Hermitian (never repaired).  Stacks of rho and K take a ``(T,)`` array
    (or a scalar) p and give a ``(T,)`` array.
    """
    if not np.all(np.greater(p, 0.0) & np.less(p, 1.0)):
        raise ValueError(f"skew exponent must lie in (0, 1), got {p}")
    w, u = factor(rho)
    w = np.clip(w.real, 1e-12, None)
    lifted = (w / w.sum(axis=-1, keepdims=True), u)
    rho_p, rho_q, rho_r = (_power(lifted, x) for x in (p, 1.0 - p, 1.0))
    cross = _trace(k @ rho_p @ k @ rho_q).real
    plain = _trace(k @ rho_r @ k).real
    return _float_or_rows(cross - plain)


@dataclasses.dataclass(frozen=True)
class KuboAndoRepresentation:
    """Discrete Loewner representation of an operator mean: a A + b B plus
    positive weights on harmonic-mean kernels at locations t_j > 0."""

    a: float
    b: float
    atoms: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        for t, nu in self.atoms:
            if t <= 0.0:
                raise ValueError(f"atom location must be positive, got t={t}")
            if nu <= 0.0:
                raise ValueError(f"atom weight must be positive, got nu={nu}")


def kubo_ando_eval(
    rep: KuboAndoRepresentation, a: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """a A + b B + sum_j nu_j ((t_j A)^(-1) + B^(-1))^(-1) (1 + t_j)/t_j, with
    A^(-1) and B^(-1) from one factorization of each, shared by every atom;
    row by row over stacks."""
    fa, fb = _factor([a, b])
    a_inv, b_inv = _power(fa, -1.0), _power(fb, -1.0)
    total = rep.a * a + rep.b * b
    for t, nu in rep.atoms:
        total = total + nu * np.linalg.inv(a_inv / t + b_inv) * (1.0 + t) / t
    return 0.5 * (total + _dagger(total))
