"""Test-only fixtures and oracles: named states, the finite-difference
second derivative that the exact derivatives are checked against, and a
Gamma-integral quadrature for the quadrature rules."""

import math

import numpy as np

from matconvex.entropy import DensityOperator
from matconvex.linalg import op_norm, tensor


def ghz_state() -> DensityOperator:
    """(|000> + |111>)/sqrt(2) on three qubits."""
    v = np.zeros(8)
    v[0] = v[7] = 1.0 / math.sqrt(2.0)
    return DensityOperator(np.outer(v, v), (2, 2, 2))


def classically_correlated_pair() -> DensityOperator:
    """Perfectly correlated classical bits: diag(1/2, 0, 0, 1/2)."""
    return DensityOperator(np.diag([0.5, 0.0, 0.0, 0.5]), (2, 2))


def product_state(*factors: DensityOperator) -> DensityOperator:
    mat = np.eye(1)
    dims: tuple[int, ...] = ()
    for f in factors:
        mat = tensor(mat, f.matrix)
        dims = dims + f.dims
    return DensityOperator(mat, dims)


def fd_step(m) -> float:
    """(1 + ||M||) eps^(1/4), which balances truncation against roundoff."""
    return (1.0 + op_norm(m)) * np.finfo(float).eps ** 0.25


def second_difference(fn, x, q, h):
    """(F(X + hQ) - 2 F(X) + F(X - hQ)) / h^2 for a matrix X and direction Q,
    or for a tuple of matrices along a tuple of directions."""
    def shifted(s):
        return [a + s * d for a, d in zip(x, q)] if isinstance(x, (list, tuple)) else x + s * q

    return (fn(shifted(h)) - 2.0 * fn(x) + fn(shifted(-h))) / (h * h)


def gamma_quadrature(p: float) -> float:
    """Independent 1-d quadrature of Gamma(p) = int_0^inf e^(-v) v^(p-1) dv.

    A double-exponential (exp-sinh) rule (Takahasi and Mori, 1974): v = e^s
    with s = (pi/2) sinh t gives int e^(p s - e^s) (pi/2) cosh t dt, whose
    integrand decays doubly exponentially both ways, so the trapezoid rule
    with step 1/32 on |t| <= 12.5 is exact to rounding for 0.05 <= p <= 2.5.
    It shares no node or substitution with the Gauss-Legendre power rules of
    ``matconvex.quadrature``, so it stays an independent oracle for them.
    Raises ValueError unless 0 < p < inf (NaN included), and outside
    0.05 <= p <= 2.5, where the fixed window and step go wrong without a sign
    (relative error 0.12 at p = 1e-5, 2e-2 at p = 170).
    """
    if not 0.0 < p < np.inf:
        raise ValueError(f"Gamma integral needs 0 < p < inf, got {p}")
    if not 0.05 <= p <= 2.5:
        raise ValueError(f"the Gamma rule is verified only for 0.05 <= p <= 2.5, got {p}")
    t = np.arange(-400, 401) / 32.0
    s = 0.5 * np.pi * np.sinh(t)
    with np.errstate(over="ignore"):  # e^s overflows only where e^(-e^s) is 0
        integrand = np.exp(p * s - np.exp(s)) * (0.5 * np.pi) * np.cosh(t)
    return float(np.sum(integrand) / 32.0)
