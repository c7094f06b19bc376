"""Test-only fixtures and oracles: named states and the finite-difference
second derivative that the exact derivatives are checked against."""

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
