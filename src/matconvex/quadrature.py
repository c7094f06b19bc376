"""Quadrature rules for integrals of the form  int_0^inf g(u) u^(p-1) du,
0 < p < 1, with g smooth, finite at 0, and decaying like 1/u at infinity.

The half-line is split at u = 1 and each half is mapped to [0, 1] with a
power substitution that absorbs the endpoint singularity of the measure
(u = v^(1/p) on the lower half; u = y^(-1/(1-p)) on the upper half, where the
decay of g supplies the integrable exponent 1 - p).  Plain Gauss-Legendre is
then accurate on both halves.  A single rational map u = s/(1-s) was tried
first and converges too slowly near the endpoints for the tolerances used
here, which is why the rule below carries the extra substitutions.  An orthant
rule is built once per (powers, nodes) as the coefficient rows (1, u), the
weights and the normalization (``c_constant``) that the tensor-power integral
reads.
"""

from __future__ import annotations

import dataclasses
import functools
import operator
from typing import ClassVar

import numpy as np


@dataclasses.dataclass(frozen=True)
class QuadratureConfig:
    """Node budget per integration axis; one target relative error for all."""

    nodes_per_axis: int = 64
    tolerance: ClassVar[float] = 1e-5

    def __post_init__(self):
        try:  # an integer of any kind, numpy's too; 16.5, NaN and inf are refused
            nodes = operator.index(self.nodes_per_axis)
        except TypeError:
            nodes = 0
        if nodes < 8:
            raise ValueError(f"nodes_per_axis must be an integer >= 8, got {self.nodes_per_axis!r}")
        object.__setattr__(self, "nodes_per_axis", nodes)


@functools.lru_cache(maxsize=16)
def gauss_legendre_01(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights shifted to [0, 1].  Each rule is built
    once (``leggauss`` polishes its nodes by Newton steps) and shared, so the
    arrays come back read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    return _read_only(0.5 * (x + 1.0), 0.5 * w)


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.flags.writeable = False
    return arrays


def halfline_power_rule(p: float, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes u_i and weights w_i with  sum_i w_i g(u_i) ~ int_0^inf g(u) u^(p-1) du.

    Valid for 0 < p < 1 and g as described in the module docstring; the decay
    assumption enters only through the upper-half weights (they carry a factor
    u_i, so g must fall off like 1/u for the sum to converge as nodes grow).
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"exponent must lie in (0, 1), got {p}")
    half = max(nodes // 2, 4)
    v, gw = gauss_legendre_01(half)

    # Lower half: u = v^(1/p), u^(p-1) du = dv / p.
    u_lo = v ** (1.0 / p)
    w_lo = gw / p

    # Upper half: u = x^(-1), then x = y^(1/(1-p)); weight carries u once.
    q = 1.0 - p
    x = v ** (1.0 / q)
    u_hi = 1.0 / x
    w_hi = gw * u_hi / q

    return np.concatenate([u_lo, u_hi]), np.concatenate([w_lo, w_hi])


def unit_power_rule(p: float, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for  int_0^1 phi(t) t^(p-1) dt  with phi smooth.

    The substitution t = v^(1/p) absorbs the endpoint singularity.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError(f"exponent must lie in (0, 1], got {p}")
    v, gw = gauss_legendre_01(nodes)
    return v ** (1.0 / p), gw / p


def orthant_rule(ps: list[float], nodes: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Joint rule for  int_(0,inf)^d g(u) prod_j u_j^(p_j - 1) du_j  with g
    smooth and decaying like 1/(u_1 + ... + u_d); d in {1, 2}.

    Returns the (m, d+1) coefficient rows (1, u_i), whose columns 1.. are the
    points, the weights w_i and the normalization sum_i w_i / (1 + sum_j u_ij).
    The 2-d case splits the orthant along its diagonal and rescales the
    smaller variable (u_minor = t * u_major), because the joint decay puts an
    integrable but quadrature-hostile ridge along u_1 ~ u_2 that a per-axis
    product rule resolves only at first order.  Each rule is built once per
    (ps, nodes) and shared, so the arrays come back read-only.
    """
    return _orthant_rule(tuple(ps), nodes)


@functools.lru_cache(maxsize=16)
def _orthant_rule(ps: tuple[float, ...], nodes: int):
    d = len(ps)
    if d == 1:
        u, weights = halfline_power_rule(ps[0], nodes)
        points = u[:, None]
    elif d == 2:
        points, weights = [], []
        for major, minor in ((0, 1), (1, 0)):
            u, wu = halfline_power_rule(ps[major] + ps[minor], nodes)
            t, wt = unit_power_rule(ps[minor], nodes)
            uu, tt = np.meshgrid(u, t, indexing="ij")
            pts = np.empty((uu.size, 2))
            pts[:, major] = uu.ravel()
            pts[:, minor] = (uu * tt).ravel()
            points.append(pts)
            weights.append(np.outer(wu, wt).ravel())
        points, weights = np.concatenate(points), np.concatenate(weights)
    else:
        raise ValueError(f"orthant_rule supports 1 or 2 axes, got {d}")
    norm = float(np.sum(weights / (1.0 + points.sum(axis=1))))
    return *_read_only(np.column_stack([np.ones(len(weights)), points]), weights), norm
