import math
import re

import numpy as np
import pytest
from scipy.special import gamma

from helpers import gamma_quadrature
from matconvex.quadrature import (
    QuadratureConfig,
    gauss_legendre_01,
    halfline_power_rule,
    orthant_rule,
    unit_power_rule,
)


def test_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(nodes_per_axis=4)
    assert QuadratureConfig().nodes_per_axis == 64


@pytest.mark.parametrize("nodes", [16.5, 16.0, math.nan, math.inf, "16", None, 7, np.int64(4)])
def test_config_refuses_node_counts_that_are_not_integers_from_8(nodes):
    with pytest.raises(ValueError, match=re.escape(f"integer >= 8, got {nodes!r}")):
        QuadratureConfig(nodes)


@pytest.mark.parametrize("nodes", [8, np.int32(16), np.int64(64), np.uint8(128)])
def test_config_takes_any_integer_from_8(nodes):
    quad = QuadratureConfig(nodes)
    assert quad.nodes_per_axis == nodes and type(quad.nodes_per_axis) is int


def test_gauss_legendre_01_integrates_polynomials():
    x, w = gauss_legendre_01(8)
    assert w.sum() == pytest.approx(1.0)
    assert (w * x**5).sum() == pytest.approx(1.0 / 6.0)


def test_gauss_legendre_01_is_built_once_and_read_only():
    x, w = gauss_legendre_01(32)
    fresh_x, fresh_w = np.polynomial.legendre.leggauss(32)
    np.testing.assert_array_equal(x, 0.5 * (fresh_x + 1.0))
    np.testing.assert_array_equal(w, 0.5 * fresh_w)
    assert gauss_legendre_01(32)[0] is x
    for a in (x, w):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.0


@pytest.mark.parametrize("p", [0.2, 0.5, 0.8])
def test_halfline_rule_beta_type_integral(p):
    # int_0^inf u^(p-1)/(1+u) du = pi / sin(pi p)
    u, w = halfline_power_rule(p, 64)
    value = float((w / (1.0 + u)).sum())
    assert value == pytest.approx(math.pi / math.sin(math.pi * p), rel=1e-7)


def test_halfline_rule_rejects_bad_exponent():
    with pytest.raises(ValueError):
        halfline_power_rule(1.5, 32)


@pytest.mark.parametrize("p", [0.3, 0.7, 1.0])
def test_unit_rule_moments(p):
    # int_0^1 t^k t^(p-1) dt = 1/(p+k)
    t, w = unit_power_rule(p, 48)
    for k in range(4):
        assert float((w * t**k).sum()) == pytest.approx(1.0 / (p + k), rel=1e-8)


def test_orthant_rule_1d_reduces_to_halfline():
    rows, w, norm = orthant_rule([0.5], 32)
    assert rows.shape == (w.size, 2)
    np.testing.assert_array_equal(rows[:, 0], 1.0)
    value = float((w / (1.0 + rows[:, 1])).sum())
    assert value == pytest.approx(math.pi, rel=1e-9)
    assert norm == value


def test_orthant_rule_2d_product_oracle():
    # separable integrand: int u1^(p1-1) e^(-u1) du1 * int u2^(p2-1) e^(-u2) du2
    p1, p2 = 0.4, 0.3
    rows, w, _ = orthant_rule([p1, p2], 48)
    pts = rows[:, 1:]
    value = float((w * np.exp(-pts.sum(axis=1))).sum())
    assert value == pytest.approx(gamma(p1) * gamma(p2), rel=1e-6)


def test_orthant_rule_2d_handles_diagonal_ridge():
    # 1/(1 + u1 + u2) decays only first-order along the diagonal; the Duffy
    # split is what makes this converge fast
    p1, p2 = 1.0 / 3.0, 1.0 / 3.0
    rows, w, norm = orthant_rule([p1, p2], 64)
    value = float((w / (1.0 + rows[:, 1:].sum(axis=1))).sum())
    # Dirichlet-type integral: Gamma(p1) Gamma(p2) Gamma(1 - p1 - p2)
    exact = gamma(p1) * gamma(p2) * gamma(1.0 - p1 - p2)
    assert value == pytest.approx(exact, rel=1e-8)
    assert norm == value


@pytest.mark.parametrize("ps", [[0.5], [0.3, 0.4]])
def test_orthant_rule_is_built_once_and_read_only(ps):
    first = orthant_rule(ps, 16)
    again = orthant_rule(list(ps), 16)
    assert all(a is b for a, b in zip(first, again))
    for a in first[:2]:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0


def test_orthant_rule_rejects_three_axes():
    with pytest.raises(ValueError):
        orthant_rule([0.3, 0.3, 0.4], 16)


@pytest.mark.parametrize("p", [0.05, 0.2, 1.0 / 3.0, 0.5, 0.9, 1.0, 2.5])
def test_gamma_quadrature_oracle(p):
    assert gamma_quadrature(p) == pytest.approx(float(gamma(p)), rel=1e-14)


def test_gamma_quadrature_rejects_nonpositive():
    for p in (0.0, -0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="0 < p < inf"):
            gamma_quadrature(p)


@pytest.mark.parametrize("p", [1e-5, 0.04, 2.6, 100.0, 170.0])
def test_gamma_quadrature_rejects_p_outside_its_verified_range(p):
    # the fixed window and step would be off by 0.12 (p = 1e-5) to 2e-2 (p = 170)
    with pytest.raises(ValueError, match="0.05 <= p <= 2.5"):
        gamma_quadrature(p)
