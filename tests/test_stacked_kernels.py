"""Stacked kernels: row t of a stacked call equals the 2-D call on row t bit
for bit, and the gates name the first bad row."""

import ast
from pathlib import Path

import numpy as np
import pytest

from matconvex import entropy as ent
from matconvex import jointconcavity as jc
from matconvex import resolvent as rv
from matconvex.errors import ConditioningError, HermiticityError, ValidationError
from matconvex.linalg import SpectrumWindow, raise_rows
from matconvex.rand import RandomSpec, random_densities, random_directions, random_in_window_rows

SRC = Path(__file__).resolve().parents[1] / "src" / "matconvex"
WINDOW = SpectrumWindow(0.1, 5.0)
ROWS = 6
MEAN = jc.KuboAndoRepresentation(0.3, 0.2, atoms=((1.0, 0.5), (4.0, 0.25)))


def _stacks(count, n, seed, window=WINDOW):
    rngs = [RandomSpec(seed, t).rng() for t in range(ROWS)]
    return [random_in_window_rows(n, window, rngs) for _ in range(count)]


def _directions(k, n, seed):
    return random_directions(k, n, [RandomSpec(seed, 100 + t).rng() for t in range(ROWS)])


def _kernel_cases():
    """name -> (the 2-D call on row t, the stacked result) on one set of stacks."""
    a, b, c = _stacks(3, 3, 1)
    dirs = _directions(3, 3, 2)
    k = np.random.default_rng(3).standard_normal((ROWS, 3, 3)) + 0j
    p = np.linspace(0.2, 0.7, ROWS)
    rho = random_densities(3, [RandomSpec(4, t).rng() for t in range(ROWS)])
    narrow_a, narrow_b = _stacks(2, 3, 5, SpectrumWindow(0.1, 2.0))
    u, z = np.linspace(-2.0, -0.5, ROWS), np.linspace(0.2, 4.0, ROWS)
    point = rv.ResolventPoint(7.0, WINDOW)

    def certificate(*entries):
        return jc.parallel_sum_certificate(entries[:3], entries[3:])

    return {
        "parallel_sum": (lambda t: jc.parallel_sum([x[t] for x in (a, b, c)]),
                         jc.parallel_sum([a, b, c])),
        "parallel_sum_certificate": (
            lambda t: certificate(*(x[t] for x in (a, b, c, *dirs))),
            certificate(a, b, c, *dirs)),
        "tensor_power_errors": (
            lambda t: jc.tensor_power_errors([a[t], b[t]], (0.3, 0.7), [16, 64]),
            jc.tensor_power_errors([a, b], (0.3, 0.7), [16, 64])),
        # k = 3 grids hold more points than one resolvent chunk: a stacked
        # row must sum its chunks as its 2-D call does
        "tensor_power_integral_k3": (
            lambda t: jc.tensor_power_integral([a[t], b[t], c[t]], (0.2, 0.5, 0.3)),
            jc.tensor_power_integral([a, b, c], (0.2, 0.5, 0.3))),
        "tensor_power_error_curve_k3": (
            lambda t: jc.tensor_power_errors([a[t], b[t], c[t]], (0.2, 0.5, 0.3),
                                             jc.ERROR_CURVE_NODES),
            jc.tensor_power_errors([a, b, c], (0.2, 0.5, 0.3), jc.ERROR_CURVE_NODES)),
        "kubo_ando_eval": (lambda t: jc.kubo_ando_eval(MEAN, a[t], b[t]),
                           jc.kubo_ando_eval(MEAN, a, b)),
        "lieb_functional": (lambda t: jc.lieb_functional(a[t], b[t], k[t], p[t], 0.25),
                            jc.lieb_functional(a, b, k, p, 0.25)),
        "wyd_skew_information": (
            lambda t: jc.wyd_skew_information(rho[t], a[t], p[t]),
            jc.wyd_skew_information(rho, a, p)),
        "relative_entropy": (lambda t: ent.relative_entropy(narrow_a[t], narrow_b[t]),
                             ent.relative_entropy(narrow_a, narrow_b)),
        "epsilon_limit_residual": (
            lambda t: ent.epsilon_limit_residual(narrow_a[t], narrow_b[t], 1e-5),
            ent.epsilon_limit_residual(narrow_a, narrow_b, 1e-5)),
        "resolvent_second_derivative": (
            lambda t: rv.resolvent_second_derivative(a[t], dirs[0][t], point),
            rv.resolvent_second_derivative(a, dirs[0], point)),
        "resolvent_identity_residual": (
            lambda t: rv.resolvent_identity_residual(a[t], 0.01 * dirs[1][t]),
            rv.resolvent_identity_residual(a, 0.01 * dirs[1])),
        "elementary_decomposition_residual": (
            lambda t: rv.elementary_decomposition_residual(u[t], 1.0, z[t], WINDOW),
            rv.elementary_decomposition_residual(u, 1.0, z, WINDOW)),
    }


CASES = _kernel_cases()


def _parts(value):
    return list(value) if isinstance(value, (tuple, list)) else [value]


@pytest.mark.parametrize("name", sorted(CASES))
def test_a_stack_row_equals_the_unstacked_call(name):
    single, stacked = CASES[name]
    for t in range(ROWS):
        for expected, got in zip(_parts(single(t)), _parts(stacked), strict=True):
            np.testing.assert_array_equal(np.asarray(got)[t], expected)


def test_random_directions_rows_equal_single_draws():
    stacked = _directions(3, 4, 9)
    for t in range(ROWS):
        single = random_directions(3, 4, [RandomSpec(9, 100 + t).rng()])
        for q, row in zip(single, stacked):
            np.testing.assert_array_equal(row[t], q[0])


def test_a_fixed_tuple_broadcasts_against_stacked_directions():
    a, b = (x[0] for x in _stacks(2, 3, 11))
    dirs = _directions(2, 3, 12)
    hess, top, residual = jc.parallel_sum_certificate([a, b], dirs)
    for t in range(ROWS):
        h, e, r = jc.parallel_sum_certificate([a, b], [q[t] for q in dirs])
        np.testing.assert_array_equal(hess[t], h)
        assert (top[t], residual) == (e, r)


def _with_bad_row(stack, row, defect):
    bad = stack.copy()
    bad[row] = defect(bad[row])
    return bad


def test_raise_rows_names_the_first_flagged_row_of_a_stack():
    raise_rows(np.zeros(3, bool), ValueError, "never raised")
    raise_rows(np.False_, ValueError, "never raised")
    with pytest.raises(ValueError, match="^row 1: bad 1$"):
        raise_rows(np.array([False, True, True]), ValueError, lambda k: f"bad {k}")
    with pytest.raises(ValidationError, match="^bad$"):  # one matrix: no row to name
        raise_rows(np.True_, ValidationError, "bad")


def test_only_linalg_builds_a_row_message():
    # every other module names a bad row through linalg.raise_rows
    for path in sorted(SRC.glob("*.py")):
        if path.name == "linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.JoinedStr):
                for text, value in zip(node.values, node.values[1:]):
                    assert not (isinstance(text, ast.Constant) and text.value.endswith("row ")
                                and isinstance(value, ast.FormattedValue)), \
                        f"{path.name}:{node.lineno} builds a row message"


def test_the_tuple_gate_names_the_first_bad_row():
    a, b = _stacks(2, 3, 13)
    asymmetric = _with_bad_row(b, 4, lambda m: m + np.triu(np.ones((3, 3)), 1))
    with pytest.raises(HermiticityError, match="row 4"):
        jc.parallel_sum([a, asymmetric])
    singular = _with_bad_row(a, 2, lambda m: m - np.linalg.eigvalsh(m)[0] * np.eye(3))
    with pytest.raises(ConditioningError, match="row 2: tuple entry 1 has"):
        jc.parallel_sum_certificate([b, singular], _directions(2, 3, 14))


def test_the_entropy_gates_name_the_first_bad_row():
    a, b = _stacks(2, 3, 15, SpectrumWindow(0.1, 2.0))
    indefinite = _with_bad_row(b, 3, lambda m: m - 3.0 * np.eye(3))
    with pytest.raises(ValidationError, match="row 3"):
        ent.relative_entropy(a, indefinite)
    with pytest.raises(ValidationError, match="row 3"):
        ent.epsilon_limit_residual(a, indefinite, 1e-5)


def test_support_is_tested_row_by_row():
    # row 1 of B has a kernel that A leaks into, row 2 a kernel A avoids
    a = np.stack([np.diag([0.5, 0.5])] * 3)
    b = np.stack([np.diag([0.4, 0.6]), np.diag([1.0, 0.0]), np.diag([1.0, 0.0])])
    a[2] = np.diag([1.0, 0.0])
    out = ent.relative_entropy(a, b)
    assert out[1] == -np.inf
    assert out[0] == ent.relative_entropy(a[0], b[0])
    assert out[2] == pytest.approx(0.0, abs=1e-14)


def test_a_pole_inside_the_window_is_refused():
    with pytest.raises(ValueError, match="u=2.0"):
        rv.elementary_decomposition_residual(np.array([-1.0, 2.0]), 1.0, 1.5, WINDOW)
