"""Every resolvent route reads R from one gate, ``resolvent._resolvents``: a
Pick call checks and diagonalizes its point A once, however many poles it
sums, then inverts one pole at a time, and gives the bits of the atom-by-atom
sums of single resolvents."""

import numpy as np
import pytest

from matconvex import resolvent as rv
from matconvex.errors import DomainViolationError
from matconvex.linalg import SpectrumWindow
from matconvex.rand import RandomSpec, random_directions, random_in_window_rows
from matconvex.resolvent import (
    PickRepresentation,
    ResolventPoint,
    pick_eval_matrix,
    pick_second_derivative,
    resolvent_second_derivative,
    resolvent_value,
)
from test_one_bound import SRC, call_sites

WINDOW = SpectrumWindow(0.1, 5.0)


def _rep(atoms: int) -> PickRepresentation:
    """``atoms`` poles, alternately below and above the window."""
    rng = RandomSpec(40, atoms).rng()
    return PickRepresentation(0.5, -0.2, 0.3, 1.0, WINDOW, tuple(
        (float(rng.uniform(-6.0, 0.0) if j % 2 else rng.uniform(5.5, 12.0)),
         float(rng.uniform(0.1, 1.0))) for j in range(atoms)))


def _point(n: int = 4, rows: int = 3):
    spec = RandomSpec(41)
    return (random_in_window_rows(n, WINDOW, spec.rngs(range(rows))),
            random_directions(1, n, spec.stream(rows).rngs(range(rows)))[0])


def _atomwise_value(rep, a):
    """The matrix value as a sum of single-pole ``resolvent_value`` terms."""
    eye = np.eye(a.shape[-1])
    total = rep.alpha * eye + rep.beta * a + rep.gamma * (a @ a)
    for u, w in rep.atoms:
        point = ResolventPoint(u, rep.window)
        coeff = (1.0 + u * u) * (u - rep.c)
        total += w * (coeff * point.sign * resolvent_value(a, point)
                      - u * a + (u * rep.c - (1.0 + u * u)) * eye)
    return total


def _atomwise_second_derivative(rep, m, q):
    """The second derivative as a sum of single-pole
    ``resolvent_second_derivative`` terms, weighted by w (1 + u^2) |u - c|."""
    total = 2.0 * rep.gamma * (q @ q)
    for u, w in rep.atoms:
        coeff = w * (1.0 + u * u) * abs(u - rep.c)
        total = total + coeff * resolvent_second_derivative(m, q, ResolventPoint(u, rep.window))
    return total


@pytest.mark.parametrize("atoms", [0, 2, 16])
@pytest.mark.parametrize("route", ["value", "second_derivative"])
def test_a_pick_call_checks_and_diagonalizes_its_point_once(monkeypatch, route, atoms):
    rep, (a, q) = _rep(atoms), _point()
    calls = {"eigvalsh": 0, "inv": 0}
    checked = []

    def count(name, kernel):
        def spy(*args, **kwargs):
            calls[name] += 1
            return kernel(*args, **kwargs)
        return spy

    check = rv.check_hermitian
    for name in calls:
        monkeypatch.setattr(np.linalg, name, count(name, getattr(np.linalg, name)))
    monkeypatch.setattr(rv, "check_hermitian", lambda h: (checked.append(h), check(h))[1])
    if route == "value":
        pick_eval_matrix(rep, a)
        expected = [a]
    else:
        pick_second_derivative(rep, a, q)
        expected = [q, a]
    assert calls == {"eigvalsh": 1, "inv": atoms}
    assert len(checked) == len(expected)
    assert all(h is want for h, want in zip(checked, expected))


@pytest.mark.parametrize("n, rows", [(4, 20), (32, 4), (3, None)])
def test_the_pick_routes_give_the_bits_of_their_atomwise_sums(n, rows):
    rep, (a, q) = _rep(16), _point(n, rows or 1)
    if rows is None:  # a lone matrix
        a, q = a[0], q[0]
    assert np.array_equal(pick_eval_matrix(rep, a), _atomwise_value(rep, a))
    assert np.array_equal(pick_second_derivative(rep, a, q), _atomwise_second_derivative(rep, a, q))


def test_the_gate_holds_the_only_eigensolve_of_the_resolvent_module():
    assert call_sites((SRC / "resolvent.py").read_text(), "eigvalsh") == {"_resolvents": 1}


def test_an_atomless_second_derivative_checks_the_spectrum_of_its_point():
    # as pick_eval_matrix does: M outside the window is refused, atoms or not
    rep = PickRepresentation(0.0, 0.0, 1.5, 1.0, WINDOW)
    m = np.diag([1.0, 6.0])
    for route in (lambda: pick_eval_matrix(rep, m),
                  lambda: pick_second_derivative(rep, m, np.eye(2))):
        with pytest.raises(DomainViolationError, match="^eigenvalue 6.0 of A outside window"):
            route()
