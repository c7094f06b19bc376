"""Entropies, pinching, and the inequality chain on hand-checked states."""

import math

import numpy as np
import pytest

from helpers import classically_correlated_pair, ghz_state, product_state
from matconvex.entropy import (
    SSA_CHAIN_TOL,
    DensityOperator,
    bell_state,
    conditional_entropy,
    epsilon_limit_residual,
    haar_average_residual,
    lieb_ruskai_concavity_gap,
    mutual_information_decomposition,
    partial_trace,
    pinch,
    pinch_monte_carlo,
    random_state,
    random_states,
    relative_entropy,
    ssa_report,
    ssa_slack,
    subadditivity_report,
    uhlmann_tilde,
    von_neumann_entropy,
)
from matconvex.errors import DimensionMismatchError, HermiticityError, ValidationError
from matconvex.rand import RandomSpec

LOG2 = math.log(2.0)
SPEC = RandomSpec(314)


def test_density_operator_validation():
    with pytest.raises(ValidationError):
        DensityOperator(np.diag([0.6, 0.6]), (2,))          # trace 1.2
    with pytest.raises(ValidationError):
        DensityOperator(np.diag([1.5, -0.5]), (2,))         # not PSD
    with pytest.raises(DimensionMismatchError):
        DensityOperator(np.eye(4) / 4.0, (2, 3))


def test_entropy_pure_maximal_and_hand_value():
    pure = DensityOperator(np.diag([1.0, 0.0]), (2,))
    assert von_neumann_entropy(pure) == pytest.approx(0.0, abs=1e-12)
    uniform = DensityOperator(np.eye(4) / 4.0, (4,))
    assert von_neumann_entropy(uniform) == pytest.approx(math.log(4.0))
    skew = DensityOperator(np.diag([0.75, 0.25]), (2,))
    expect = 0.75 * math.log(4.0 / 3.0) + 0.25 * math.log(4.0)
    assert von_neumann_entropy(skew) == pytest.approx(expect)


def test_entropy_bounds_random_states():
    for t in range(20):
        rho = random_state((6,), SPEC.stream(t))
        s = von_neumann_entropy(rho)
        assert -1e-12 <= s <= math.log(6.0) + 1e-12


def test_partial_trace_product_and_bell():
    rho1 = DensityOperator(np.diag([0.7, 0.3]), (2,))
    rho2 = DensityOperator(np.diag([0.2, 0.8]), (2,))
    prod = product_state(rho1, rho2)
    np.testing.assert_allclose(prod.marginal([0]).matrix, rho1.matrix, atol=1e-14)
    np.testing.assert_allclose(prod.marginal([1]).matrix, rho2.matrix, atol=1e-14)
    np.testing.assert_allclose(
        partial_trace(prod, [0, 1]).matrix, prod.matrix, atol=1e-14
    )
    bell1 = bell_state().marginal([0])
    np.testing.assert_allclose(bell1.matrix, np.eye(2) / 2.0, atol=1e-14)


def test_partial_trace_index_validation():
    with pytest.raises(ValidationError):
        partial_trace(bell_state(), [])
    with pytest.raises(ValidationError):
        partial_trace(bell_state(), [2])


def test_conditional_entropy_values():
    rho1 = DensityOperator(np.diag([0.7, 0.3]), (2,))
    rho2 = DensityOperator(np.diag([0.2, 0.8]), (2,))
    prod = product_state(rho1, rho2)
    assert conditional_entropy(prod, [0], [1]) == pytest.approx(
        von_neumann_entropy(rho1)
    )
    # negative for the Bell state: quantum signature
    assert conditional_entropy(bell_state(), [0], [1]) == pytest.approx(-LOG2)
    assert conditional_entropy(
        classically_correlated_pair(), [0], [1]
    ) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValidationError):
        conditional_entropy(bell_state(), [0], [0])


def test_pinch_bell_state():
    pinched = pinch(bell_state())
    np.testing.assert_allclose(
        pinched.matrix, np.diag([0.5, 0.0, 0.0, 0.5]), atol=1e-12
    )


def test_pinch_fixed_points():
    prod = product_state(
        DensityOperator(np.diag([0.7, 0.3]), (2,)),
        DensityOperator(np.diag([0.2, 0.8]), (2,)),
    )
    np.testing.assert_allclose(pinch(prod).matrix, prod.matrix, atol=1e-12)


@pytest.mark.parametrize("t", range(10))
def test_pinch_invariants_random(t):
    rho = random_state((2, 3), SPEC.stream(100 + t))
    pinched = pinch(rho)
    # marginal preservation
    for keep in ([0], [1]):
        np.testing.assert_allclose(
            pinched.marginal(keep).matrix, rho.marginal(keep).matrix, atol=1e-10
        )
    # entropy never decreases
    assert von_neumann_entropy(pinched) >= von_neumann_entropy(rho) - 1e-9
    # idempotence under the deterministic basis rule
    np.testing.assert_allclose(pinch(pinched).matrix, pinched.matrix, atol=1e-10)


def test_pinch_monte_carlo_converges():
    rho = random_state((2, 2), SPEC.stream(200))
    exact = pinch(rho).matrix
    d_small = np.linalg.norm(pinch_monte_carlo(rho, 100, SPEC.stream(201)).matrix - exact)
    d_large = np.linalg.norm(pinch_monte_carlo(rho, 10_000, SPEC.stream(201)).matrix - exact)
    assert d_large < d_small
    # a single phase conjugation already preserves the pinching-basis diagonal
    from matconvex.entropy import pinch_product_basis

    one = pinch_monte_carlo(rho, 1, SPEC.stream(202))
    basis = pinch_product_basis(rho)
    np.testing.assert_allclose(
        np.diagonal(basis.conj().T @ one.matrix @ basis),
        np.diagonal(basis.conj().T @ rho.matrix @ basis),
        atol=1e-12,
    )


def test_haar_average_fixed_point_and_decay():
    rho1 = DensityOperator(np.diag([0.7, 0.3]), (2,))
    fixed = DensityOperator(np.kron(rho1.matrix, np.eye(2) / 2.0), (2, 2))
    assert haar_average_residual(fixed, 10, SPEC.stream(300)) < 1e-12
    rho = random_state((2, 2), SPEC.stream(301))
    r_small = haar_average_residual(rho, 100, SPEC.stream(302))
    r_large = haar_average_residual(rho, 10_000, SPEC.stream(302))
    assert 2.0 < r_small / r_large < 50.0


def test_relative_entropy_values():
    a = np.diag([0.5, 0.5])
    b = np.diag([0.75, 0.25])
    assert relative_entropy(a, a) == pytest.approx(0.0, abs=1e-14)
    expect = -(0.5 * math.log(0.5 / 0.75) + 0.5 * math.log(0.5 / 0.25))
    assert relative_entropy(a, b) == pytest.approx(expect)
    # B = I/d gives S(rho) - log d
    rho = random_state((3,), SPEC.stream(400))
    assert relative_entropy(rho.matrix, np.eye(3) / 3.0) == pytest.approx(
        von_neumann_entropy(rho) - math.log(3.0)
    )


def test_relative_entropy_nonpositive_for_states():
    for t in range(20):
        a = random_state((4,), SPEC.stream(500 + t)).matrix
        b = random_state((4,), SPEC.stream(600 + t)).matrix
        assert relative_entropy(a, b) <= 1e-12


def test_relative_entropy_support_violation():
    assert relative_entropy(np.diag([0.5, 0.5]), np.diag([1.0, 0.0])) == -math.inf


def test_epsilon_limit():
    a = np.diag([1.0])
    b = np.diag([2.0])
    # quotient (b^eps - 1)/eps approaches log 2
    assert epsilon_limit_residual(a, b, 1e-5) < 1e-4
    a3 = random_state((3,), SPEC.stream(700)).matrix + 0.1 * np.eye(3)
    b3 = random_state((3,), SPEC.stream(701)).matrix + 0.1 * np.eye(3)
    r_coarse = epsilon_limit_residual(a3, b3, 1e-3)
    r_fine = epsilon_limit_residual(a3, b3, 1e-4)
    assert 5.0 < r_coarse / r_fine < 20.0
    with pytest.raises(ValueError):
        epsilon_limit_residual(a3, b3, 1.5)


def test_lieb_ruskai_gap_takes_one_weight_per_row():
    sa = random_states((2, 2), SPEC.stream(810), 6)
    sb = random_states((2, 2), SPEC.stream(820), 6)
    lams = np.linspace(0.1, 0.9, 6)
    gaps = lieb_ruskai_concavity_gap(sa, sb, lams)
    rows = [lieb_ruskai_concavity_gap(random_state((2, 2), SPEC.stream(810 + t)),
                                      random_state((2, 2), SPEC.stream(820 + t)), lam)
            for t, lam in enumerate(lams)]
    assert gaps.shape == (6,)
    np.testing.assert_allclose(gaps, rows, rtol=0.0, atol=1e-15)
    # one pair of states against a stack of weights
    first = lieb_ruskai_concavity_gap(random_state((2, 2), SPEC.stream(810)),
                                      random_state((2, 2), SPEC.stream(820)), lams)
    assert first[0] == pytest.approx(rows[0], abs=1e-15)
    for bad in (np.array([0.5, math.nan]), np.array([0.5, 1.0]), math.nan, 0.0):
        with pytest.raises(ValueError, match="mixing weight"):
            lieb_ruskai_concavity_gap(sa, sb, bad)


def test_subadditivity_report_builds_each_marginal_once(monkeypatch):
    from matconvex import entropy as ent

    states = random_states((2, 3), SPEC.stream(830), 4)
    pinched_entropy = von_neumann_entropy(pinch(states))
    real, kept = ent.partial_trace, []

    def counted(rho, keep):
        kept.append(list(keep))
        return real(rho, keep)

    monkeypatch.setattr(ent, "partial_trace", counted)
    rep = subadditivity_report(states)
    assert sorted(kept) == [[0], [1]]
    np.testing.assert_array_equal(rep.values["S_pinched"], pinched_entropy)


def _count_states_and_traces(monkeypatch):
    """Record every DensityOperator built and every partial trace's keep set."""
    from matconvex import entropy as ent

    built, kept = [], []
    real_init, real_trace = ent.DensityOperator.__post_init__, ent.partial_trace

    def counted_init(self):
        built.append(np.shape(self.matrix))
        real_init(self)

    def counted_trace(rho, keep):
        kept.append(list(keep))
        return real_trace(rho, keep)

    monkeypatch.setattr(ent.DensityOperator, "__post_init__", counted_init)
    monkeypatch.setattr(ent, "partial_trace", counted_trace)
    return built, kept


def test_ssa_report_builds_each_state_once(monkeypatch):
    states = random_states((2, 3, 2), SPEC.stream(840), 6)
    built, kept = _count_states_and_traces(monkeypatch)
    rep = ssa_report(states)
    # rho_12, rho_23, rho_2, the decoupled state and its (2, 3) marginal
    assert sorted(kept) == [[0, 1], [1], [1, 2], [1, 2]]
    assert sorted(built) == [(6, 3, 3), (6, 6, 6), (6, 6, 6), (6, 6, 6), (6, 12, 12)]
    assert rep.slacks["ssa"].shape == rep.slacks["uhlmann_chain_matches"].shape == (6,)


def test_ssa_slack_is_the_reports_slack_without_decoupled_states(monkeypatch):
    for dims, count in (((2, 2, 2), 40), ((2, 3, 2), 25), ((3, 2, 2), 1)):
        states = random_states(dims, SPEC.stream(850 + count), count)
        rep = ssa_report(states)
        built, kept = _count_states_and_traces(monkeypatch)
        slack = ssa_slack(states)
        monkeypatch.undo()
        np.testing.assert_array_equal(slack, rep.slacks["ssa"])
        assert sorted(kept) == [[0, 1], [1], [1, 2]] and len(built) == 3
        v = rep.values
        np.testing.assert_array_equal(slack, (v["S12"] - v["S2"]) - (v["S123"] - v["S23"]))
    assert ssa_slack(ghz_state()) == ssa_report(ghz_state()).slacks["ssa"]
    with pytest.raises(ValidationError, match="three factors"):
        ssa_slack(bell_state())


@pytest.mark.parametrize("dims, part_a, part_b", [
    ((2, 3), [0], [1]), ((2, 2, 2), [0], [1, 2]), ((2, 3, 2), [2, 0], [1]),
])
def test_conditional_entropy_reads_the_state_when_every_factor_is_kept(
        monkeypatch, dims, part_a, part_b):
    states = random_states(dims, SPEC.stream(860), 7)
    # the value a partial trace that keeps every factor gave
    old = (von_neumann_entropy(partial_trace(states, range(len(dims))))
           - von_neumann_entropy(partial_trace(states, sorted(part_b))))
    built, kept = _count_states_and_traces(monkeypatch)
    new = conditional_entropy(states, part_a, part_b)
    assert kept == [sorted(part_b)] and len(built) == 1
    np.testing.assert_array_equal(new, old)
    # a smaller kept set still traces
    if len(dims) == 3:
        kept.clear()
        conditional_entropy(states, [0], [1])
        assert kept == [[0, 1], [1]]


def test_lieb_ruskai_gap():
    sa = random_state((2, 2), SPEC.stream(800))
    sb = random_state((2, 2), SPEC.stream(801))
    assert lieb_ruskai_concavity_gap(sa, sa, 0.5) == pytest.approx(0.0, abs=1e-12)
    assert lieb_ruskai_concavity_gap(sa, sb, 0.5) >= -1e-10
    assert abs(lieb_ruskai_concavity_gap(sa, sb, 1e-3)) <= 1e-2
    with pytest.raises(DimensionMismatchError):
        lieb_ruskai_concavity_gap(sa, random_state((2, 3), SPEC), 0.5)


def test_subadditivity_report_bell():
    rep = subadditivity_report(bell_state())
    assert rep.values["S12"] == pytest.approx(0.0, abs=1e-12)
    assert rep.values["S_pinched"] == pytest.approx(LOG2)
    assert rep.min_slack() >= -1e-9


def test_subadditivity_product_state_tight():
    prod = product_state(
        DensityOperator(np.diag([0.7, 0.3]), (2,)),
        DensityOperator(np.diag([0.2, 0.8]), (2,)),
    )
    rep = subadditivity_report(prod)
    assert abs(rep.slacks["pinching_raises_entropy"]) < 1e-10
    assert abs(rep.slacks["classical_subadditivity"]) < 1e-10


def test_mutual_information_decomposition_examples():
    bell = mutual_information_decomposition(bell_state())
    assert bell.values["quantum_part"] == pytest.approx(LOG2, abs=1e-9)
    assert bell.values["classical_part"] == pytest.approx(LOG2, abs=1e-9)
    classical = mutual_information_decomposition(classically_correlated_pair())
    assert classical.values["quantum_part"] == pytest.approx(0.0, abs=1e-12)
    assert classical.values["classical_part"] == pytest.approx(LOG2)
    for t in range(10):
        rep = mutual_information_decomposition(random_state((2, 3), SPEC.stream(900 + t)))
        assert rep.values["quantum_part"] >= -1e-9
        assert rep.values["classical_part"] >= -1e-9
        total = rep.values["quantum_part"] + rep.values["classical_part"]
        assert total == pytest.approx(rep.values["mutual_information"], abs=1e-10)


def test_uhlmann_tilde_ghz():
    tilde = uhlmann_tilde(ghz_state())
    expect = np.kron(np.diag([0.5, 0.0, 0.0, 0.5]), np.eye(2) / 2.0)
    np.testing.assert_allclose(tilde.matrix, expect, atol=1e-12)
    assert np.trace(tilde.matrix).real == pytest.approx(1.0)
    with pytest.raises(ValidationError):
        uhlmann_tilde(bell_state())


def test_uhlmann_entropy_relations():
    rho = random_state((2, 2, 3), SPEC.stream(950))
    tilde = uhlmann_tilde(rho)
    s12 = von_neumann_entropy(rho.marginal([0, 1]))
    assert von_neumann_entropy(tilde) == pytest.approx(s12 + math.log(3.0), abs=1e-9)


def test_ssa_report_ghz_and_product():
    rep = ssa_report(ghz_state())
    assert rep.values["S123"] == pytest.approx(0.0, abs=1e-12)
    assert rep.slacks["ssa"] == pytest.approx(LOG2)
    # slack = SSA_CHAIN_TOL - |mismatch|, so |mismatch| < 1e-9 reads as:
    assert rep.slacks["uhlmann_chain_matches"] > SSA_CHAIN_TOL - 1e-9
    factors = [DensityOperator(np.diag([0.6, 0.4]), (2,)) for _ in range(3)]
    prod_rep = ssa_report(product_state(*factors))
    assert abs(prod_rep.slacks["ssa"]) < 1e-10


@pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 2)])
def test_ssa_random_states(dims):
    for t in range(30):
        rep = ssa_report(random_state(dims, SPEC.stream(hash(dims) % 1000 + t)))
        assert rep.slacks["ssa"] >= -1e-8


def test_ssa_slack_consistent_with_concavity_path():
    # both code paths must agree in sign on the same random states
    for t in range(10):
        rho = random_state((2, 2, 2), SPEC.stream(1100 + t))
        assert ssa_report(rho).slacks["ssa"] >= -1e-8
        other = random_state((2, 2, 2), SPEC.stream(1200 + t))
        assert lieb_ruskai_concavity_gap(rho, other, 0.5) >= -1e-8


# ---------------------------------------------------------------------------
# Stacks: a (T, N, N) DensityOperator runs every row through the same kernels.


def _loop_partial_trace(mat, dims, keep):
    """Independent oracle: trace out one factor at a time with np.trace."""
    t = mat.reshape(*dims, *dims)
    nfac, removed = len(dims), 0
    for i in range(nfac):
        if i not in keep:
            ax = i - removed
            t = np.trace(t, axis1=ax, axis2=ax + nfac - removed)
            removed += 1
    d = int(np.prod([dims[i] for i in keep]))
    return t.reshape(d, d)


def test_random_states_rows_equal_random_state():
    stack = random_states((2, 3, 2), SPEC.stream(1300), 7)
    assert stack.matrix.shape == (7, 12, 12)
    for t in range(7):
        single = random_state((2, 3, 2), SPEC.stream(1300 + t))
        np.testing.assert_array_equal(stack.matrix[t], single.matrix)
        np.testing.assert_array_equal(stack.spectrum[t], single.spectrum)


@pytest.mark.parametrize("keep", [[0], [1], [2], [0, 1], [0, 2], [1, 2], [0, 1, 2]])
def test_stacked_partial_trace_matches_loop_oracle(keep):
    dims = (2, 3, 2)
    stack = random_states(dims, SPEC.stream(1400), 5)
    traced = partial_trace(stack, keep)
    for t in range(5):
        np.testing.assert_allclose(
            traced.matrix[t], _loop_partial_trace(stack.matrix[t], dims, keep),
            atol=1e-15,
        )


def _with_degenerate_rows(dims, named, spec):
    """A stack of random states with the named states as its first rows."""
    rows = [s.matrix for s in named] + list(random_states(dims, spec, 6).matrix)
    return DensityOperator(np.stack(rows), dims)


STACK_CASES = [
    ((2, 2, 2), lambda: [ghz_state()]),
    ((2, 3, 2), lambda: []),
    ((2, 3), lambda: []),
    ((2, 2), lambda: [bell_state(), classically_correlated_pair()]),
]


@pytest.mark.parametrize("dims, named", STACK_CASES)
def test_stacked_reports_match_per_state(dims, named):
    stack = _with_degenerate_rows(dims, named(), SPEC.stream(1500))
    reports = ([ssa_report] if len(dims) == 3
               else [subadditivity_report, mutual_information_decomposition])
    for report in reports:
        stacked = report(stack)
        for t, row in enumerate(stack.matrix):
            single = report(DensityOperator(row, dims))
            for key, value in single.values.items():
                assert abs(stacked.values[key][t] - value) <= 1e-14, (key, t)
            for key, value in single.slacks.items():
                assert abs(stacked.slacks[key][t] - value) <= 1e-14, (key, t)
            assert abs(stacked.min_slack()[t] - single.min_slack()) <= 1e-14


def test_stacked_pinch_runs_the_degenerate_fallback_per_row():
    stack = _with_degenerate_rows(
        (2, 2), [bell_state(), classically_correlated_pair()], SPEC.stream(1600))
    pinched = pinch(stack)
    np.testing.assert_allclose(
        pinched.matrix[0], np.diag([0.5, 0.0, 0.0, 0.5]), atol=1e-12)
    np.testing.assert_allclose(
        pinched.matrix[1], classically_correlated_pair().matrix, atol=1e-12)
    for t, row in enumerate(stack.matrix):
        np.testing.assert_allclose(
            pinched.matrix[t], pinch(DensityOperator(row, (2, 2))).matrix, atol=1e-14)


def test_closed_form_pinching_basis_matches_the_block_rule():
    from matconvex.entropy import _span_block, pinching_basis

    marginals = random_states((2, 3), SPEC.stream(1700), 20).marginal([1]).matrix
    bases = pinching_basis(marginals)
    for t, m in enumerate(marginals):
        _, v = np.linalg.eigh(m)
        by_rule = np.column_stack([_span_block(v[:, [j]]) for j in range(3)])
        np.testing.assert_allclose(bases[t], by_rule, atol=1e-14)


@pytest.mark.parametrize("bad, message", [
    (np.diag([1.5, -0.5, 0.0, 0.0]), "negative eigenvalue"),
    (np.eye(4) / 2.0, "trace"),
])
@pytest.mark.parametrize("k", [0, 3])
def test_stack_names_its_first_bad_row(bad, message, k):
    rows = random_states((2, 2), SPEC.stream(1800), 5).matrix.copy()
    rows[k] = bad
    with pytest.raises(ValidationError, match=f"row {k}: .*{message}"):
        DensityOperator(rows, (2, 2))


def test_non_hermitian_input_is_rejected_not_repaired():
    with pytest.raises(HermiticityError):
        DensityOperator(np.array([[0.5, 1.0], [0.0, 0.5]]), (2,))
    with pytest.raises(HermiticityError, match="non-finite"):
        DensityOperator(np.array([[0.5, np.nan], [np.nan, 0.5]]), (2,))
    rows = random_states((2,), SPEC.stream(1900), 4).matrix.copy()
    rows[2] = [[0.5, 1.0], [0.0, 0.5]]
    with pytest.raises(HermiticityError, match="row 2: .*asymmetry"):
        DensityOperator(rows, (2,))
    rows[2, 0, 1] = np.inf
    with pytest.raises(HermiticityError, match="row 2: .*non-finite"):
        DensityOperator(rows, (2,))


def test_haar_average_residual_makes_one_qr_call(monkeypatch):
    real_qr = np.linalg.qr
    calls = []

    def counting_qr(*args, **kwargs):
        calls.append(args[0].shape)
        return real_qr(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counting_qr)
    haar_average_residual(bell_state(), 10_000, SPEC.stream(2000))
    assert calls == [(10_000, 2, 2)]


def test_monte_carlo_averages_build_one_generator_each(monkeypatch):
    # an average has no per-sample witness, so it owns one stream
    state = random_state((2, 2), SPEC.stream(2300))
    real, calls = RandomSpec.rng, []

    def counted(spec):
        calls.append(spec.stream_id)
        return real(spec)

    monkeypatch.setattr(RandomSpec, "rng", counted)
    haar_average_residual(bell_state(), 1000, SPEC.stream(2400))
    assert calls == [SPEC.stream(2400).stream_id]
    small = pinch_monte_carlo(state, 100, SPEC.stream(2500))
    large = pinch_monte_carlo(state, 1000, SPEC.stream(2500))
    assert calls[1:] == [SPEC.stream(2500).stream_id] * 2
    assert np.linalg.norm(large.matrix - pinch(state).matrix) < np.linalg.norm(
        small.matrix - pinch(state).matrix)


def test_failed_uhlmann_cross_check_fails_the_report(monkeypatch):
    import matconvex.entropy as ent

    ghz = ghz_state()
    tilde = uhlmann_tilde(ghz).matrix
    real = ent.von_neumann_entropy

    def wrong_on_tilde(rho):
        shift = 1e-6 if rho.matrix.shape == tilde.shape and np.array_equal(
            rho.matrix, tilde) else 0.0
        return real(rho) + shift

    monkeypatch.setattr(ent, "von_neumann_entropy", wrong_on_tilde)
    rep = ssa_report(ghz)
    assert rep.slacks["ssa"] == pytest.approx(LOG2)
    assert rep.slacks["uhlmann_chain_matches"] < 0
    assert rep.min_slack() < 0


def test_monte_carlo_averages_match_their_sample_loops():
    # each average owns one stream: every sample comes from spec.rng()
    from matconvex.entropy import pinch_product_basis

    rho = random_state((2, 3), SPEC.stream(2100))
    spec = SPEC.stream(2200)
    rng = spec.rng()
    re, im = rng.standard_normal((300, 3, 3)), rng.standard_normal((300, 3, 3))
    acc = np.zeros((6, 6), dtype=complex)
    for s in range(300):
        q, r = np.linalg.qr(re[s] + 1j * im[s])
        big = np.kron(np.eye(2), q * (np.diagonal(r) / np.abs(np.diagonal(r))))
        acc += big.conj().T @ rho.matrix @ big
    target = np.kron(rho.marginal([0]).matrix, np.eye(3) / 3.0)
    assert haar_average_residual(rho, 300, spec) == pytest.approx(
        np.linalg.norm(acc / 300 - target), abs=1e-14)

    basis = pinch_product_basis(rho)
    in_basis = basis.conj().T @ rho.matrix @ basis
    acc = np.zeros((6, 6), dtype=complex)
    rng = spec.rng()
    for s in range(300):
        p = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=6))
        acc += (p.conj()[:, None] * in_basis) * p[None, :]
    np.testing.assert_allclose(pinch_monte_carlo(rho, 300, spec).matrix,
                               basis @ (acc / 300) @ basis.conj().T, atol=1e-14)
