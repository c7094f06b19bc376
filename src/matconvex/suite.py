"""The full acceptance battery behind `run-suite`.

Check i (in ``CHECKS`` order) runs on block i + 1, ``RandomSpec(seed, (i + 1)
* STREAM_BLOCK)``, through :func:`run_parts`, which times every report's parts.
It draws only from sub-streams of its block.  Stream ids nest, so the helpers
it hands a sub-stream (``pinch_monte_carlo``, ``haar_average_residual``, which
each draw all their samples from that one stream) stay inside the check's
block too, and no two checks share a draw.  Each check bounds worst-case
quantities over a fixed ensemble, and :func:`io.bound_record` reduces them:
NaN-propagating worst cases (so a NaN trial fails its check) and a margin
that is the least distance to a bound, positive when healthy.
``convexity_detectors`` and ``determinism`` report +1 or -1, and
``tensor_power_quadrature`` reads -1 when its error curve is not strictly
decreasing.

Trials run as stacks.  Each trial still draws from its own stream in the
order a lone trial would; the trials of a check that draw their shape (the
(k, n) of a parallel sum, the n of a Lieb or joint-concavity trial, the pole
or size of a resolvent or tensor-power trial) are grouped by shape by
:func:`convexity.shape_groups`, each group runs through the kernels as one
stack, and the results go back into stream order before the reductions.
"""

from __future__ import annotations

import math
import time
from typing import Callable, Iterable

import numpy as np

from . import convexity as cx
from . import entropy as ent
from . import jointconcavity as jc
from . import resolvent as rv
from .io import bound_record, check_record
from .linalg import SpectrumWindow, factor, frobenius, from_spectrum
from .quadrature import QuadratureConfig
from .rand import (
    STREAM_BLOCK,
    RandomSpec,
    random_densities,
    random_directions,
    random_hermitian_rows,
    random_in_window_rows,
    uniform_range,
    uniform_rows,
)

_WINDOW_WIDE = SpectrumWindow(0.1, 5.0)
_WINDOW_NARROW = SpectrumWindow(0.1, 2.0)


def check_ssa_battery(spec: RandomSpec) -> dict:
    """SSA slack over random tripartite ensembles; tolerance 1e-8."""
    slacks = np.concatenate([
        ent.ssa_slack(ent.random_states(dims, spec.stream(500 * k), 500))
        for k, dims in enumerate(((2, 2, 2), (2, 3, 2)))
    ])
    return bound_record("ssa_battery", {"worst_slack": (slacks, ">=", -1e-8)},
                        trials=len(slacks), tolerance=1e-8)


def check_subadditivity_chain(spec: RandomSpec) -> dict:
    """Both subadditivity slacks >= -1e-9 and pinch preserves marginals to 1e-10."""
    report, marginals, pinched = ent.subadditivity_chain(ent.random_states((2, 3), spec, 500))
    devs = [np.linalg.norm(pinched.marginal([k]).matrix - rho.matrix, axis=(-2, -1))
            for k, rho in enumerate(marginals)]
    return bound_record("subadditivity_chain",
                        {"worst_slack": (report.min_slack(), ">=", -1e-9),
                         "worst_marginal_deviation": (devs, "<=", 1e-10)},
                        slack_tolerance=1e-9, marginal_tolerance=1e-10)


def check_mutual_information(spec: RandomSpec) -> dict:
    """Decomposition into nonnegative parts that sum to the mutual information;
    Bell state gives (log 2, log 2)."""
    rep = ent.mutual_information_decomposition(ent.random_states((2, 3), spec, 500))
    q, c = rep.values["quantum_part"], rep.values["classical_part"]
    bell = ent.mutual_information_decomposition(ent.bell_state())
    bell_errs = [abs(bell.values[part] - math.log(2.0))
                 for part in ("quantum_part", "classical_part")]
    return bound_record("mutual_information", {
        "worst_part": ([q, c], ">=", -1e-9),
        "worst_sum_mismatch": (np.abs(q + c - rep.values["mutual_information"]),
                               "<=", 1e-10),
        "bell_error": (bell_errs, "<=", 1e-9)})


def _parallel_sum_second_derivative(mats: list, dirs: list) -> np.ndarray:
    """d^2/dt^2 of R = X^(-1), X = sum_j (A_j + t Q_j)^(-1), by resolvent
    calculus: 2 R X' R X' R - R X'' R with X' = -sum_j A_j^(-1) Q_j A_j^(-1)
    and X'' = 2 sum_j A_j^(-1) Q_j A_j^(-1) Q_j A_j^(-1), every inverse from
    ``np.linalg.inv``: an oracle sharing no code with the certificate."""
    invs = [np.linalg.inv(a) for a in mats]
    r = np.linalg.inv(sum(invs))
    d1 = -sum(a_inv @ q @ a_inv for a_inv, q in zip(invs, dirs))
    d2 = 2.0 * sum(a_inv @ q @ a_inv @ q @ a_inv for a_inv, q in zip(invs, dirs))
    return 2.0 * (r @ d1 @ r @ d1 @ r) - r @ d2 @ r


def check_parallel_sum(spec: RandomSpec) -> dict:
    """Exact Hessian of the parallel sum is negative semidefinite, the block
    projection residuals vanish, and the -2 Y*(I - T) Y Hessian matches the
    resolvent-calculus second derivative to 1e-12 (relative)."""
    rngs = spec.rngs(range(200))
    shapes = [(int(rng.integers(2, 4)), int(rng.integers(2, 6))) for rng in rngs]
    eigs, projs, rels = np.empty(200), np.empty(200), np.empty(200)
    for (k, n), rows, group in cx.shape_groups(rngs, shapes):
        mats = [random_in_window_rows(n, _WINDOW_WIDE, group) for _ in range(k)]
        dirs = random_directions(k, n, group)
        hess, eigs[rows], projs[rows] = jc.parallel_sum_certificate(mats, dirs)
        oracle = _parallel_sum_second_derivative(mats, dirs)
        rels[rows] = frobenius(hess - oracle) / np.maximum(frobenius(oracle), 1e-30)
    return bound_record("parallel_sum_certificate", {
        "max_hessian_eigenvalue": (eigs, "<=", 1e-8),
        "worst_projection_residual": (projs, "<=", 1e-9),
        "worst_oracle_relative_deviation": (rels, "<=", 1e-12)})


def check_tensor_power(spec: RandomSpec) -> dict:
    """Quadrature route for A^p x B^(1-p) agrees with the spectral route and
    the error decreases with the node count."""
    errors = np.empty((2, 20))
    sizes = [2 + t % 2 for t in range(20)]  # n = 2 on even trials, 3 on odd ones
    for i, p in enumerate([(0.5, 0.5), (0.3, 0.7)]):
        for n, rows, rngs in cx.shape_groups(spec.rngs(range(100 * i, 100 * i + 20)), sizes):
            mats = [random_in_window_rows(n, _WINDOW_WIDE, rngs) for _ in range(2)]
            errors[i, rows] = jc.tensor_power_errors(mats, p, [64])[0]
    rngs = [spec.stream(999).rng()]
    mats = [random_in_window_rows(3, _WINDOW_WIDE, rngs)[0] for _ in range(2)]
    curve = jc.tensor_power_errors(mats, (0.3, 0.7), jc.ERROR_CURVE_NODES)
    decreasing = all(a > b for a, b in zip(curve, curve[1:]))
    rec = bound_record("tensor_power_quadrature",
                       {"worst_relative_error": (errors, "<=", 1e-5)},
                       error_curve_16_to_128=curve, strictly_decreasing=decreasing)
    # the monotone gate is no bound: a curve that fails it fails the record
    return rec if decreasing else check_record(rec["name"], -1.0, rec["detail"])


def check_c_constant(spec: RandomSpec) -> dict:
    """Normalization constants against their closed forms: c_2 = Gamma(1/2)^2
    = pi to 1e-6 and c_3 = Gamma(1/3)^3 to 1e-5."""
    c2 = jc.c_constant((0.5, 0.5), QuadratureConfig(64))
    c3 = jc.c_constant((1.0 / 3, 1.0 / 3, 1.0 / 3), QuadratureConfig(64))
    return bound_record("c_constant", {
        "c2_error_vs_pi": (abs(c2 - math.pi), "<=", 1e-6),
        "c3_error_vs_gamma_cubed": (abs(c3 - math.gamma(1.0 / 3) ** 3), "<=", 1e-5)},
        c2=c2, c3=c3)


def check_lieb_wyd(spec: RandomSpec) -> dict:
    """Midpoint joint concavity of Tr[A^p K* B^r K] and the commuting-case
    vanishing of the skew information."""
    rngs, density_rngs = spec.rngs(range(200)), spec.rngs(range(100000, 100200))
    sizes = [int(rng.integers(2, 5)) for rng in rngs]
    gaps, wyds = np.empty(200), np.empty(200)
    for n, rows, group in cx.shape_groups(rngs, sizes):
        gaps[rows], p = jc.lieb_midpoint_gap(n, _WINDOW_WIDE, group)
        rho = random_densities(n, [density_rngs[t] for t in rows])
        _, u = factor(rho)
        spectra = np.array([rng.standard_normal(n) for rng in group])
        k_comm = from_spectrum(spectra, u)
        wyds[rows] = np.abs(jc.wyd_skew_information(rho, k_comm, p))
    return bound_record("lieb_wyd", {
        "worst_scaled_concavity_gap": (gaps, ">=", -1e-8),
        "worst_commuting_wyd": (wyds, "<=", 1e-12)})


def check_relative_entropy(spec: RandomSpec) -> dict:
    """Epsilon-limit residual, joint concavity of relative entropy, and the
    conditional-entropy concavity gap."""
    rngs = spec.rngs(range(50))
    a, b = (random_in_window_rows(3, _WINDOW_NARROW, rngs) for _ in range(2))
    eps_residuals = ent.epsilon_limit_residual(a, b, 1e-5)
    rngs = spec.rngs(range(1000, 1200))
    sizes = [int(rng.integers(2, 5)) for rng in rngs]
    joint_gaps = np.empty(200)
    for n, rows, group in cx.shape_groups(rngs, sizes):
        a0, a1, b0, b1 = (random_in_window_rows(n, _WINDOW_NARROW, group) for _ in range(4))
        joint_gaps[rows] = ent.relative_entropy(0.5 * (a0 + a1), 0.5 * (b0 + b1)) - 0.5 * (
            ent.relative_entropy(a0, b0) + ent.relative_entropy(a1, b1))
    # trial t: states from streams 3000 + t and 4000 + t, weight from 2000 + t
    lams = uniform_rows(0.1, 0.9, spec.rngs(range(2000, 2200)))
    lr_gaps = ent.lieb_ruskai_concavity_gap(
        ent.random_states((2, 2), spec.stream(3000), 200),
        ent.random_states((2, 2), spec.stream(4000), 200), lams)
    return bound_record("relative_entropy_machinery", {
        "worst_epsilon_residual": (eps_residuals, "<=", 1e-3),
        "worst_joint_concavity_gap": (joint_gaps, ">=", -1e-8),
        "worst_lieb_ruskai_gap": (lr_gaps, ">=", -1e-8)})


def check_convexity_detectors(spec: RandomSpec) -> dict:
    """Positive and negative controls for the randomized detectors; each
    pair of definition tests shares its draws (:func:`convexity.definition_tests`)."""
    detail: dict = {}
    ok = True
    witness = None
    convex, nonconvex = ("x2", "inv"), ("x3", "x4")
    for name, v in zip(convex, cx.definition_tests(
            map(cx.builtin, convex), _WINDOW_WIDE, 4, 200, spec)):
        detail[f"{name}_definition"] = v.status
        ok = ok and v.status == "certified"
    for name, v in zip(nonconvex, cx.definition_tests(
            map(cx.builtin, nonconvex), _WINDOW_NARROW, 2, 1000, spec)):
        detail[f"{name}_definition"] = v.status
        if v.status != "violated":
            ok = False
            continue
        replayed = cx.replay_witness(cx.builtin(name), v.witness)
        replay_ok = abs(replayed - v.witness["margin"]) <= 1e-12
        detail[f"{name}_replay_matches"] = replay_ok
        ok = ok and replay_ok
        if name == "x4":
            witness = v.witness
    v = cx.monotonicity_test(cx.builtin("sqrt"), _WINDOW_WIDE, 4, 200, spec)
    detail["sqrt_monotone"] = v.status
    ok = ok and v.status == "certified"
    x3_loewner = float(np.linalg.eigvalsh(
        cx.loewner_matrix(cx.builtin("x3"), [0.1, 1.0])
    ).min())
    detail["x3_loewner_site_witness_min_eig"] = x3_loewner
    ok = ok and x3_loewner < -cx.TOL_VIOL
    return check_record("convexity_detectors", 1.0 if ok else -1.0, detail, witness)


def check_resolvent_exactness(spec: RandomSpec) -> dict:
    """Resolvent identity; the 2 R Q R Q R second derivative against
    Daleckii-Krein on f_u(z) = sgn(u)/(u - z), whose f' and f'' are the closed
    forms sgn/(u - z)^2 and 2 sgn/(u - z)^3, to 1e-8 (relative); and the
    algebraic atom decomposition."""
    rngs = spec.rngs(range(100))
    identity_residuals, deviations = np.empty(100), np.empty(100)
    # the pole of trial t: -1 when t is even, 7 when it is odd
    for pole, rows, group in cx.shape_groups(rngs, [(-1.0, 7.0)[t % 2] for t in range(100)]):
        a = random_in_window_rows(3, _WINDOW_WIDE, group)
        (q,) = random_directions(1, 3, group)
        point = rv.ResolventPoint(pole, _WINDOW_WIDE)
        exact = rv.resolvent_second_derivative(a, q, point)
        f = cx.ScalarFunction("signed_resolvent", point.scalar, _WINDOW_WIDE,
                              deriv=lambda z: point.sign / (point.u - z) ** 2,
                              deriv2=lambda z: 2.0 * point.sign / (point.u - z) ** 3)
        oracle = cx.line_second_derivative(f, a, q)
        deviations[rows] = frobenius(exact - oracle) / frobenius(oracle)
        delta = 0.01 * random_hermitian_rows(3, group)
        identity_residuals[rows] = rv.resolvent_identity_residual(a + 6.0 * np.eye(3), delta)
    rng = spec.stream(9999).rng()
    poles = np.array([-1.0, -0.5, 6.0, 12.0])
    picks, draws = zip(*[(rng.integers(0, 4), rng.random(2)) for _ in range(1000)])
    low, span = uniform_range(0.1, 5.0)
    u, (c, z) = poles[list(picks)], (low + span * np.array(draws)).T
    decomposition_residuals = rv.elementary_decomposition_residual(u, c, z, _WINDOW_WIDE)
    return bound_record("resolvent_exactness", {
        "worst_identity_residual": (identity_residuals, "<=", 1e-10),
        "worst_oracle_relative_deviation": (deviations, "<=", 1e-8),
        "worst_decomposition_residual": (decomposition_residuals, "<=", 1e-12)})


def check_kernel_identity(spec: RandomSpec) -> dict:
    """Midpoint gap equals the kernel-weighted integral of the line second
    derivative, for x^4 on scalars and 2x2 matrices."""
    f = cx.builtin("x4")
    scalar_res = cx.kernel_identity_residual(
        f, np.array([[0.7]]), np.array([[1.6]]), 0.3
    )
    rngs = [spec.stream(0).rng()]
    a0, a1 = (random_in_window_rows(2, _WINDOW_NARROW, rngs)[0] for _ in range(2))
    matrix_res = cx.kernel_identity_residual(f, a0, a1, 0.42)
    return bound_record("kernel_identity", {"scalar_residual": (scalar_res, "<=", 1e-6),
                                            "matrix_residual": (matrix_res, "<=", 1e-6)})


def check_monte_carlo(spec: RandomSpec) -> dict:
    """Haar-average decoupling at 10^4 samples and shrinking pinch Monte Carlo
    distance from 10^2 to 10^4 samples."""
    bell = ent.bell_state()
    haar_res = ent.haar_average_residual(bell, 10_000, spec.stream(0))
    state = ent.random_state((2, 2), spec.stream(1))
    exact = ent.pinch(state).matrix
    d_small = float(np.linalg.norm(
        ent.pinch_monte_carlo(state, 100, spec.stream(2)).matrix - exact
    ))
    d_large = float(np.linalg.norm(
        ent.pinch_monte_carlo(state, 10_000, spec.stream(2)).matrix - exact
    ))
    return bound_record("monte_carlo_physics", {
        "haar_residual_1e4": (haar_res, "<=", 0.05),
        "pinch_mc_gap": (d_small - d_large, ">=", 0.0)},
        pinch_mc_distance_1e2=d_small, pinch_mc_distance_1e4=d_large)


def check_determinism(spec: RandomSpec) -> dict:
    """A representative battery rerun from the same seed reproduces its
    margins bit-for-bit."""
    def battery() -> list[float]:
        # trial t: state t, then A and Q from stream 100 + t
        slacks = ent.subadditivity_report(ent.random_states((2, 3), spec, 20)).min_slack()
        rngs = spec.rngs(range(100, 120))
        a = random_in_window_rows(3, _WINDOW_WIDE, rngs)
        (q,) = random_directions(1, 3, rngs)
        eigs = np.linalg.eigvalsh(jc.parallel_sum_hessian([a, a], [q, q])).max(axis=-1)
        return [float(x) for pair in zip(slacks, eigs) for x in pair]

    first, second = battery(), battery()
    identical = first == second
    return check_record("determinism", 1.0 if identical else -1.0,
                        {"identical": identical, "values": first[:4]})


#: Name -> check function; iteration order is the report order.
CHECKS: dict[str, Callable[[RandomSpec], dict]] = {
    "ssa_battery": check_ssa_battery,
    "subadditivity_chain": check_subadditivity_chain,
    "mutual_information": check_mutual_information,
    "parallel_sum_certificate": check_parallel_sum,
    "tensor_power_quadrature": check_tensor_power,
    "c_constant": check_c_constant,
    "lieb_wyd": check_lieb_wyd,
    "relative_entropy_machinery": check_relative_entropy,
    "convexity_detectors": check_convexity_detectors,
    "resolvent_exactness": check_resolvent_exactness,
    "kernel_identity": check_kernel_identity,
    "monte_carlo_physics": check_monte_carlo,
    "determinism": check_determinism,
}


def run_parts(spec: RandomSpec, parts: Iterable[Callable | None]) -> list[dict]:
    """The timed record of part k on ``spec.stream(k * STREAM_BLOCK)``, for each
    part but the ``None`` ones, which are skipped yet keep their block."""
    records = []
    for k, part in enumerate(parts):
        if part is not None:
            start = time.perf_counter()
            records.append(part(spec.stream(k * STREAM_BLOCK)))
            records[-1]["timing"] = round(time.perf_counter() - start, 6)
    return records


def run_suite(seed: int, only: str | None = None) -> list[dict]:
    """Run all checks (or those whose name contains `only`) and return records."""
    parts = [check if only is None or only in name else None for name, check in CHECKS.items()]
    if not any(parts):
        raise ValueError(f"no checks match {only!r}; known: {sorted(CHECKS)}")
    return run_parts(RandomSpec(seed, STREAM_BLOCK), parts)
