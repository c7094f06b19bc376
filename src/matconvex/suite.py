"""The full acceptance battery behind `run-suite`.

Check i (in ``CHECKS`` order) receives ``RandomSpec(seed, (i + 1) *
STREAM_BLOCK)`` and draws only from sub-streams of it.  Stream ids nest, so the
helpers it hands a sub-stream (``pinch_monte_carlo``, ``haar_average_residual``)
stay inside the check's block too, and no two checks share a draw.  Each check
measures a worst-case quantity over a fixed ensemble, and reports pass/fail
against a documented tolerance.  Margins are oriented so that positive means
healthy: distance to the failure threshold.  Worst cases are NaN-propagating
``np.min`` / ``np.max`` reductions, so a NaN trial fails its check.
"""

from __future__ import annotations

import math
import time
from typing import Callable

import numpy as np

from . import convexity as cx
from . import entropy as ent
from . import jointconcavity as jc
from . import resolvent as rv
from .io import check_record
from .linalg import SpectrumWindow
from .quadrature import QuadratureConfig, gamma_quadrature
from .rand import (
    STREAM_BLOCK,
    RandomSpec,
    random_density_from,
    random_hermitian_from,
    random_in_window_from,
    random_direction_from,
)

_WINDOW_WIDE = SpectrumWindow(0.1, 5.0)
_WINDOW_NARROW = SpectrumWindow(0.1, 2.0)


def check_ssa_battery(spec: RandomSpec) -> dict:
    """SSA slack over random tripartite ensembles; tolerance 1e-8."""
    slacks = np.concatenate([
        ent.ssa_report(ent.random_states(dims, spec.stream(500 * k), 500)).slacks["ssa"]
        for k, dims in enumerate(((2, 2, 2), (2, 3, 2)))
    ])
    worst = float(np.min(slacks))
    return check_record("ssa_battery", worst + 1e-8,
                        {"worst_slack": worst, "trials": len(slacks),
                         "tolerance": 1e-8})


def check_subadditivity_chain(spec: RandomSpec) -> dict:
    """Both subadditivity slacks >= -1e-9 and pinch preserves marginals to 1e-10."""
    states = ent.random_states((2, 3), spec, 500)
    pinched = ent.pinch(states)
    devs = [np.linalg.norm(pinched.marginal(keep).matrix - states.marginal(keep).matrix,
                           axis=(-2, -1)) for keep in ([0], [1])]
    worst_slack = float(np.min(ent.subadditivity_report(states).min_slack()))
    worst_marg = float(np.max(devs))
    margin = np.min([worst_slack + 1e-9, 1e-10 - worst_marg])
    return check_record("subadditivity_chain", margin,
                        {"worst_slack": worst_slack,
                         "worst_marginal_deviation": worst_marg,
                         "slack_tolerance": 1e-9, "marginal_tolerance": 1e-10})


def check_mutual_information(spec: RandomSpec) -> dict:
    """Decomposition into nonnegative parts that sum to the mutual information;
    Bell state gives (log 2, log 2)."""
    rep = ent.mutual_information_decomposition(ent.random_states((2, 3), spec, 500))
    q, c = rep.values["quantum_part"], rep.values["classical_part"]
    worst_part = float(np.min([q, c]))
    worst_sum = float(np.max(np.abs(q + c - rep.values["mutual_information"])))
    bell = ent.mutual_information_decomposition(ent.bell_state())
    bell_err = float(np.max([
        abs(bell.values["quantum_part"] - math.log(2.0)),
        abs(bell.values["classical_part"] - math.log(2.0)),
    ]))
    margin = np.min([worst_part + 1e-9, 1e-10 - worst_sum, 1e-9 - bell_err])
    return check_record("mutual_information", margin,
                        {"worst_part": worst_part, "worst_sum_mismatch": worst_sum,
                         "bell_error": bell_err})


def check_parallel_sum(spec: RandomSpec) -> dict:
    """Exact Hessian of the parallel sum is negative semidefinite, the block
    projection residuals vanish, and the Hessian matches finite differences."""
    eigs, projs, rels = [], [], []
    for t in range(200):
        rng = spec.stream(t).rng()
        k = int(rng.integers(2, 4))
        n = int(rng.integers(2, 6))
        mats = [random_in_window_from(n, _WINDOW_WIDE, rng) for _ in range(k)]
        dirs = jc.random_directions(k, n, rng)
        hess, eig, proj = jc.parallel_sum_certificate(mats, dirs)
        eigs.append(eig)
        projs.append(proj)
        fd = jc.tuple_second_difference(jc.parallel_sum, mats, dirs, 1e-4)
        rels.append(
            float(np.linalg.norm(hess - fd)) / max(float(np.linalg.norm(hess)), 1e-30)
        )
    worst_eig = float(np.max(eigs))
    worst_proj = float(np.max(projs))
    worst_rel = float(np.max(rels))
    margin = np.min([1e-8 - worst_eig, 1e-9 - worst_proj, 1e-4 - worst_rel])
    return check_record("parallel_sum_certificate", margin,
                        {"max_hessian_eigenvalue": worst_eig,
                         "worst_projection_residual": worst_proj,
                         "worst_fd_relative_deviation": worst_rel})


def check_tensor_power(spec: RandomSpec) -> dict:
    """Quadrature route for A^p x B^(1-p) agrees with the spectral route and
    the error decreases with the node count."""
    errors = []
    for i, p in enumerate([(0.5, 0.5), (0.3, 0.7)]):
        for t in range(20):
            rng = spec.stream(100 * i + t).rng()
            n = 2 if t % 2 == 0 else 3
            mats = [random_in_window_from(n, _WINDOW_WIDE, rng) for _ in range(2)]
            errors += jc.tensor_power_errors(mats, p, [64])
    worst = float(np.max(errors))
    rng = spec.stream(999).rng()
    mats = [random_in_window_from(3, _WINDOW_WIDE, rng) for _ in range(2)]
    curve = jc.tensor_power_errors(mats, (0.3, 0.7), jc.ERROR_CURVE_NODES)
    decreasing = all(a > b for a, b in zip(curve, curve[1:]))
    margin = 1e-5 - worst if decreasing else -1.0
    return check_record("tensor_power_quadrature", margin,
                        {"worst_relative_error": worst, "error_curve_16_to_128": curve,
                         "strictly_decreasing": decreasing})


def check_c_constant(spec: RandomSpec) -> dict:
    """Normalization constants against closed forms and the 1-d Gamma oracle."""
    c2 = jc.c_constant((0.5, 0.5), QuadratureConfig(64))
    c3 = jc.c_constant((1.0 / 3, 1.0 / 3, 1.0 / 3), QuadratureConfig(64))
    target2 = gamma_quadrature(0.5) ** 2
    target3 = gamma_quadrature(1.0 / 3) ** 3
    err2 = abs(c2 - math.pi)
    err3 = abs(c3 - math.gamma(1.0 / 3) ** 3)
    oracle2 = abs(c2 - target2)
    oracle3 = abs(c3 - target3)
    margin = np.min([1e-6 - err2, 1e-5 - err3, 1e-6 - oracle2, 1e-5 - oracle3])
    return check_record("c_constant", margin,
                        {"c2": c2, "c2_error_vs_pi": err2, "c3": c3,
                         "c3_error_vs_gamma_cubed": err3,
                         "oracle_errors": [oracle2, oracle3]})


def check_lieb_wyd(spec: RandomSpec) -> dict:
    """Midpoint joint concavity of Tr[A^p K* B^r K] and the commuting-case
    vanishing of the skew information."""
    gaps, wyds = [], []
    for t in range(200):
        rng = spec.stream(t).rng()
        n = int(rng.integers(2, 5))
        gap, p = jc.lieb_midpoint_gap(n, _WINDOW_WIDE, rng)
        gaps.append(gap)
        rho = random_density_from(n, spec.stream(100000 + t).rng())
        _, u = np.linalg.eigh(rho)
        k_comm = (u * rng.standard_normal(n)) @ u.conj().T
        wyds.append(abs(jc.wyd_skew_information(rho, k_comm, p)))
    worst_gap = float(np.min(gaps, initial=0.0))
    worst_wyd = float(np.max(wyds))
    margin = np.min([worst_gap + 1e-8, 1e-12 - worst_wyd])
    return check_record("lieb_wyd", margin,
                        {"worst_scaled_concavity_gap": worst_gap,
                         "worst_commuting_wyd": worst_wyd})


def check_relative_entropy(spec: RandomSpec) -> dict:
    """Epsilon-limit residual, joint concavity of relative entropy, and the
    conditional-entropy concavity gap."""
    eps_residuals = []
    for t in range(50):
        rng = spec.stream(t).rng()
        a = random_in_window_from(3, _WINDOW_NARROW, rng)
        b = random_in_window_from(3, _WINDOW_NARROW, rng)
        eps_residuals.append(ent.epsilon_limit_residual(a, b, 1e-5))
    joint_gaps = []
    for t in range(200):
        rng = spec.stream(1000 + t).rng()
        n = int(rng.integers(2, 5))
        a0, a1, b0, b1 = (
            random_in_window_from(n, _WINDOW_NARROW, rng) for _ in range(4)
        )
        joint_gaps.append(
            ent.relative_entropy(0.5 * (a0 + a1), 0.5 * (b0 + b1)) - 0.5 * (
                ent.relative_entropy(a0, b0) + ent.relative_entropy(a1, b1)
            )
        )
    lr_gaps = []
    for t in range(200):
        rng = spec.stream(2000 + t).rng()
        sa = ent.random_state((2, 2), spec.stream(3000 + t))
        sb = ent.random_state((2, 2), spec.stream(4000 + t))
        lam = float(rng.uniform(0.1, 0.9))
        lr_gaps.append(ent.lieb_ruskai_concavity_gap(sa, sb, lam))
    worst_eps = float(np.max(eps_residuals))
    worst_joint = float(np.min(joint_gaps, initial=0.0))
    worst_lr = float(np.min(lr_gaps, initial=0.0))
    margin = np.min([1e-3 - worst_eps, worst_joint + 1e-8, worst_lr + 1e-8])
    return check_record("relative_entropy_machinery", margin,
                        {"worst_epsilon_residual": worst_eps,
                         "worst_joint_concavity_gap": worst_joint,
                         "worst_lieb_ruskai_gap": worst_lr})


def check_convexity_detectors(spec: RandomSpec) -> dict:
    """Positive and negative controls for the randomized detectors."""
    detail: dict = {}
    ok = True
    witness = None
    for name in ("x2", "inv"):
        v = cx.definition_test(cx.builtin(name), _WINDOW_WIDE, 4, 200, spec)
        detail[f"{name}_definition"] = v.status
        ok = ok and v.status == "certified"
    for name in ("x3", "x4"):
        v = cx.definition_test(cx.builtin(name), _WINDOW_NARROW, 2, 1000, spec)
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
    """Resolvent identity, exact-vs-FD second derivative, and the algebraic
    atom decomposition."""
    identity_residuals, fd_deviations = [], []
    for t in range(100):
        rng = spec.stream(t).rng()
        a = random_in_window_from(3, _WINDOW_WIDE, rng)
        q = random_direction_from(3, rng)
        point = rv.ResolventPoint(7.0 if t % 2 else -1.0, _WINDOW_WIDE)
        exact = rv.resolvent_second_derivative(a, q, point)
        f = cx.ScalarFunction("signed_resolvent", point.scalar, _WINDOW_WIDE)
        fd = cx.second_derivative_fd(f, a, q, cx.default_fd_step(a))
        fd_deviations.append(
            float(np.linalg.norm(exact - fd) / np.linalg.norm(exact))
        )
        delta = 0.01 * random_hermitian_from(3, rng)
        shifted = a + 6.0 * np.eye(3)
        identity_residuals.append(rv.resolvent_identity_residual(shifted, delta))
    decomposition_residuals = []
    rng = spec.stream(9999).rng()
    for _ in range(1000):
        u = float(rng.choice([-1.0, -0.5, 6.0, 12.0]))
        c = float(rng.uniform(0.1, 5.0))
        z = float(rng.uniform(0.1, 5.0))
        decomposition_residuals.append(
            rv.elementary_decomposition_residual(u, c, z, _WINDOW_WIDE)
        )
    worst_id = float(np.max(identity_residuals))
    worst_fd = float(np.max(fd_deviations))
    worst_dec = float(np.max(decomposition_residuals))
    margin = np.min([1e-10 - worst_id, 1e-4 - worst_fd, 1e-12 - worst_dec])
    return check_record("resolvent_exactness", margin,
                        {"worst_identity_residual": worst_id,
                         "worst_fd_relative_deviation": worst_fd,
                         "worst_decomposition_residual": worst_dec})


def check_kernel_identity(spec: RandomSpec) -> dict:
    """Midpoint gap equals the kernel-weighted integral of the line second
    derivative, for x^4 on scalars and 2x2 matrices."""
    f = cx.builtin("x4")
    scalar_res = cx.kernel_identity_residual(
        f, np.array([[0.7]]), np.array([[1.6]]), 0.3, quad_nodes=32
    )
    rng = spec.stream(0).rng()
    a0 = random_in_window_from(2, _WINDOW_NARROW, rng)
    a1 = random_in_window_from(2, _WINDOW_NARROW, rng)
    matrix_res = cx.kernel_identity_residual(f, a0, a1, 0.42, quad_nodes=32)
    margin = 1e-6 - np.max([scalar_res, matrix_res])
    return check_record("kernel_identity", margin,
                        {"scalar_residual": scalar_res, "matrix_residual": matrix_res})


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
    margin = np.min([0.05 - haar_res, d_small - d_large])
    return check_record("monte_carlo_physics", margin,
                        {"haar_residual_1e4": haar_res,
                         "pinch_mc_distance_1e2": d_small,
                         "pinch_mc_distance_1e4": d_large})


def check_determinism(spec: RandomSpec) -> dict:
    """A representative battery rerun from the same seed reproduces its
    margins bit-for-bit."""
    def battery() -> list[float]:
        states = ent.random_states((2, 3), spec, 20)
        out = []
        for t, slack in enumerate(ent.subadditivity_report(states).min_slack()):
            rng = spec.stream(100 + t).rng()
            a = random_in_window_from(3, _WINDOW_WIDE, rng)
            q = random_direction_from(3, rng)
            out += [float(slack), float(np.linalg.eigvalsh(
                jc.parallel_sum_hessian([a, a], [q, q])
            ).max())]
        return out

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


def run_suite(seed: int, only: str | None = None) -> list[dict]:
    """Run all checks (or those whose name contains `only`) and return records."""
    names = [n for n in CHECKS if only is None or only in n]
    if not names:
        raise ValueError(f"no checks match {only!r}; known: {sorted(CHECKS)}")
    records = []
    for name in names:
        spec = RandomSpec(seed, STREAM_BLOCK * (1 + list(CHECKS).index(name)))
        start = time.perf_counter()
        rec = CHECKS[name](spec)
        rec["timing"] = round(time.perf_counter() - start, 6)
        records.append(rec)
    return records
