"""Quantum states and the entropy inequality chain.

Implements von Neumann entropy, partial traces over declared tensor
factorizations, the de-correlating pinch map with its Monte Carlo phase
average, conditional and relative entropy, the conditional-entropy concavity
gap, subadditivity and strong subadditivity reports, and the splitting of
mutual information into a quantum and a classical part.

All logarithms are natural; report serializations also quote bits.

Pinching is basis dependent and the defining eigenbases are not unique when a
marginal has degenerate eigenvalues.  The deterministic rule used here:
within each degenerate eigenspace, orthonormalize the projections of the
computational basis vectors in index order.  This prefers computational-basis
vectors whenever they are admissible and makes the pinch idempotent.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError, ValidationError
from .linalg import min_eigenvalue, spectral_decompose, tensor
from .rand import RandomSpec, haar_unitary_from, random_density_from

#: Eigenvalues at or below this floor count as exact zeros for entropy and as
#: support violations for relative entropy.
EIGENVALUE_FLOOR = 1e-14
SUPPORT_TOL = 1e-12
PSD_TOL = 1e-10
TRACE_TOL = 1e-10


@dataclasses.dataclass(frozen=True)
class DensityOperator:
    """Positive unit-trace matrix with a declared tensor factorization."""

    matrix: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        mat = 0.5 * (mat + mat.conj().T)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        if not self.dims or any(d < 1 for d in self.dims):
            raise ValidationError(f"invalid factor dimensions {self.dims}")
        n = int(np.prod(self.dims))
        if mat.shape != (n, n):
            raise DimensionMismatchError(
                f"matrix shape {mat.shape} does not match factorization {self.dims}"
            )
        tr = float(np.trace(mat).real)
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValidationError(f"trace {tr} deviates from 1 beyond {TRACE_TOL}")
        lo = min_eigenvalue(mat)
        if lo < -PSD_TOL:
            raise ValidationError(f"matrix has negative eigenvalue {lo:.3e}")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def marginal(self, keep: Sequence[int]) -> "DensityOperator":
        return partial_trace(self, keep)


def partial_trace(rho: DensityOperator, keep: Sequence[int]) -> DensityOperator:
    """Restriction of a multipartite state to the kept tensor factors."""
    keep = sorted(set(int(i) for i in keep))
    nfac = len(rho.dims)
    if not keep or any(i < 0 or i >= nfac for i in keep):
        raise ValidationError(
            f"keep set {keep} invalid for a state with {nfac} factors"
        )
    t = rho.matrix.reshape(*rho.dims, *rho.dims)
    removed = 0
    for i in range(nfac):
        if i in keep:
            continue
        ax = i - removed
        t = np.trace(t, axis1=ax, axis2=ax + (nfac - removed))
        removed += 1
    kept_dims = tuple(rho.dims[i] for i in keep)
    d = int(np.prod(kept_dims))
    return DensityOperator(t.reshape(d, d), kept_dims)


def von_neumann_entropy(rho: DensityOperator) -> float:
    """S(rho) = -Tr(rho log rho), with the 0 log 0 = 0 convention."""
    w = np.linalg.eigvalsh(rho.matrix)
    w = w[w > EIGENVALUE_FLOOR]
    return float(-np.sum(w * np.log(w)))


def conditional_entropy(
    rho: DensityOperator, part_a: Sequence[int], part_b: Sequence[int]
) -> float:
    """S(a|b) = S(rho_ab) - S(rho_b); can be negative for entangled states."""
    sa, sb = set(part_a), set(part_b)
    if sa & sb:
        raise ValidationError(f"index sets overlap: {sorted(sa & sb)}")
    s_ab = von_neumann_entropy(partial_trace(rho, sorted(sa | sb)))
    s_b = von_neumann_entropy(partial_trace(rho, sorted(sb)))
    return s_ab - s_b


# ---------------------------------------------------------------------------
# Haar averaging and pinching.


def haar_average_residual(
    rho12: DensityOperator, samples: int, spec: RandomSpec
) -> float:
    """Frobenius distance of the Monte Carlo Haar average of (1 x U)* rho (1 x U)
    from rho_1 x 1/d_2; decays like 1/sqrt(samples)."""
    d1, d2 = _two_factors(rho12)
    target = tensor(rho12.marginal([0]).matrix, np.eye(d2) / d2)
    eye1 = np.eye(d1)
    acc = np.zeros_like(rho12.matrix)
    for s in range(samples):
        u = haar_unitary_from(d2, spec.stream(s).rng())
        big = tensor(eye1, u)
        acc += big.conj().T @ rho12.matrix @ big
    return float(np.linalg.norm(acc / samples - target))


def _two_factors(rho: DensityOperator) -> tuple[int, int]:
    if len(rho.dims) != 2:
        raise ValidationError(f"expected a two-factor state, got dims {rho.dims}")
    return rho.dims


def _degenerate_blocks(w: np.ndarray, tol: float = 1e-10) -> list[slice]:
    blocks, start = [], 0
    for i in range(1, len(w) + 1):
        if i == len(w) or w[i] - w[i - 1] > tol * (1.0 + abs(w[i])):
            blocks.append(slice(start, i))
            start = i
    return blocks


def pinching_basis(marginal: np.ndarray) -> np.ndarray:
    """Deterministic eigenbasis of a marginal, computational-basis-preferring
    within degenerate eigenspaces (see module docstring)."""
    w, v = np.linalg.eigh(marginal)
    d = marginal.shape[0]
    basis = np.zeros((d, d), dtype=complex)
    for block in _degenerate_blocks(w):
        size = block.stop - block.start
        proj = v[:, block] @ v[:, block].conj().T
        cols: list[np.ndarray] = []
        for e_idx in range(d):
            cand = proj[:, e_idx].copy()
            for c in cols:
                cand -= c * (c.conj() @ cand)
            nrm = np.linalg.norm(cand)
            if nrm > 1e-8:
                cols.append(cand / nrm)
            if len(cols) == size:
                break
        if len(cols) != size:
            raise RuntimeError("failed to span a degenerate eigenspace")
        basis[:, block] = np.column_stack(cols)
    return basis


def pinch_product_basis(rho12: DensityOperator) -> np.ndarray:
    b1 = pinching_basis(rho12.marginal([0]).matrix)
    b2 = pinching_basis(rho12.marginal([1]).matrix)
    return tensor(b1, b2)


def pinch(rho12: DensityOperator) -> DensityOperator:
    """Delete off-diagonal elements in the product eigenbasis of the marginals.

    Preserves both marginals and never lowers the entropy.
    """
    basis = pinch_product_basis(rho12)
    diag = np.diagonal(basis.conj().T @ rho12.matrix @ basis).real
    pinched = (basis * diag) @ basis.conj().T
    return DensityOperator(pinched, rho12.dims)


def pinch_monte_carlo(
    rho12: DensityOperator, samples: int, spec: RandomSpec
) -> DensityOperator:
    """Approximate the pinch by averaging over random-phase unitaries that are
    diagonal in the pinching basis."""
    basis = pinch_product_basis(rho12)
    in_basis = basis.conj().T @ rho12.matrix @ basis
    d = rho12.dim
    acc = np.zeros_like(in_basis)
    for s in range(samples):
        rng = spec.stream(s).rng()
        phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=d))
        acc += (phases.conj()[:, None] * in_basis) * phases[None, :]
    avg = basis @ (acc / samples) @ basis.conj().T
    return DensityOperator(avg, rho12.dims)


# ---------------------------------------------------------------------------
# Relative entropy and the concavity machinery behind strong subadditivity.


def relative_entropy(a: np.ndarray, b: np.ndarray) -> float:
    """S(A|B) = -Tr[A (log A - log B)]; nonpositive for unit-trace arguments.

    Returns -inf when the support of A escapes the support of B (the
    infinite-divergence signal, not an exception).
    """
    wa, ua = spectral_decompose(a)
    wb, ub = spectral_decompose(b)
    if min(wa[0], wb[0]) < -PSD_TOL:
        raise ValidationError("relative entropy needs positive semidefinite inputs")
    scale = 1.0 + float(np.max(np.abs(wa)))
    support_b = wb > SUPPORT_TOL
    if not np.all(support_b):
        perp = ub[:, ~support_b]
        leak = float(np.linalg.norm(perp.conj().T @ a @ perp))
        if leak > SUPPORT_TOL * scale:
            return -math.inf
    wa_pos = np.clip(wa.real, 0.0, None)
    tr_a_log_a = float(
        np.sum(wa_pos[wa_pos > EIGENVALUE_FLOOR] * np.log(wa_pos[wa_pos > EIGENVALUE_FLOOR]))
    )
    log_b = (ub[:, support_b] * np.log(wb[support_b].real)) @ ub[:, support_b].conj().T
    tr_a_log_b = float(np.trace(a @ log_b).real)
    return -(tr_a_log_a - tr_a_log_b)


def epsilon_limit_residual(a: np.ndarray, b: np.ndarray, eps: float) -> float:
    """|Tr[A^(1-eps) B^eps - A]/eps - S(A|B)|; O(eps) as eps -> 0."""
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    wa, ua = spectral_decompose(a)
    wb, ub = spectral_decompose(b)
    if min(wa[0], wb[0]) <= 0.0:
        raise ValidationError("epsilon limit needs strictly positive matrices")
    a_pow = (ua * wa.real ** (1.0 - eps)) @ ua.conj().T
    b_pow = (ub * wb.real**eps) @ ub.conj().T
    quotient = float((np.trace(a_pow @ b_pow) - np.trace(a)).real) / eps
    return abs(quotient - relative_entropy(a, b))


def lieb_ruskai_concavity_gap(
    rho_a: DensityOperator, rho_b: DensityOperator, lam: float
) -> float:
    """Concavity gap of rho -> S(first factor | rest) at a lam-mixture; >= 0."""
    if rho_a.dims != rho_b.dims:
        raise DimensionMismatchError(
            f"factorizations differ: {rho_a.dims} vs {rho_b.dims}"
        )
    if len(rho_a.dims) < 2:
        raise ValidationError("need at least two factors")
    if not 0.0 < lam < 1.0:
        raise ValueError(f"mixing weight must lie in (0, 1), got {lam}")
    rest = list(range(1, len(rho_a.dims)))
    mix = DensityOperator(
        (1.0 - lam) * rho_a.matrix + lam * rho_b.matrix, rho_a.dims
    )
    s_mix = conditional_entropy(mix, [0], rest)
    s_a = conditional_entropy(rho_a, [0], rest)
    s_b = conditional_entropy(rho_b, [0], rest)
    return s_mix - ((1.0 - lam) * s_a + lam * s_b)


# ---------------------------------------------------------------------------
# Reports.

LOG2 = math.log(2.0)


@dataclasses.dataclass(frozen=True)
class EntropyReport:
    """Named entropy values (nats) and one-sided inequality slacks."""

    values: dict[str, float]
    slacks: dict[str, float]

    def min_slack(self) -> float:
        return min(self.slacks.values()) if self.slacks else math.inf

    def to_dict(self) -> dict:
        return {
            "values_nats": dict(self.values),
            "values_bits": {k: v / LOG2 for k, v in self.values.items()},
            "slacks": dict(self.slacks),
        }


def subadditivity_report(rho12: DensityOperator) -> EntropyReport:
    """The chain S(rho_12) <= S(pinched) <= S_1 + S_2 with both slacks."""
    _two_factors(rho12)
    s12 = von_neumann_entropy(rho12)
    s_pinched = von_neumann_entropy(pinch(rho12))
    s1 = von_neumann_entropy(rho12.marginal([0]))
    s2 = von_neumann_entropy(rho12.marginal([1]))
    return EntropyReport(
        values={"S12": s12, "S_pinched": s_pinched, "S1": s1, "S2": s2},
        slacks={
            "pinching_raises_entropy": s_pinched - s12,
            "classical_subadditivity": s1 + s2 - s_pinched,
        },
    )


def mutual_information_decomposition(rho12: DensityOperator) -> EntropyReport:
    """I(1:2) split into a quantum part (entropy gained by pinching) and a
    classical part (marginal decorrelation of the pinched state)."""
    rep = subadditivity_report(rho12)
    v = rep.values
    quantum = v["S_pinched"] - v["S12"]
    classical = v["S1"] + v["S2"] - v["S_pinched"]
    return EntropyReport(
        values={
            **v,
            "quantum_part": quantum,
            "classical_part": classical,
            "mutual_information": v["S1"] + v["S2"] - v["S12"],
        },
        slacks={"quantum_part": quantum, "classical_part": classical},
    )


def uhlmann_tilde(rho123: DensityOperator) -> DensityOperator:
    """rho_12 x 1/d_3: the Haar average decoupling the third factor."""
    if len(rho123.dims) != 3:
        raise ValidationError(f"expected three factors, got dims {rho123.dims}")
    d3 = rho123.dims[2]
    return DensityOperator(
        tensor(rho123.marginal([0, 1]).matrix, np.eye(d3) / d3), rho123.dims
    )


def ssa_report(rho123: DensityOperator) -> EntropyReport:
    """Strong subadditivity: [S12 - S2] - [S123 - S23] >= 0, with the
    decoupled-state cross-check S(tilde_123) - S(tilde_23) = S12 - S2."""
    if len(rho123.dims) != 3:
        raise ValidationError(f"expected three factors, got dims {rho123.dims}")
    s123 = von_neumann_entropy(rho123)
    s23 = von_neumann_entropy(rho123.marginal([1, 2]))
    s12 = von_neumann_entropy(rho123.marginal([0, 1]))
    s2 = von_neumann_entropy(rho123.marginal([1]))
    tilde = uhlmann_tilde(rho123)
    s_tilde = von_neumann_entropy(tilde)
    s_tilde_23 = von_neumann_entropy(tilde.marginal([1, 2]))
    return EntropyReport(
        values={
            "S123": s123, "S23": s23, "S12": s12, "S2": s2,
            "S_tilde123": s_tilde, "S_tilde23": s_tilde_23,
        },
        slacks={
            "ssa": (s12 - s2) - (s123 - s23),
            "uhlmann_chain_matches": abs((s_tilde - s_tilde_23) - (s12 - s2)),
        },
    )


# ---------------------------------------------------------------------------
# Named states used throughout the test batteries.


def bell_state() -> DensityOperator:
    """Maximally entangled two-qubit state (|00> + |11>)/sqrt(2)."""
    v = np.zeros(4)
    v[0] = v[3] = 1.0 / math.sqrt(2.0)
    return DensityOperator(np.outer(v, v), (2, 2))


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


def random_state(dims: Sequence[int], spec: RandomSpec) -> DensityOperator:
    """Hilbert-Schmidt ensemble state on the given tensor factorization."""
    n = int(np.prod([int(d) for d in dims]))
    return DensityOperator(
        random_density_from(n, spec.rng()), tuple(int(d) for d in dims)
    )
