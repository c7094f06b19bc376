"""Quantum states and the entropy inequality chain.

Implements von Neumann entropy, partial traces over declared tensor
factorizations, the de-correlating pinch map with its Monte Carlo phase
average, conditional and relative entropy, the conditional-entropy concavity
gap, subadditivity and strong subadditivity reports, and the splitting of
mutual information into a quantum and a classical part.

All logarithms are natural.

Pinching is basis dependent and the defining eigenbases are not unique when a
marginal has degenerate eigenvalues.  The deterministic rule used here:
within each degenerate eigenspace, orthonormalize the projections of the
computational basis vectors in index order.  This prefers computational-basis
vectors whenever they are admissible and makes the pinch idempotent.
Without degenerate eigenvalues the rule reduces to phase-fixing each
eigenvector by its first entry of modulus above 1e-8.

A :class:`DensityOperator` may hold a ``(T, N, N)`` stack on one factorization;
every state function but :func:`haar_average_residual`, which refuses a stack
with ``ValidationError``, then runs on all rows at once and reports hold ``(T,)``
arrays.  Each DensityOperator, marginals and pinched states too, is checked row
by row when built: finite and Hermitian (never repaired), then trace and PSD
from one ``eigvalsh``, kept as ``spectrum`` for its entropy; a pinched state
B diag(d) B*, B = b_1 x b_2, d = diag(B* rho B), keeps sort(d) instead, which its
slacks compare with rho's and the marginals' own spectra.  A bad row is named.
So each state is built once and takes at most one ``eigvalsh``; a marginal that
is pinched is diagonalized once more, by the ``eigh`` of :func:`pinching_basis`
for its eigenbasis.  A report reuses the marginals it builds,
:func:`conditional_entropy` reads rho itself when its kept set is every factor,
and only :func:`ssa_report` builds (and diagonalizes, lest its cross-check be an
identity) decoupled states, rho_12 x 1/d_3 from the rho_12 of its slack;
:func:`ssa_slack` is that slack alone, for batteries reading no more.
The relative-entropy kernels take ``(T, n, n)`` stacks of matrices the same way.
The Monte Carlo averages have no per-sample witness, so each owns one stream:
all samples come from ``spec.rng()``.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError, ValidationError
from .linalg import (_dagger, _float_or_rows, _trace, check_mixing_weight, factor,
                     from_spectrum, hermitian, kron_from_spectrum, raise_rows, tensor)
from .linalg import min_eigenvalue  # noqa: F401 - unused; perfbench tracing wraps it
from .rand import RandomSpec, haar_unitaries_from, random_densities, uniform_range

#: Eigenvalues at or below this floor count as exact zeros for entropy and as
#: support violations for relative entropy.
EIGENVALUE_FLOOR = 1e-14
SUPPORT_TOL = 1e-12
PSD_TOL = 1e-10
TRACE_TOL = 1e-10
#: Largest |(S(tilde_123) - S(tilde_23)) - (S12 - S2)| the SSA cross-check allows.
SSA_CHAIN_TOL = 1e-8


def _check_density(w: np.ndarray) -> None:
    """Trace 1 and no negative eigenvalue, for ascending spectra or their stack."""
    tr, lo = w.sum(axis=-1), w[..., 0]
    off = abs(tr - 1.0) > TRACE_TOL
    raise_rows(off | (lo < -PSD_TOL), ValidationError, lambda k: (
        f"trace {tr.flat[k]} deviates from 1 beyond {TRACE_TOL}" if off.flat[k]
        else f"matrix has negative eigenvalue {lo.flat[k]:.3e}"))


@dataclasses.dataclass(frozen=True)
class DensityOperator:
    """Positive unit-trace matrix, or a ``(T, N, N)`` stack of them, with a
    declared tensor factorization.  ``spectrum`` holds each row's ascending
    eigenvalues, which checked it (see module docstring)."""

    matrix: np.ndarray
    dims: tuple[int, ...]
    spectrum: np.ndarray = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        dims = tuple(self.dims)
        if not dims or any(not isinstance(d, (int, np.integer)) or d < 1 for d in dims):
            raise ValidationError(f"invalid factor dimensions {dims}")
        dims = tuple(int(d) for d in dims)
        n = math.prod(dims)
        if mat.ndim not in (2, 3) or mat.shape[-2:] != (n, n) or not mat.size:
            raise DimensionMismatchError(
                f"matrix shape {mat.shape} does not match factorization {dims}"
            )
        mat = hermitian(mat)
        w = self.__dict__.get("spectrum")  # set only by _with_spectrum
        w = np.linalg.eigvalsh(mat) if w is None else w
        _check_density(w)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "spectrum", w)

    @classmethod
    def _with_spectrum(cls, matrix, dims, w) -> "DensityOperator":
        """The state of ``matrix``, checked on its known eigenvalues ``w``."""
        state = cls.__new__(cls)
        object.__setattr__(state, "spectrum", np.sort(w, axis=-1))
        state.__init__(matrix, dims)
        return state

    @property
    def dim(self) -> int:
        return self.matrix.shape[-1]

    def marginal(self, keep: Sequence[int]) -> "DensityOperator":
        return partial_trace(self, keep)


def partial_trace(rho: DensityOperator, keep: Sequence[int]) -> DensityOperator:
    """Restriction of a multipartite state (or of every row of a stack) to the
    kept tensor factors: one ``einsum`` that traces the other factors."""
    keep = sorted(set(int(i) for i in keep))
    nfac = len(rho.dims)
    if not keep or any(i < 0 or i >= nfac for i in keep):
        raise ValidationError(
            f"keep set {keep} invalid for a state with {nfac} factors")
    # factor i has row label i and column label i (traced) or nfac + i (kept)
    cols = [nfac + i if i in keep else i for i in range(nfac)]
    stack = rho.matrix.shape[:-2]
    t = np.einsum(rho.matrix.reshape(*stack, *rho.dims, *rho.dims),
                  [Ellipsis, *range(nfac), *cols],
                  [Ellipsis, *keep, *(nfac + i for i in keep)])
    kept_dims = tuple(rho.dims[i] for i in keep)
    d = math.prod(kept_dims)
    return DensityOperator(t.reshape(*stack, d, d), kept_dims)


def von_neumann_entropy(rho: DensityOperator):
    """S(rho) = -Tr(rho log rho), with the 0 log 0 = 0 convention, from the
    spectrum computed when ``rho`` was checked; a ``(T,)`` array for a stack."""
    return _float_or_rows(-_sum_w_log_w(rho.spectrum))


def _sum_w_log_w(w: np.ndarray) -> np.ndarray:
    """Sum of w log w over the last axis of a spectrum, with eigenvalues at or
    below ``EIGENVALUE_FLOOR`` counted as exact zeros (0 log 0 = 0)."""
    pos = w > EIGENVALUE_FLOOR
    return np.sum(np.where(pos, w * np.log(np.where(pos, w, 1.0)), 0.0), axis=-1)


def conditional_entropy(
    rho: DensityOperator, part_a: Sequence[int], part_b: Sequence[int]
) -> float:
    """S(a|b) = S(rho_ab) - S(rho_b); can be negative for entangled states.
    When a and b keep every factor, rho_ab is ``rho`` itself."""
    sa, sb = set(part_a), set(part_b)
    if sa & sb:
        raise ValidationError(f"index sets overlap: {sorted(sa & sb)}")
    kept = sorted(sa | sb)
    s_ab = von_neumann_entropy(
        rho if kept == list(range(len(rho.dims))) else partial_trace(rho, kept))
    s_b = von_neumann_entropy(partial_trace(rho, sorted(sb)))
    return s_ab - s_b


# ---------------------------------------------------------------------------
# Haar averaging and pinching.


def haar_average_residual(
    rho12: DensityOperator, samples: int, spec: RandomSpec
) -> float:
    """Frobenius distance of the Monte Carlo Haar average of (1 x U)* rho (1 x U)
    from rho_1 x 1/d_2; decays like 1/sqrt(samples).  Every U is drawn from
    ``spec.rng()``; one stacked QR and one contraction serve all samples."""
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    d1, d2 = _two_factors(rho12)
    if rho12.matrix.ndim == 3:
        raise ValidationError(f"expected one state, got a stack of {len(rho12.matrix)}")
    target = tensor(rho12.marginal([0]).matrix, np.eye(d2) / d2)
    u = haar_unitaries_from(d2, samples, spec.rng())
    # rho indexed (i, c, j, e); U_s acts on the second factor's c and e
    acc = np.einsum("sca,icje,seb->iajb", u.conj(),
                    rho12.matrix.reshape(d1, d2, d1, d2), u, optimize=True)
    return float(np.linalg.norm(acc.reshape(d1 * d2, d1 * d2) / samples - target))


def _two_factors(rho: DensityOperator) -> tuple[int, int]:
    if len(rho.dims) != 2:
        raise ValidationError(f"expected a two-factor state, got dims {rho.dims}")
    return rho.dims


def _span_block(vb: np.ndarray) -> np.ndarray:
    """Orthonormalized projections of e_0, e_1, ... onto the columns' span."""
    proj = vb @ vb.conj().T
    cols: list[np.ndarray] = []
    for e_idx in range(len(proj)):
        cand = proj[:, e_idx].copy()
        for c in cols:
            cand -= c * (c.conj() @ cand)
        nrm = np.linalg.norm(cand)
        if nrm > 1e-8:
            cols.append(cand / nrm)
        if len(cols) == vb.shape[1]:
            return np.column_stack(cols)
    raise RuntimeError("failed to span a degenerate eigenspace")


def pinching_basis(marginal: np.ndarray) -> np.ndarray:
    """Deterministic eigenbasis of a marginal (or of each row of a stack),
    computational-basis-preferring in degenerate eigenspaces (module docstring)."""
    d = marginal.shape[-1]
    w, v = factor(marginal.reshape(-1, d, d))
    first = np.argmax(np.abs(v) > 1e-8, axis=1)[:, None, :]  # first entry above 1e-8
    lead = np.take_along_axis(v, first, axis=1)
    basis = v * (lead.conj() / np.abs(lead))
    split = np.diff(w, axis=1) > 1e-10 * (1.0 + np.abs(w[:, 1:]))
    for k in np.flatnonzero(~np.all(split, axis=1)):
        edges = [0, *(np.flatnonzero(split[k]) + 1), d]
        for lo, hi in zip(edges, edges[1:]):
            basis[k, :, lo:hi] = _span_block(v[k, :, lo:hi])
    return basis.reshape(marginal.shape)


def pinch_bases(rho12: DensityOperator, marginals: Sequence[DensityOperator] = ()) -> tuple:
    """The pinching bases (b_1, b_2) of the two marginals, read from
    ``marginals`` when given; the product basis is b_1 x b_2."""
    _two_factors(rho12)
    rho1, rho2 = marginals or (rho12.marginal([0]), rho12.marginal([1]))
    return pinching_basis(rho1.matrix), pinching_basis(rho2.matrix)


def pinch(rho12: DensityOperator) -> DensityOperator:
    """Delete off-diagonal elements in the product eigenbasis of the marginals.

    Preserves both marginals and never lowers the entropy.
    """
    return _pinch_in(rho12, pinch_bases(rho12))


def _pinch_in(rho12: DensityOperator, bases: tuple) -> DensityOperator:
    basis = tensor(*bases)  # B diag(d) B*, d = diag(B* rho B), has spectrum d
    diag = np.sum(basis.conj() * (rho12.matrix @ basis), axis=-2).real
    return DensityOperator._with_spectrum(kron_from_spectrum(diag, bases), rho12.dims, diag)


def pinch_monte_carlo(
    rho12: DensityOperator, samples: int, spec: RandomSpec
) -> DensityOperator:
    """Approximate the pinch by averaging over random-phase unitaries that are
    diagonal in the pinching basis.  Sample s reads the s-th row of phases p
    drawn from ``spec.rng()``; with the p as rows of P, the mean of
    diag(p)* M diag(p) is M o (P* P) / samples."""
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    basis = tensor(*pinch_bases(rho12))
    in_basis = _dagger(basis) @ rho12.matrix @ basis
    low, span = uniform_range(0.0, 2.0 * np.pi)
    phases = np.exp(1j * (low + span * spec.rng().random((samples, rho12.dim))))
    avg = in_basis * (phases.conj().T @ phases) / samples
    return DensityOperator(basis @ avg @ _dagger(basis), rho12.dims)


# ---------------------------------------------------------------------------
# Relative entropy and the concavity machinery behind strong subadditivity.


def relative_entropy(a: np.ndarray, b: np.ndarray):
    """S(A|B) = -Tr[A (log A - log B)]; nonpositive for unit-trace arguments.

    Returns -inf when the support of A escapes the support of B (the
    infinite-divergence signal, not an exception).  Both arguments must be
    finite and Hermitian (never repaired).  Stacks give a ``(T,)`` array.
    """
    return _relative_entropy(a, factor(a), factor(b))


def _relative_entropy(a: np.ndarray, fa, fb):
    """S(A|B) from the factorizations (w, U) of A and B, row by row over stacks.
    A row where B has a kernel takes -inf if A leaks into it, and otherwise
    restricts log B to the support of B."""
    (wa, _), (wb, ub) = fa, fb
    raise_rows(np.minimum(wa[..., 0], wb[..., 0]) < -PSD_TOL, ValidationError,
               "relative entropy needs positive semidefinite inputs")
    support = wb > SUPPORT_TOL
    log_b = from_spectrum(np.where(support, np.log(np.where(support, wb, 1.0)), 0.0), ub)
    out = np.array(-(_sum_w_log_w(wa) - _trace(a @ log_b).real))
    scale = 1.0 + np.max(np.abs(wa), axis=-1)
    for t in map(tuple, np.argwhere(~np.all(support, axis=-1))):  # B has a kernel
        perp = ub[t][:, ~support[t]]
        if np.linalg.norm(_dagger(perp) @ np.asarray(a)[t] @ perp) > SUPPORT_TOL * scale[t]:
            out[t] = -math.inf
    return _float_or_rows(out)


def epsilon_limit_residual(a: np.ndarray, b: np.ndarray, eps: float):
    """|Tr[A^(1-eps) B^eps - A]/eps - S(A|B)|; O(eps) as eps -> 0.  Stacks
    give a ``(T,)`` array."""
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    fa, fb = factor(a), factor(b)
    (wa, ua), (wb, ub) = fa, fb
    raise_rows(np.minimum(wa[..., 0], wb[..., 0]) <= 0.0, ValidationError,
               "epsilon limit needs strictly positive matrices")
    a_pow, b_pow = from_spectrum(wa ** (1.0 - eps), ua), from_spectrum(wb**eps, ub)
    quotient = (_trace(a_pow @ b_pow) - _trace(a)).real / eps
    return _float_or_rows(np.abs(quotient - _relative_entropy(a, fa, fb)))


def lieb_ruskai_concavity_gap(rho_a: DensityOperator, rho_b: DensityOperator, lam):
    """Concavity gap of rho -> S(first factor | rest) at a lam-mixture; >= 0.
    A ``(T,)`` array of weights mixes row t with weight lam[t] (states or stacks
    broadcast against it) and gives a ``(T,)`` array of gaps."""
    if rho_a.dims != rho_b.dims:
        raise DimensionMismatchError(
            f"factorizations differ: {rho_a.dims} vs {rho_b.dims}"
        )
    if len(rho_a.dims) < 2:
        raise ValidationError("need at least two factors")
    lam = np.asarray(check_mixing_weight(lam))
    rest = list(range(1, len(rho_a.dims)))
    w = lam[..., None, None]
    mix = DensityOperator((1.0 - w) * rho_a.matrix + w * rho_b.matrix, rho_a.dims)
    s_mix = conditional_entropy(mix, [0], rest)
    s_a = conditional_entropy(rho_a, [0], rest)
    s_b = conditional_entropy(rho_b, [0], rest)
    return s_mix - ((1.0 - lam) * s_a + lam * s_b)


# ---------------------------------------------------------------------------
# Reports.


@dataclasses.dataclass(frozen=True)
class EntropyReport:
    """Named entropy values (nats) and one-sided inequality slacks: floats for
    one state, ``(T,)`` arrays for a stack."""

    values: dict[str, float]
    slacks: dict[str, float]

    def min_slack(self):
        """Smallest slack (NaN-propagating), per row for a stack."""
        return np.min(list(self.slacks.values()), axis=0) if self.slacks else math.inf


def subadditivity_report(rho12: DensityOperator) -> EntropyReport:
    """The chain S(rho_12) <= S(pinched) <= S_1 + S_2 with both slacks."""
    return subadditivity_chain(rho12)[0]


def subadditivity_chain(rho12: DensityOperator) -> tuple:
    """(subadditivity report, (rho_1, rho_2), pinched rho_12): each marginal is
    built once and serves the pinching basis, its entropy and the caller."""
    _two_factors(rho12)
    rho1, rho2 = rho12.marginal([0]), rho12.marginal([1])
    pinched = _pinch_in(rho12, pinch_bases(rho12, (rho1, rho2)))
    s12 = von_neumann_entropy(rho12)
    s_pinched = von_neumann_entropy(pinched)
    s1, s2 = von_neumann_entropy(rho1), von_neumann_entropy(rho2)
    return EntropyReport(
        values={"S12": s12, "S_pinched": s_pinched, "S1": s1, "S2": s2},
        slacks={
            "pinching_raises_entropy": s_pinched - s12,
            "classical_subadditivity": s1 + s2 - s_pinched,
        },
    ), (rho1, rho2), pinched


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


def _ssa_core(rho123: DensityOperator) -> tuple:
    """(SSA slack, {S123, S23, S12, S2}, rho_12): one state per marginal."""
    if len(rho123.dims) != 3:
        raise ValidationError(f"expected three factors, got dims {rho123.dims}")
    rho12 = rho123.marginal([0, 1])
    s123 = von_neumann_entropy(rho123)
    s23 = von_neumann_entropy(rho123.marginal([1, 2]))
    s12 = von_neumann_entropy(rho12)
    s2 = von_neumann_entropy(rho123.marginal([1]))
    values = {"S123": s123, "S23": s23, "S12": s12, "S2": s2}
    return (s12 - s2) - (s123 - s23), values, rho12


def ssa_slack(rho123: DensityOperator):
    """Strong subadditivity slack [S12 - S2] - [S123 - S23] >= 0 (a ``(T,)``
    array for a stack), as :func:`ssa_report` gives it, without building the
    decoupled states of its cross-check."""
    return _ssa_core(rho123)[0]


def ssa_report(rho123: DensityOperator) -> EntropyReport:
    """Strong subadditivity: [S12 - S2] - [S123 - S23] >= 0, with the
    decoupled-state cross-check S(tilde_123) - S(tilde_23) = S12 - S2, whose
    slack ``SSA_CHAIN_TOL - |mismatch|`` goes negative when it fails.  The
    decoupled state rho_12 x 1/d_3 is built from the rho_12 of the slack."""
    slack, values, rho12 = _ssa_core(rho123)
    d3 = rho123.dims[2]
    tilde = DensityOperator(tensor(rho12.matrix, np.eye(d3) / d3), (*rho12.dims, d3))
    s_tilde = von_neumann_entropy(tilde)
    s_tilde_23 = von_neumann_entropy(tilde.marginal([1, 2]))
    chain = (s_tilde - s_tilde_23) - (values["S12"] - values["S2"])
    return EntropyReport(
        values={**values, "S_tilde123": s_tilde, "S_tilde23": s_tilde_23},
        slacks={"ssa": slack, "uhlmann_chain_matches": SSA_CHAIN_TOL - np.abs(chain)},
    )


# ---------------------------------------------------------------------------
# Named and random states.


def bell_state() -> DensityOperator:
    """Maximally entangled two-qubit state (|00> + |11>)/sqrt(2)."""
    v = np.zeros(4)
    v[0] = v[3] = 1.0 / math.sqrt(2.0)
    return DensityOperator(np.outer(v, v), (2, 2))


def random_state(dims: Sequence[int], spec: RandomSpec) -> DensityOperator:
    """Hilbert-Schmidt ensemble state on the given tensor factorization."""
    return DensityOperator(random_densities(math.prod(dims), [spec.rng()])[0], dims)


def random_states(dims: Sequence[int], spec: RandomSpec, count: int) -> DensityOperator:
    """Stack of ``count`` states; row t is ``random_state(dims, spec.stream(t))``."""
    return DensityOperator(random_densities(math.prod(dims), spec.rngs(range(count))), dims)
