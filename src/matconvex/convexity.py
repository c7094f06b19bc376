"""Matrix-convexity and matrix-monotonicity tests.

Covers the definitional midpoint gap, Jensen sampling over finitely supported
measures, the exact (Daleckii-Krein) second-derivative criterion, the kernel
identity linking the two, Loewner divided-difference matrices, and the secant
transform that turns a convexity question into a monotonicity one.

Randomized tests return a :class:`Verdict` with two-threshold semantics: a
run certifies only if every margin clears ``-TOL_CERT``, reports a violation
only if some margin dips below ``-TOL_VIOL``, and is otherwise inconclusive; a
NaN margin never certifies.  Every randomized test is a stacked trial run by
:func:`run_trials` on :func:`stacked_rows`, the one battery engine: trial t
draws from its own stream ``spec.stream(t)`` as a lone trial would, but a
chunk of trials is one ``(T, n, n)`` stack, so one eigensolve serves every
row; a violating trial's witness is rebuilt from its stream.  A sampled
matrix travels with its spectral factors (lambda, U) from the sampler, and f
and the Daleckii-Krein derivative are evaluated from them: the only
eigensolves left are of the mixtures A_lambda and the Jensen barycenter, which
no sampler made.  Witnesses store the factors next to each matrix, and
:func:`replay_witness` replays from them.
A randomized run can refute but never prove; `certified` means "no violation
found at the stated resolution".
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Sequence

import numpy as np

from .errors import DomainViolationError
from .linalg import (
    HERMITICITY_TOL,
    ScalarFunction,
    SpectrumWindow,
    apply_function,
    check_hermitian,
    entrywise,
    factor,
    from_spectrum,
    _raise_first,
    min_eigenvalue,
    spectral_function,
)
from .quadrature import gauss_legendre_01
from .rand import (
    RandomSpec,
    generators,
    random_direction_rows,
    random_in_window_factors,
    random_simplex,
    uniform_range,
    uniform_rows,
)

#: Certification / violation thresholds on eigenvalue margins.
TOL_CERT = 1e-8
TOL_VIOL = 1e-6

#: Points closer than this times (1 + max(|x_i|, |x_j|)) take confluent divided
#: differences: eps^(1/3) balances their O(h^2) error against eps/h roundoff.
_CONFLUENT = np.finfo(float).eps ** (1.0 / 3.0)
#: Relative rounding allowed in f_i - f_j before a divided difference
#: trusts the quotient over the trapezoid.
_ROUNDING = 4.0 * np.finfo(float).eps
#: Matrix entries per chunk of stacked trials, where each trial's generator
#: (about 2 kB, alive for the whole chunk) counts as 128 entries: one trial at
#: n = 128, 124 at n = 2, so a chunk never holds more than one large-n trial.
_TRIAL_CHUNK = 1 << 14
_GENERATOR_ENTRIES = 128


@dataclasses.dataclass(frozen=True)
class Verdict:
    """Outcome of a randomized certification run.

    ``worst_margin`` is the most negative eigenvalue margin seen across all
    trials; ``witness`` (present whenever status is ``violated``) carries
    enough data to replay that margin deterministically.
    """

    status: str  # "certified" | "violated" | "inconclusive"
    trials: int
    worst_margin: float
    witness: dict | None = None


def _aggregate(margins: Sequence[float], witness: Callable[[int], dict]) -> Verdict:
    """Deterministic reduction at ``TOL_CERT`` and ``TOL_VIOL``: worst margin,
    and ``witness(t)`` of the first violating trial t in stream order (the
    only witness ever built).

    The worst margin propagates NaN, so a NaN trial never certifies.
    """
    worst = float(np.min(margins))
    violating = np.flatnonzero(np.asarray(margins) < -TOL_VIOL)
    if violating.size:
        return Verdict("violated", len(margins), worst, witness(int(violating[0])))
    if worst >= -TOL_CERT:
        return Verdict("certified", len(margins), worst, None)
    return Verdict("inconclusive", len(margins), worst, None)


def _chunk_rows(n: int) -> int:
    """Trials per chunk for rows of n x n matrices (see ``_TRIAL_CHUNK``)."""
    return max(1, _TRIAL_CHUNK // (n * n + _GENERATOR_ENTRIES))


def stacked_rows(spec: RandomSpec, trials: int, n: int, body: Callable):
    """The one battery engine: ``body(rngs)`` on each chunk of
    :func:`_chunk_rows` (n) streams of ``spec.stream(0 .. trials-1)`` (hashed
    in one batch) returns a sequence of per-row outputs; each comes back
    concatenated in stream order, in a tuple.  Row t of a chunk draws from
    ``rngs[t]``; stacked kernels give a row bit for bit as its lone call, so
    the output does not depend on the chunking."""
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    rows, words = _chunk_rows(n), spec.seed_words(range(trials))
    outs = [body(generators(words[start:start + rows])) for start in range(0, trials, rows)]
    return tuple(map(np.concatenate, zip(*outs)))


def run_trials(
    trial: Callable[[list[np.random.Generator]], tuple[np.ndarray, Callable[[int], dict]]],
    trials: int, spec: RandomSpec, n: int,
) -> Verdict:
    """Run ``trial`` on streams ``spec.stream(0 .. trials-1)`` and reduce.

    :func:`stacked_rows`, then :func:`_aggregate`, the only route to a
    :class:`Verdict`.  ``trial(rngs)`` returns the ``(T,)`` margins of its
    stack and ``witness(t)``, the data that replays row t, under ``kind``.
    Only margins are kept: the first violating trial's witness comes from
    ``trial`` rerun on that one stream, stamped with its ``stream_id`` and
    margin."""
    (margins,) = stacked_rows(spec, trials, n, lambda rngs: trial(rngs)[:1])

    def witness(t: int) -> dict:
        return {**trial(spec.rngs([t]))[1](0),
                "stream_id": spec.stream(t).stream_id, "margin": float(margins[t])}

    return _aggregate(margins, witness)


def _with_factors(key: str, m, w, u) -> dict:
    """Witness entry ``key`` and its spectral factors, ``key_eigenvalues`` and
    ``key_eigenvectors``, from which :func:`replay_witness` recomputes f."""
    return {key: m, f"{key}_eigenvalues": w, f"{key}_eigenvectors": u}


def _stored_factors(witness: dict, key: str) -> tuple[np.ndarray, np.ndarray]:
    """The factors stored next to ``witness[key]``; ValueError naming the key
    unless they are there and rebuild it to within
    ``HERMITICITY_TOL * (1 + max|entry|)``."""
    for k in (f"{key}_eigenvalues", f"{key}_eigenvectors"):
        if k not in witness:
            raise ValueError(f"witness has no {k!r}: regenerate it from its stream id")
    m = np.asarray(witness[key], dtype=complex)
    w = np.asarray(witness[f"{key}_eigenvalues"], dtype=float)
    u = np.asarray(witness[f"{key}_eigenvectors"], dtype=complex)
    if w.shape != m.shape[:-1] or u.shape != m.shape:
        raise ValueError(f"witness factors of {key!r} have shapes {w.shape} and "
                         f"{u.shape}, not those of {key!r} {m.shape}")
    error = np.max(np.abs(from_spectrum(w, u) - m))
    bound = HERMITICITY_TOL * (1.0 + np.max(np.abs(m)))
    if not error <= bound:  # NaN fails too
        raise ValueError(f"witness factors of {key!r} rebuild it to {error:.3e}, "
                         f"beyond {bound:.3e}")
    return w, u


def check_mixing_weight(lam):
    """A weight in (0, 1), or a ``(T,)`` array of them; NaN fails."""
    arr = np.asarray(lam, dtype=float)
    if not np.all((0.0 < arr) & (arr < 1.0)):
        raise ValueError(f"mixing weight must lie in (0, 1), got {lam}")
    return float(arr) if arr.ndim == 0 else arr


def convexity_gap(
    f: ScalarFunction, a0: np.ndarray, a1: np.ndarray, lam: float, factors=None,
) -> np.ndarray:
    """(1-lam) f(A0) + lam f(A1) - f(A_lam); PSD iff the midpoint test passes
    here.  Stacks of A0 and A1 take a ``(T,)`` array of weights.

    ``factors`` holds the spectral factors ``(w, U)`` of A0 and of A1 when
    the caller has them, as the sampler does, so only A_lam is diagonalized;
    otherwise :func:`linalg.factor` checks and diagonalizes A0 and A1.
    """
    lam = np.asarray(check_mixing_weight(lam))[..., None, None]
    (w0, u0), (w1, u1) = factors or (factor(a0), factor(a1))
    f0 = spectral_function(w0, u0, f, source="A0")
    f1 = spectral_function(w1, u1, f, source="A1")
    fm = apply_function((1.0 - lam) * a0 + lam * a1, f, source="A_lambda")
    return (1.0 - lam) * f0 + lam * f1 - fm


def definition_test(
    f: ScalarFunction,
    window: SpectrumWindow,
    n: int,
    trials: int,
    spec: RandomSpec,
) -> Verdict:
    """Randomized midpoint test of matrix convexity on n x n matrices."""
    def trial(rngs):
        e0 = random_in_window_factors(n, window, rngs)
        e1 = random_in_window_factors(n, window, rngs)
        a0, a1 = from_spectrum(*e0), from_spectrum(*e1)
        lam = uniform_rows(0.05, 0.95, rngs)
        margins = np.linalg.eigvalsh(convexity_gap(f, a0, a1, lam, (e0, e1)))[:, 0]
        return margins, lambda t: {"kind": "definition", "lam": float(lam[t]),
                                   **_with_factors("A0", a0[t], e0[0][t], e0[1][t]),
                                   **_with_factors("A1", a1[t], e1[0][t], e1[1][t])}

    return run_trials(trial, trials, spec, n)


def jensen_gap(f: ScalarFunction, weights, mats, factors=None) -> np.ndarray:
    """sum_i w_i f(M_i) - f(sum_i w_i M_i); PSD at every measure iff f is
    matrix convex on the window.  ``weights`` (..., atoms) and ``mats``
    (..., atoms, n, n) may carry a leading stack axis.  ``factors`` holds the
    spectral factors ``(w, U)`` of ``mats``, shaped (..., atoms, n) and
    (..., atoms, n, n), when the caller has them, so only the barycenter is
    diagonalized; otherwise :func:`linalg.factor` checks and diagonalizes them."""
    weights, mats = np.asarray(weights), np.asarray(mats)
    w, u = factors or factor(mats)
    lhs = sum(weights[..., i, None, None]
              * spectral_function(w[..., i, :], u[..., i, :, :], f, source=f"M_{i}")
              for i in range(weights.shape[-1]))
    mean = sum(weights[..., i, None, None] * mats[..., i, :, :]
               for i in range(weights.shape[-1]))
    return lhs - apply_function(mean, f, source="barycenter")


def jensen_test(
    f: ScalarFunction,
    window: SpectrumWindow,
    n: int,
    atoms: int,
    trials: int,
    spec: RandomSpec,
) -> Verdict:
    """Jensen gap over random finitely supported probability measures."""
    if atoms < 2:
        raise ValueError("jensen_test needs at least 2 atoms")

    def trial(rngs):
        weights = np.array([random_simplex(atoms, rng) for rng in rngs])
        w, u = (np.stack(x, 1) for x in zip(*[random_in_window_factors(n, window, rngs)
                                              for _ in range(atoms)]))
        mats = from_spectrum(w, u)
        margins = np.linalg.eigvalsh(jensen_gap(f, weights, mats, (w, u)))[:, 0]
        return margins, lambda t: {"kind": "jensen", "weights": weights[t],
                                   **_with_factors("matrices", list(mats[t]),
                                                   list(w[t]), list(u[t]))}

    return run_trials(trial, trials, spec, n)


def _divided_differences(f: ScalarFunction, x: np.ndarray, second: bool = True,
                         source: str = "M"):
    """``(L, G, near)`` over the last axis of ``x``: L = [f[x_i, x_j]], G =
    [f[x_i, x_i, x_j]] (None unless ``second``) and the confluent pairs, from
    f, f' and f'' at the points of x only; a non-finite value raises
    DomainViolationError naming its point.

    L is the corrected trapezoid (f'_i + f'_j)/2 - (x_i - x_j)(f''_i - f''_j)/12
    wherever it matches the quotient (f_i - f_j)/(x_i - x_j) to the rounding
    of f, and the quotient elsewhere: the quotient loses eps |f| / |x_i - x_j|,
    which G = (f'_i - L)/(x_i - x_j) and the Daleckii-Krein commutator would
    divide by the gap again.  A pair closer than
    ``_CONFLUENT * (1 + max(|x_i|, |x_j|))``, the diagonal included, always
    takes the trapezoid and G = (2 f''_i + f''_j)/6.
    """
    if f.deriv is None or (second and f.deriv2 is None):
        raise ValueError(f"{f.name} has no closed-form "
                         f"{'deriv and deriv2' if second else 'deriv'}")
    x = np.asarray(x, dtype=float)

    fx, d1 = entrywise(f.fn, x), entrywise(f.deriv, x)
    d2 = entrywise(f.deriv2, x) if second else np.zeros(x.shape)
    finite = np.isfinite(fx) & np.isfinite(d1) & np.isfinite(d2)
    _raise_first(~finite, x, source, "gives a non-finite function value")
    dx = x[..., :, None] - x[..., None, :]
    df = fx[..., :, None] - fx[..., None, :]
    ax = np.abs(x)
    near = np.abs(dx) <= _CONFLUENT * (1.0 + np.maximum(ax[..., :, None], ax[..., None, :]))
    trapezoid = (0.5 * (d1[..., :, None] + d1[..., None, :])
                 - dx * (d2[..., :, None] - d2[..., None, :]) / 12.0)
    rounding = _ROUNDING * (np.abs(fx[..., :, None]) + np.abs(fx[..., None, :]))
    apart = np.where(near, 1.0, dx)
    lo = np.where(~near & (np.abs(df - dx * trapezoid) > rounding), df / apart, trapezoid)
    if not second:
        return lo, None, near
    g = np.where(near, (2.0 * d2[..., :, None] + d2[..., None, :]) / 6.0,
                 (d1[..., :, None] - lo) / apart)
    return lo, g, near


def line_second_derivative(f: ScalarFunction, m: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Exact d^2/dt^2 f(M + tQ)|_0, row by row over a stack: Q checked
    Hermitian, M checked and diagonalized by :func:`linalg.factor`, then
    :func:`spectral_second_derivative`."""
    check_hermitian(np.asarray(q))
    return spectral_second_derivative(f, *factor(m), q)


def spectral_second_derivative(
    f: ScalarFunction, w: np.ndarray, u: np.ndarray, q: np.ndarray
) -> np.ndarray:
    """Exact d^2/dt^2 f(M + tQ)|_0 by the Daleckii-Krein formula, row by row
    over a stack, for M = U diag(w) U* given by its spectral factors.

    With Q~ = U* Q U, entry (i, k) of U* D U is 2 sum_j f[w_i, w_j, w_k]
    Q~_ij Q~_jk.  A distant pair reads it from the commutator
    ((L o Q~) Q~ - Q~ (L o Q~))_ik / (w_i - w_k); a confluent pair, the
    diagonal included, from sum_j (G_ij + G_kj)/2 Q~_ij Q~_jk.
    """
    f.domain.check_spectrum(w, source="M")
    lo, g, near = _divided_differences(f, w)
    uh = u.conj().swapaxes(-1, -2)
    qt = uh @ q @ u
    lq = (lo * qt) @ qt  # Q~ (L o Q~) is its adjoint
    gq = (g * qt) @ qt   # and Q~ (G^T o Q~) is this one's
    dw = np.where(near, 1.0, w[..., :, None] - w[..., None, :])
    s = np.where(near, 0.5 * (gq + gq.conj().swapaxes(-1, -2)),
                 (lq - lq.conj().swapaxes(-1, -2)) / dw)
    return 2.0 * (u @ s @ uh)


def second_derivative_test(
    f: ScalarFunction,
    window: SpectrumWindow,
    n: int,
    trials: int,
    spec: RandomSpec,
) -> Verdict:
    """Local convexity criterion: d^2/dt^2 f(M + tQ)|_0 >= 0 along random lines."""
    def trial(rngs):
        w, u = random_in_window_factors(n, window, rngs)
        q = random_direction_rows(n, rngs)
        margins = np.linalg.eigvalsh(spectral_second_derivative(f, w, u, q))[:, 0]
        return margins, lambda t: {"kind": "second_derivative", "Q": q[t],
                                   **_with_factors("M", from_spectrum(w[t], u[t]), w[t], u[t])}

    return run_trials(trial, trials, spec, n)


def kernel_K(lam: float, t: float) -> float:
    """Piecewise-linear nonnegative kernel with a kink at t = lam."""
    lam = check_mixing_weight(lam)
    if t < 0.0 or t > 1.0:
        return 0.0
    if t <= lam:
        return (1.0 - lam) * t
    return (1.0 - t) * lam


def kernel_identity_residual(
    f: ScalarFunction,
    a0: np.ndarray,
    a1: np.ndarray,
    lam: float,
) -> float:
    """Frobenius residual of gap == integral of K_lam(t) d^2/dt^2 f(A_t) dt.

    The quadrature is composite Gauss-Legendre, 32 nodes on each side of
    t = lam (the kernel has a kink there); the integrand is the exact line
    second derivative along Q = A1 - A0, at every node in one stack.
    """
    lam = check_mixing_weight(lam)
    gap = convexity_gap(f, a0, a1, lam)
    q = a1 - a0
    nodes, weights = gauss_legendre_01(32)
    width = np.array([[lam], [1.0 - lam]])  # the pieces [0, lam] and [lam, 1]
    ts = (width * nodes + [[0.0], [lam]]).ravel()
    ws = (width * weights).ravel() * [kernel_K(lam, t) for t in ts]
    integrand = line_second_derivative(f, a0 + ts[:, None, None] * q, q)
    integral = np.tensordot(ws, integrand, axes=1)
    return float(np.linalg.norm(gap - integral))


def loewner_matrix(f: ScalarFunction, sites: Sequence[float]) -> np.ndarray:
    """Divided-difference matrix at strictly increasing sites; diagonal f'.
    A ``(T, k)`` array of site rows gives a ``(T, k, k)`` stack."""
    xs = np.asarray(sites, dtype=float)
    if np.any(np.diff(xs, axis=-1) <= 0.0):
        raise ValueError("sites must be strictly increasing with no duplicates")
    f.domain.check_spectrum(xs, source="sites")
    return _divided_differences(f, xs, second=False, source="sites")[0]


def monotonicity_test(
    f: ScalarFunction,
    window: SpectrumWindow,
    max_sites: int,
    trials: int,
    spec: RandomSpec,
) -> Verdict:
    """Matrix monotonicity via positivity of random Loewner matrices.  A trial
    whose 100 site draws all crowd closer than ``min_sep`` has a NaN margin;
    the others run as one Loewner stack and one ``eigvalsh`` per site count."""
    inner = window.shrunk()
    low, span = uniform_range(inner.a, inner.b)
    min_sep = 1e-3 * (window.b - window.a)

    def draw(rng):
        k = int(rng.integers(2, max_sites + 1))
        for _ in range(100):
            xs = np.sort(low + span * rng.random(k))
            if np.all(np.diff(xs) >= min_sep):
                return xs, True
        return xs, False

    def trial(rngs):
        sites, spaced = zip(*map(draw, rngs))
        margins = np.full(len(sites), math.nan)
        for k in set(map(len, sites)):
            rows = [t for t, xs in enumerate(sites) if spaced[t] and len(xs) == k]
            if rows:
                loewner = loewner_matrix(f, [sites[t] for t in rows])
                margins[rows] = np.linalg.eigvalsh(loewner)[:, 0]
        return margins, lambda t: {"kind": "loewner", "sites": sites[t]}

    return run_trials(trial, trials, spec, max_sites)


def secant_transform(f: ScalarFunction, y: float) -> ScalarFunction:
    """g(x) = f[x, y], with g'(x) = f[x, x, y], both exact divided differences.

    g is matrix monotone iff f is matrix convex (Kraus criterion): the Loewner
    matrix of g at sites x_i is [f[x_i, x_j, y]].
    """
    if not f.domain.contains(y):
        raise DomainViolationError(f"secant point {y} outside domain of {f.name}")

    def pair(x, k):  # f[x, y] (k = 0) or f[x, x, y] (k = 1) at every entry of x
        x = np.asarray(x, dtype=float)
        return _divided_differences(f, np.stack([x, np.full_like(x, y)], -1))[k][..., 0, 1]

    return ScalarFunction(f"secant[{f.name};y={y:g}]", lambda x: pair(x, 0), f.domain,
                          deriv=lambda x: pair(x, 1))


def secant_test(f: ScalarFunction, y: float, window: SpectrumWindow, max_sites: int,
                trials: int, spec: RandomSpec) -> Verdict:
    """Matrix convexity of f as the monotonicity of its secant at base point
    y; the witness (kind ``secant``) records y, so it replays on f."""
    v = monotonicity_test(secant_transform(f, y), window, max_sites, trials, spec)
    if v.witness is None:
        return v
    return dataclasses.replace(v, witness={**v.witness, "kind": "secant", "y": y})


def replay_witness(f: ScalarFunction, witness: dict) -> float:
    """Recompute the margin of a stored witness from its data alone."""
    kind = witness["kind"]
    if kind == "definition":
        factors = (_stored_factors(witness, "A0"), _stored_factors(witness, "A1"))
        gap = convexity_gap(f, witness["A0"], witness["A1"], witness["lam"], factors)
        return min_eigenvalue(gap)
    if kind == "jensen":
        factors = _stored_factors(witness, "matrices")
        return min_eigenvalue(jensen_gap(f, witness["weights"], witness["matrices"], factors))
    if kind == "second_derivative":
        w, u = _stored_factors(witness, "M")
        check_hermitian(np.asarray(witness["Q"]))
        return min_eigenvalue(spectral_second_derivative(f, w, u, witness["Q"]))
    if kind == "loewner":
        return min_eigenvalue(loewner_matrix(f, witness["sites"]))
    if kind == "secant":
        return min_eigenvalue(loewner_matrix(secant_transform(f, witness["y"]), witness["sites"]))
    raise ValueError(f"unknown witness kind {kind!r}")


# ---------------------------------------------------------------------------
# Canned function list with known ground truth on (0, inf), used as positive
# and negative controls by the test batteries and the CLI.

_POS = SpectrumWindow(0.0, math.inf)
_REALS = SpectrumWindow(-math.inf, math.inf)


BUILTINS: dict[str, ScalarFunction] = {f.name: f for f in (
    ScalarFunction("affine", lambda x: 3.0 * x + 1.0, _REALS, deriv=lambda x: 3.0,
                   deriv2=lambda x: 0.0),
    ScalarFunction("x2", lambda x: x * x, _REALS, deriv=lambda x: 2.0 * x,
                   deriv2=lambda x: 2.0),
    ScalarFunction("x3", lambda x: x**3, _REALS, deriv=lambda x: 3.0 * x * x,
                   deriv2=lambda x: 6.0 * x),
    ScalarFunction("x4", lambda x: x**4, _REALS, deriv=lambda x: 4.0 * x**3,
                   deriv2=lambda x: 12.0 * x * x),
    ScalarFunction("inv", lambda x: 1.0 / x, _POS, deriv=lambda x: -1.0 / x**2,
                   deriv2=lambda x: 2.0 / x**3),
    ScalarFunction("sqrt", np.sqrt, _POS, deriv=lambda x: 0.5 / np.sqrt(x),
                   deriv2=lambda x: -0.25 / (x * np.sqrt(x))),
    ScalarFunction("neglog", lambda x: -np.log(x), _POS, deriv=lambda x: -1.0 / x,
                   deriv2=lambda x: 1.0 / x**2),
    ScalarFunction("xlogx", lambda x: x * np.log(x), _POS,
                   deriv=lambda x: np.log(x) + 1.0, deriv2=lambda x: 1.0 / x),
    ScalarFunction("exp", np.exp, _REALS, deriv=np.exp, deriv2=np.exp),
)}

#: Ground truth on (0, inf): (matrix convex, matrix monotone increasing).
TRUTH_ON_POSITIVES: dict[str, tuple[bool, bool]] = {
    "affine": (True, True),
    "x2": (True, False),
    "x3": (False, False),
    "x4": (False, False),
    "inv": (True, False),
    "sqrt": (False, True),
    "neglog": (True, False),
    "xlogx": (True, False),
    "exp": (False, False),
}


def builtin(name: str) -> ScalarFunction:
    try:
        return BUILTINS[name]
    except KeyError:
        raise KeyError(
            f"unknown function {name!r}; known: {sorted(BUILTINS)}"
        ) from None
