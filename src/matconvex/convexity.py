"""Matrix-convexity and matrix-monotonicity tests.

Covers the definitional midpoint gap, Jensen sampling over finitely supported
measures, the finite-difference second-derivative criterion, the kernel
identity linking the two, Loewner divided-difference matrices, and the secant
transform that turns a convexity question into a monotonicity one.

Randomized tests return a :class:`Verdict` with two-threshold semantics: a
run certifies only if every margin clears ``tol_cert``, reports a violation
only if some margin dips below ``tol_viol``, and is otherwise inconclusive; a
NaN margin never certifies.  Every randomized test is a per-trial function
run by :func:`run_trials`, the one loop that splits streams, stamps witnesses
and reduces margins.
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
    SpectrumWindow,
    apply_function,
    min_eigenvalue,
    op_norm,
)
from .rand import (
    RandomSpec,
    random_direction_from,
    random_in_window_from,
    random_simplex,
)

#: Default certification / violation thresholds on eigenvalue margins.
TOL_CERT = 1e-8
TOL_VIOL = 1e-6
#: Finite-difference verdicts run at a coarser resolution.
TOL_CERT_FD = 1e-5
TOL_VIOL_FD = 1e-4

#: Step for first-derivative central differences at site x.
_D1_STEP = 1e-6
#: h = (1 + ||M||) eps^(1/4) balances truncation against roundoff.
_FD_EXPONENT = 0.25


@dataclasses.dataclass(frozen=True)
class ScalarFunction:
    """A named real function with its admissible spectrum window.

    ``deriv`` (optional) supplies an exact first derivative for Loewner
    diagonals; ``second_derivative`` (optional) supplies an exact
    d^2/dt^2 f(M + tQ)|_0 callback used instead of finite differences.
    """

    name: str
    fn: Callable[[float], float]
    domain: SpectrumWindow
    deriv: Callable[[float], float] | None = None
    second_derivative: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        for x in _probe_points(self.domain):
            y = self.fn(x)
            if not math.isfinite(y):
                raise ValueError(f"{self.name} is not finite at probe point {x}")

    def __call__(self, x: float) -> float:
        return self.fn(x)

    def derivative(self, x: float) -> float:
        if self.deriv is not None:
            return self.deriv(x)
        h = _D1_STEP * (1.0 + abs(x))
        return (self.fn(x + h) - self.fn(x - h)) / (2.0 * h)


def _probe_points(domain: SpectrumWindow, count: int = 32) -> np.ndarray:
    """A compact sub-interval of the domain, sampled at ``count`` points."""
    if domain.is_bounded:
        inner = domain.shrunk(0.05)
        lo, hi = inner.a, inner.b
    elif math.isfinite(domain.a):
        lo, hi = domain.a + 0.05, domain.a + 10.0
    elif math.isfinite(domain.b):
        lo, hi = domain.b - 10.0, domain.b - 0.05
    else:
        lo, hi = -10.0, 10.0
    return np.linspace(lo, hi, count)


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

    @property
    def ok(self) -> bool:
        return self.status == "certified"


def _aggregate(
    margins: Sequence[float],
    witnesses: Sequence[dict],
    tol_cert: float,
    tol_viol: float,
) -> Verdict:
    """Deterministic reduction: worst margin, first witness in stream order.

    The worst margin propagates NaN, so a NaN trial never certifies.
    """
    worst = float(np.min(margins))
    for margin, witness in zip(margins, witnesses):
        if margin < -tol_viol:
            return Verdict("violated", len(margins), worst, witness)
    if worst >= -tol_cert:
        return Verdict("certified", len(margins), worst, None)
    return Verdict("inconclusive", len(margins), worst, None)


def run_trials(
    trial: Callable[[np.random.Generator], tuple[float, dict]],
    trials: int, spec: RandomSpec, tol_cert: float, tol_viol: float,
) -> Verdict:
    """Run ``trial`` on streams ``spec.stream(0 .. trials-1)`` and reduce.

    The only trial loop behind a :class:`Verdict`.  ``trial(rng)`` draws its
    inputs from ``rng`` and returns its margin and a witness (``kind`` plus
    the data that replays it); each witness is stamped with the absolute
    ``stream_id`` of its trial and its margin.
    """
    margins, witnesses = [], []
    for t in range(trials):
        stream = spec.stream(t)
        margin, witness = trial(stream.rng())
        margins.append(margin)
        witnesses.append({**witness, "stream_id": stream.stream_id, "margin": margin})
    return _aggregate(margins, witnesses, tol_cert, tol_viol)


def check_mixing_weight(lam: float) -> float:
    if not 0.0 < lam < 1.0:
        raise ValueError(f"mixing weight must lie in (0, 1), got {lam}")
    return float(lam)


def convexity_gap(
    f: ScalarFunction, a0: np.ndarray, a1: np.ndarray, lam: float
) -> np.ndarray:
    """(1-lam) f(A0) + lam f(A1) - f(A_lam); PSD iff the midpoint test passes here."""
    lam = check_mixing_weight(lam)
    a_mid = (1.0 - lam) * a0 + lam * a1
    f0 = apply_function(a0, f.fn, f.domain, source="A0")
    f1 = apply_function(a1, f.fn, f.domain, source="A1")
    fm = apply_function(a_mid, f.fn, f.domain, source="A_lambda")
    return (1.0 - lam) * f0 + lam * f1 - fm


def definition_test(
    f: ScalarFunction,
    window: SpectrumWindow,
    n: int,
    trials: int,
    spec: RandomSpec,
    tol_cert: float = TOL_CERT,
    tol_viol: float = TOL_VIOL,
) -> Verdict:
    """Randomized midpoint test of matrix convexity on n x n matrices."""
    def trial(rng):
        a0 = random_in_window_from(n, window, rng)
        a1 = random_in_window_from(n, window, rng)
        lam = float(rng.uniform(0.05, 0.95))
        margin = min_eigenvalue(convexity_gap(f, a0, a1, lam))
        return margin, {"kind": "definition", "A0": a0, "A1": a1, "lam": lam}

    return run_trials(trial, trials, spec, tol_cert, tol_viol)


def jensen_gap(f: ScalarFunction, weights, mats) -> np.ndarray:
    """sum_i w_i f(M_i) - f(sum_i w_i M_i); PSD at every measure iff f is
    matrix convex on the window."""
    mean = sum(w * m for w, m in zip(weights, mats))
    lhs = sum(w * apply_function(m, f.fn, f.domain, source=f"M_{i}")
              for i, (w, m) in enumerate(zip(weights, mats)))
    return lhs - apply_function(mean, f.fn, f.domain, source="barycenter")


def jensen_test(
    f: ScalarFunction,
    window: SpectrumWindow,
    n: int,
    atoms: int,
    trials: int,
    spec: RandomSpec,
    tol_cert: float = TOL_CERT,
    tol_viol: float = TOL_VIOL,
) -> Verdict:
    """Jensen gap over random finitely supported probability measures."""
    if atoms < 2:
        raise ValueError("jensen_test needs at least 2 atoms")

    def trial(rng):
        weights = random_simplex(atoms, rng)
        mats = [random_in_window_from(n, window, rng) for _ in range(atoms)]
        return min_eigenvalue(jensen_gap(f, weights, mats)), {
            "kind": "jensen", "weights": weights, "matrices": mats}

    return run_trials(trial, trials, spec, tol_cert, tol_viol)


def default_fd_step(m: np.ndarray) -> float:
    return (1.0 + op_norm(m)) * np.finfo(float).eps ** _FD_EXPONENT


def second_derivative_fd(
    f: ScalarFunction, m: np.ndarray, q: np.ndarray, h: float
) -> np.ndarray:
    """Central second difference (f(M+hQ) - 2 f(M) + f(M-hQ)) / h^2."""
    try:
        fp = apply_function(m + h * q, f.fn, f.domain, source="M+hQ")
        f0 = apply_function(m, f.fn, f.domain, source="M")
        fm = apply_function(m - h * q, f.fn, f.domain, source="M-hQ")
    except DomainViolationError as err:
        raise DomainViolationError(
            f"{err}; try a smaller step h",
            eigenvalue=err.eigenvalue,
            source=err.source,
        ) from err
    return (fp - 2.0 * f0 + fm) / (h * h)


def line_second_derivative(
    f: ScalarFunction, m: np.ndarray, q: np.ndarray, h: float | None = None
) -> np.ndarray:
    """Exact callback when registered, finite differences otherwise."""
    if f.second_derivative is not None:
        return f.second_derivative(m, q)
    if h is None:
        h = default_fd_step(m)
    return second_derivative_fd(f, m, q, h)


def second_derivative_test(
    f: ScalarFunction,
    window: SpectrumWindow,
    n: int,
    trials: int,
    spec: RandomSpec,
    tol_cert: float | None = None,
    tol_viol: float | None = None,
) -> Verdict:
    """Local convexity criterion: d^2/dt^2 f(M + tQ)|_0 >= 0 along random lines."""
    exact = f.second_derivative is not None
    if tol_cert is None:
        tol_cert = TOL_CERT if exact else TOL_CERT_FD
    if tol_viol is None:
        tol_viol = TOL_VIOL if exact else TOL_VIOL_FD

    def trial(rng):
        m = random_in_window_from(n, window, rng)
        q = random_direction_from(n, rng)
        margin = min_eigenvalue(line_second_derivative(f, m, q))
        return margin, {"kind": "second_derivative", "M": m, "Q": q}

    return run_trials(trial, trials, spec, tol_cert, tol_viol)


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
    quad_nodes: int = 32,
) -> float:
    """Frobenius residual of gap == integral of K_lam(t) d^2/dt^2 f(A_t) dt.

    The quadrature is composite Gauss-Legendre split at t = lam (the kernel
    has a kink there); the integrand uses the finite-difference second
    derivative along Q = A1 - A0.
    """
    lam = check_mixing_weight(lam)
    gap = convexity_gap(f, a0, a1, lam)
    q = a1 - a0
    nodes, weights = np.polynomial.legendre.leggauss(quad_nodes)
    integral = np.zeros_like(gap)
    for lo, hi in ((0.0, lam), (lam, 1.0)):
        half = 0.5 * (hi - lo)
        mid = 0.5 * (hi + lo)
        for x, w in zip(nodes, weights):
            t = mid + half * x
            a_t = a0 + t * q
            integrand = second_derivative_fd(f, a_t, q, default_fd_step(a_t))
            integral += (half * w * kernel_K(lam, t)) * integrand
    return float(np.linalg.norm(gap - integral))


def loewner_matrix(f: ScalarFunction, sites: Sequence[float]) -> np.ndarray:
    """Divided-difference matrix at strictly increasing sites; diagonal f'."""
    xs = [float(x) for x in sites]
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise ValueError("sites must be strictly increasing with no duplicates")
    for x in xs:
        if not f.domain.contains(x):
            raise DomainViolationError(
                f"site {x} outside domain of {f.name}", eigenvalue=x
            )
    k = len(xs)
    out = np.empty((k, k))
    for i in range(k):
        for j in range(k):
            if i == j:
                out[i, j] = f.derivative(xs[i])
            else:
                out[i, j] = (f.fn(xs[i]) - f.fn(xs[j])) / (xs[i] - xs[j])
    return out


def monotonicity_test(
    f: ScalarFunction,
    window: SpectrumWindow,
    max_sites: int,
    trials: int,
    spec: RandomSpec,
    tol_cert: float = TOL_CERT,
    tol_viol: float = TOL_VIOL,
) -> Verdict:
    """Matrix monotonicity via positivity of random Loewner matrices.  A trial
    whose 100 site draws all crowd closer than ``min_sep`` has a NaN margin."""
    inner = window.shrunk(0.05)
    min_sep = 1e-3 * (window.b - window.a)

    def trial(rng):
        k = int(rng.integers(2, max_sites + 1))
        for _ in range(100):
            xs = np.sort(rng.uniform(inner.a, inner.b, size=k))
            if np.all(np.diff(xs) >= min_sep):
                break
        else:
            return math.nan, {"kind": "loewner", "sites": xs}
        return min_eigenvalue(loewner_matrix(f, xs)), {"kind": "loewner", "sites": xs}

    return run_trials(trial, trials, spec, tol_cert, tol_viol)


def secant_transform(f: ScalarFunction, y: float) -> ScalarFunction:
    """g(x) = (f(x) - f(y)) / (x - y), with g(y) := f'(y).

    Matrix monotonicity of g is equivalent to matrix convexity of f
    (Kraus-Bendat-Sherman criterion), so monotonicity_test(g) doubles as a
    convexity test for f.
    """
    if not f.domain.contains(y):
        raise DomainViolationError(f"secant point {y} outside domain of {f.name}")
    fy = f.fn(y)
    near = 1e-8 * (1.0 + abs(y))

    def g(x: float) -> float:
        if abs(x - y) <= near:
            return f.derivative(y)
        return (f.fn(x) - fy) / (x - y)

    return ScalarFunction(name=f"secant[{f.name};y={y:g}]", fn=g, domain=f.domain)


def replay_witness(f: ScalarFunction, witness: dict) -> float:
    """Recompute the margin of a stored witness from its data alone."""
    kind = witness["kind"]
    if kind == "definition":
        gap = convexity_gap(f, witness["A0"], witness["A1"], witness["lam"])
        return min_eigenvalue(gap)
    if kind == "jensen":
        return min_eigenvalue(jensen_gap(f, witness["weights"], witness["matrices"]))
    if kind == "second_derivative":
        return min_eigenvalue(line_second_derivative(f, witness["M"], witness["Q"]))
    if kind == "loewner":
        return min_eigenvalue(loewner_matrix(f, witness["sites"]))
    raise ValueError(f"unknown witness kind {kind!r}")


# ---------------------------------------------------------------------------
# Canned function list with known ground truth on (0, inf), used as positive
# and negative controls by the test batteries and the CLI.

_POS = SpectrumWindow(0.0, math.inf)
_REALS = SpectrumWindow(-math.inf, math.inf)


def _x2_second_derivative(m: np.ndarray, q: np.ndarray) -> np.ndarray:
    return 2.0 * (q @ q)


BUILTINS: dict[str, ScalarFunction] = {
    "affine": ScalarFunction("affine", lambda x: 3.0 * x + 1.0, _REALS,
                             deriv=lambda x: 3.0,
                             second_derivative=lambda m, q: np.zeros_like(q)),
    "x2": ScalarFunction("x2", lambda x: x * x, _REALS, deriv=lambda x: 2.0 * x,
                         second_derivative=_x2_second_derivative),
    "x3": ScalarFunction("x3", lambda x: x**3, _REALS, deriv=lambda x: 3.0 * x * x),
    "x4": ScalarFunction("x4", lambda x: x**4, _REALS, deriv=lambda x: 4.0 * x**3),
    "inv": ScalarFunction("inv", lambda x: 1.0 / x, _POS, deriv=lambda x: -1.0 / x**2),
    "sqrt": ScalarFunction("sqrt", math.sqrt, _POS, deriv=lambda x: 0.5 / math.sqrt(x)),
    "neglog": ScalarFunction("neglog", lambda x: -math.log(x), _POS,
                             deriv=lambda x: -1.0 / x),
    "xlogx": ScalarFunction("xlogx", lambda x: x * math.log(x), _POS,
                            deriv=lambda x: math.log(x) + 1.0),
    "exp": ScalarFunction("exp", math.exp, _REALS, deriv=math.exp),
}

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
