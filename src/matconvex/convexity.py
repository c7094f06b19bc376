"""Matrix-convexity and matrix-monotonicity tests.

Covers the Jensen gap of finitely supported measures, whose two-atom case is
the definitional midpoint gap, the exact (Daleckii-Krein) second-derivative
criterion, the kernel identity linking the two, Loewner divided-difference
matrices, and the secant transform that turns convexity into monotonicity.

Randomized tests return a :class:`Verdict` with two-threshold semantics: a
run certifies only if every margin clears ``-TOL_CERT``, reports a violation
only if some margin dips below ``-TOL_VIOL``, and is otherwise inconclusive; a
NaN margin never certifies.  Every randomized test is a stacked trial run by
:func:`run_trials` on :func:`stacked_rows`, the one battery engine: trial t
draws from its own stream ``spec.stream(t)`` as a lone trial would, but a
chunk of trials is one ``(T, n, n)`` stack, so one eigensolve serves every
row; a violating trial's witness is rebuilt from its stream.  A trial hands
back one or more gap or second-derivative stacks (the definition test, one
per function it was given, all from one draw), and the engine takes the
least eigenvalues of each, its margins, once per group of consecutive
chunks, so each eigensolve is a stack large enough for numpy to release the
GIL; each stack's margins reduce to their own :class:`Verdict`.  Chunks
share nothing, so at n >= 32 with BLAS pinned their groups run on as many
threads as the free CPUs allow, and their outputs come back in stream
order, bit for bit as one thread gives them.  Across BLAS thread counts a
report repeats bit for bit up to n = 64; above that, OpenBLAS's eigh, qr and
inv round differently on one thread and on two, so a report keeps its
statuses and witness stream ids, and its margins agree to rounding
(1e-10 (1 + |margin|)).  A sampled matrix travels with
its spectral factors (lambda, U) from the sampler, and f and the
Daleckii-Krein derivative are evaluated from them: the only eigensolve left
is of the barycenter (the mixture A_lambda of a midpoint), which no sampler
made.  A witness holds only what
was sampled (matrices, weights, direction), never their factors:
:func:`replay_witness` evaluates it through the matrix path to rounding, and
``RandomSpec(seed, stream_id)`` redraws it bit for bit.
A randomized run can refute but never prove; `certified` means "no violation
found at the stated resolution".
"""

from __future__ import annotations

import dataclasses
import functools
import math
import os
from contextvars import copy_context
from threading import Lock, Thread
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DimensionMismatchError, DomainViolationError
from .linalg import (
    ScalarFunction,
    SpectrumWindow,
    check_hermitian,
    check_mixing_weight,
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
    random_directions,
    random_in_window_factors,
    random_simplex,
    uniform_range,
    uniform_rows,
)

#: Certification / violation thresholds on eigenvalue margins.
TOL_CERT = 1e-8
TOL_VIOL = 1e-6
#: Most Loewner sites a monotonicity trial takes: k sites 1e-3 (b - a) apart in
#: the shrunk window leave (0.9 - (k - 1) 1e-3) (b - a) free, > 0 up to k = 900.
MAX_SITES = 900

#: Points closer than this times (1 + max(|x_i|, |x_j|)) take confluent divided
#: differences: eps^(1/3) balances their O(h^2) error against eps/h roundoff.
_CONFLUENT = np.finfo(float).eps ** (1.0 / 3.0)
#: Relative rounding allowed in f_i - f_j before a divided difference
#: trusts the quotient over the trapezoid.
_ROUNDING = 4.0 * np.finfo(float).eps
#: Matrix entries per chunk of stacked trials, where each trial's generator
#: (about 2 kB, alive for the whole chunk) counts as 128 entries: one trial at
#: n = 128, 124 at n = 2, so a chunk never holds more than one large-n trial
#: (one per thread when chunks run on threads).
_TRIAL_CHUNK = 1 << 14
_GENERATOR_ENTRIES = 128
#: Chunks of n x n rows run on threads from this n on, where LAPACK, which
#: releases the GIL, does most of their work.  On a 2-CPU host with BLAS
#: pinned, two threads changed definition_test's wall / CPU time by +26 % /
#: +72 % at n = 4, -21 % / +24 % at n = 8, -26 % / +6 % at n = 16 (Jensen:
#: +19 % CPU), -33 % / +7 % at n = 32 and -37 % / +4 % at n = 128.
_THREADED_N = 32
#: numpy 2.4's eigvalsh keeps the GIL on a stack of rows x n <= 500 entries
#: of output: run beside a pure-Python loop, it held it at (3, 128, 128),
#: (7, 64, 64), (31, 16, 16) and (250, 2, 2) and released it at (4, 128, 128),
#: (8, 64, 64), (32, 16, 16) and (251, 2, 2).  On a 2-CPU host with one
#: BLAS thread, one-row eigvalsh calls at n = 128 took 0.97 ms each on one
#: thread and 1.02 ms on two, where eigh went 1.88 -> 0.97 ms and a
#: (4, 128, 128) eigvalsh 0.97 -> 0.52 ms a row; so margins are taken over
#: groups of more than this many entries.
_EIGVALSH_GIL = 500


def _blas_threads(environ=os.environ) -> int | None:
    """The BLAS thread count, read as OpenBLAS reads it when it loads:
    ``OPENBLAS_NUM_THREADS``, else ``OMP_NUM_THREADS``; a value that is not a
    positive integer counts as unset, and None (neither set) means BLAS
    threads already use every CPU."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        value = environ.get(var, "").strip()
        if value.isdecimal() and int(value) > 0:
            return int(value)
    return None


#: read once, on import, as BLAS reads it once, when numpy loads
_BLAS_THREADS = _blas_threads()


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


def shape_groups(rngs: Sequence[np.random.Generator], shapes: Iterable):
    """Per distinct shape, sorted: ``(shape, rows, [rngs[t] for t in rows])``,
    ``rows`` the ascending int array of the trials t with ``shapes[t] == shape``."""
    shapes = list(shapes)
    for shape in sorted(set(shapes)):
        rows = np.array([t for t, x in enumerate(shapes) if x == shape])
        yield shape, rows, [rngs[t] for t in rows]


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


def _workers(n: int, chunks: int) -> int:
    """Threads for ``chunks`` chunks of n x n rows, the calling one included:
    one below ``_THREADED_N`` or when BLAS is not pinned (its own threads then
    fill the CPUs), else the CPUs of the affinity mask over the BLAS threads,
    at most one per chunk."""
    if n < _THREADED_N or _BLAS_THREADS is None:
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(chunks, (cpus or 1) // _BLAS_THREADS))


def _map_in_order(fn: Callable, items: Sequence, workers: int) -> list:
    """``[fn(item) for item in items]`` on the calling thread and
    ``workers - 1`` helper threads, each taking the next item off one counter
    and running in a copy of the caller's context (numpy's ``errstate`` lives
    there).  Raises what that loop would: the error of the first failing
    item, once the items before it are done; no later item starts after it
    fails."""
    results, errors, lock = [None] * len(items), {}, Lock()
    state = {"next": 0, "stop": len(items)}

    def work():
        while True:
            with lock:
                i = state["next"]
                if i >= state["stop"]:
                    return
                state["next"] = i + 1
            try:
                results[i] = fn(items[i])
            except BaseException as err:  # noqa: BLE001 - raised below, in order
                with lock:
                    errors[i] = err
                    state["stop"] = min(state["stop"], i)
                return

    helpers = [Thread(target=copy_context().run, args=(work,)) for _ in range(workers - 1)]
    for helper in helpers:
        helper.start()
    work()
    for helper in helpers:
        helper.join()
    if errors:
        raise errors[min(errors)]
    return results


def _groups(trials: int, rows: int, n: int, workers: int) -> list[range]:
    """The chunk starts ``range(0, trials, rows)`` cut into consecutive
    groups, as many as a multiple of ``workers``, so the groups split evenly
    over them.  When the full chunks allow ``workers`` groups of more than
    ``_EIGVALSH_GIL / n`` rows, every group holds that many rows of full
    chunks; otherwise there are ``workers`` groups (at most one per chunk).
    Group sizes differ by at most one chunk, the larger groups last, so the
    short last chunk never leaves its group below that size."""
    starts = range(0, trials, rows)
    need = -(-(_EIGVALSH_GIL // n + 1) // rows)  # full chunks in a group
    count = min(len(starts), max(workers, trials // rows // need // workers * workers))
    size, extra = divmod(len(starts), count)
    cuts = [i * size + max(0, i - count + extra) for i in range(count + 1)]
    return [starts[a:b] for a, b in zip(cuts, cuts[1:])]


def stacked_rows(spec: RandomSpec, trials: int, n: int, body: Callable, threads: bool = True):
    """The one battery engine: ``body(rngs)`` on each chunk of
    :func:`_chunk_rows` (n) streams of ``spec.stream(0 .. trials-1)`` (hashed
    in one batch) returns a sequence of per-row outputs; each comes back
    concatenated in stream order, in a tuple.  Row t of a chunk draws from
    ``rngs[t]``; stacked kernels give a row bit for bit as its lone call, so
    the output does not depend on the chunking.  A chunk's generators are
    built from its own rows of the batch and it shares nothing with another.

    A worker takes a group of consecutive chunks (:func:`_groups`), runs
    their bodies one after another, so a body's memory does not grow, and
    reduces each output, concatenated over the group, by
    :func:`_least_eigenvalues`: the margin eigensolves of a stack run once
    per group, on more than ``_EIGVALSH_GIL / n`` rows, which numpy solves
    without the GIL.  Groups run on :func:`_workers` threads
    unless ``threads`` is False, as a body that holds the GIL (Python draws,
    small kernels) asks: outputs, and the error raised (the first failing
    chunk's), are those of one thread."""
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    if n < 1:
        raise DimensionMismatchError(f"dimension must be >= 1, got n={n}")
    rows, words = _chunk_rows(n), spec.seed_words(range(trials))
    workers = _workers(n, -(-trials // rows)) if threads else 1

    def join(outs):  # one group's chunk outputs
        return tuple(_least_eigenvalues(np.concatenate(column)) for column in zip(*outs))

    outs = _map_in_order(
        lambda group: join([body(generators(words[start:start + rows])) for start in group]),
        _groups(trials, rows, n, workers), workers)
    return tuple(map(np.concatenate, zip(*outs)))


def _least_eigenvalues(stack: np.ndarray) -> np.ndarray:
    """A body's output, joined over a group: a ``(T,)`` column as it is, or
    the least eigenvalue of each row of a ``(T, n, n)`` stack (its margins)."""
    return stack if stack.ndim == 1 else min_eigenvalue(stack)


def run_trials(
    trial: Callable[[list[np.random.Generator]], tuple],
    trials: int, spec: RandomSpec, n: int, threads: bool = True,
) -> tuple[Verdict, ...]:
    """Run ``trial`` on streams ``spec.stream(0 .. trials-1)`` and reduce:
    one :class:`Verdict` per output of the trial.

    :func:`stacked_rows` (``threads`` passed on), then :func:`_aggregate`
    on each output, the only route to a :class:`Verdict`.  ``trial(rngs)``
    returns one or more outputs, each either the ``(T,)`` margins of its
    stack or the ``(T, n, n)`` stack whose least eigenvalues are its
    margins, and last ``witness(t)``, the data that replays row t, under
    ``kind``.  The engine takes those least eigenvalues itself, once per
    group of chunks, so each eigensolve is large enough to leave the GIL to
    the other workers.  Only margins are kept: the first violating trial's
    witness of an output comes from ``trial`` rerun on that one stream
    (``spec.stream(t).rng()``, once per stream for all outputs), stamped
    with its ``stream_id`` and that output's margin."""
    columns = stacked_rows(spec, trials, n, lambda rngs: trial(rngs)[:-1], threads)
    rerun = functools.cache(lambda t: trial([spec.stream(t).rng()])[-1](0))

    def witness(margins: np.ndarray) -> Callable[[int], dict]:
        return lambda t: {**rerun(t), "stream_id": spec.stream(t).stream_id,
                          "margin": float(margins[t])}

    return tuple(_aggregate(margins, witness(margins)) for margins in columns)


def definition_tests(
    fs: Sequence[ScalarFunction],
    window: SpectrumWindow,
    n: int,
    trials: int,
    spec: RandomSpec,
) -> tuple[Verdict, ...]:
    """Randomized midpoint tests of matrix convexity on n x n matrices, one
    verdict per f of ``fs``: the two-atom :func:`jensen_gap` at weights
    (1 - lam, lam).  A trial draws A0, A1 and lam once and diagonalizes
    A_lam once for every f, so each verdict is bit for bit the one
    :func:`definition_test` gives its f alone; a domain escape of any f
    raises."""
    fs = tuple(fs)
    if not fs:
        raise ValueError("definition_tests needs at least one function")

    def trial(rngs):
        e0 = random_in_window_factors(n, window, rngs)
        e1 = random_in_window_factors(n, window, rngs)
        a0, a1 = from_spectrum(*e0), from_spectrum(*e1)
        lam = uniform_rows(0.05, 0.95, rngs)
        return *jensen_gap(fs, np.stack([1.0 - lam, lam], -1), (a0, a1), (e0, e1)), lambda t: {
            "kind": "definition", "lam": float(lam[t]), "A0": a0[t], "A1": a1[t]}

    return run_trials(trial, trials, spec, n)


def definition_test(
    f: ScalarFunction,
    window: SpectrumWindow,
    n: int,
    trials: int,
    spec: RandomSpec,
) -> Verdict:
    """Randomized midpoint test of matrix convexity on n x n matrices:
    :func:`definition_tests` of f alone."""
    (verdict,) = definition_tests((f,), window, n, trials, spec)
    return verdict


def jensen_gap(f, weights, mats: Sequence, factors=None):
    """sum_i w_i f(M_i) - f(sum_i w_i M_i); PSD at every measure iff f is
    matrix convex on the window, and the definition's midpoint gap at
    weights (1 - lam, lam).  ``f`` is a :class:`ScalarFunction`, or a
    sequence of them for a tuple of gaps, one per function, that diagonalize
    the barycenter once.  Each atom of ``mats`` is a matrix or a
    ``(T, n, n)`` stack, all of one shape, else DimensionMismatchError
    naming the first ``M_i`` that differs from ``M_0``; ``weights``
    (..., atoms) must be finite, nonnegative, one per atom and sum to 1
    within 1e-12, else ValueError.  ``factors`` holds the atoms' spectral
    factors ``(w, U)`` when the caller has them, so only the barycenter is
    diagonalized; otherwise :func:`linalg.factor` checks and diagonalizes
    each atom.  Every function is checked on the atoms before any on the
    barycenter.  Escapes name ``M_i`` or ``barycenter``."""
    weights = np.asarray(weights, dtype=float)
    if (weights.shape[-1:] != (len(mats),) or not np.all(weights >= 0.0)
            or not np.all(np.abs(weights.sum(axis=-1) - 1.0) <= 1e-12)):
        raise ValueError(f"Jensen weights must be {len(mats)} per measure, finite, "
                         f"nonnegative and sum to 1 within 1e-12, got {weights}")
    for i, m in enumerate(mats):
        if np.shape(m) != np.shape(mats[0]):
            raise DimensionMismatchError(
                f"M_{i} has shape {np.shape(m)}, M_0 has shape {np.shape(mats[0])}")
    fs = (f,) if isinstance(f, ScalarFunction) else tuple(f)
    atoms = factors or [factor(m) for m in mats]
    lhs = [sum(weights[..., i, None, None] * spectral_function(w, u, g, source=f"M_{i}")
               for i, (w, u) in enumerate(atoms)) for g in fs]
    mean = factor(sum(weights[..., i, None, None] * m for i, m in enumerate(mats)))
    gaps = tuple(side - spectral_function(*mean, g, source="barycenter")
                 for side, g in zip(lhs, fs))
    return gaps[0] if isinstance(f, ScalarFunction) else gaps


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
        draws = [random_in_window_factors(n, window, rngs) for _ in range(atoms)]
        mats = [from_spectrum(*e) for e in draws]
        return jensen_gap(f, weights, mats, draws), lambda t: {
            "kind": "jensen", "weights": weights[t], "matrices": [m[t] for m in mats]}

    (verdict,) = run_trials(trial, trials, spec, n)
    return verdict


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
    q = check_hermitian(q)
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
        (q,) = random_directions(1, n, rngs)
        return spectral_second_derivative(f, w, u, q), lambda t: {
            "kind": "second_derivative", "Q": q[t], "M": from_spectrum(w[t], u[t])}

    (verdict,) = run_trials(trial, trials, spec, n)
    return verdict


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
    gap = jensen_gap(f, [1.0 - lam, lam], (a0, a1))
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
    """Matrix monotonicity via positivity of random Loewner matrices at 2 <=
    k <= ``max_sites`` <= ``MAX_SITES`` uniform sites ``min_sep`` apart, drawn
    by construction: the i-th of k sorted uniforms on a window shrunk by
    (k - 1) ``min_sep``, shifted by i ``min_sep``.  The trials run as one
    Loewner stack and one ``eigvalsh`` per site count (:func:`shape_groups`).
    The site draws hold the GIL, so the chunks stay on one thread: with BLAS
    pinned on 2 CPUs (``sqrt``, 200 trials), two threads took 30 and 34 %
    more wall time at 32 and 64 sites, 4 % more at 128, 17 % less at 256."""
    if max_sites < 2:
        raise ValueError(f"a Loewner trial needs at least 2 sites, got {max_sites}")
    if max_sites > MAX_SITES:
        raise ValueError(f"{max_sites} Loewner sites exceed the {MAX_SITES} a window spaces")
    inner = window.shrunk()
    low, span = uniform_range(inner.a, inner.b)
    min_sep = 1e-3 * (window.b - window.a)

    def draw(rng):
        k = int(rng.integers(2, max_sites + 1))
        free = span - (k - 1) * min_sep
        return low + np.sort(free * rng.random(k)) + min_sep * np.arange(k)

    def trial(rngs):
        sites = [draw(rng) for rng in rngs]
        margins = np.empty(len(sites))
        for _, rows, _ in shape_groups(rngs, map(len, sites)):
            margins[rows] = min_eigenvalue(loewner_matrix(f, [sites[t] for t in rows]))
        return margins, lambda t: {"kind": "loewner", "sites": sites[t]}

    (verdict,) = run_trials(trial, trials, spec, max_sites, threads=False)
    return verdict


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
    """Recompute the margin of a stored witness from its data alone, through
    the matrix path, which checks every matrix; other keys are ignored.  The
    witness may be in memory or as a report holds it, its matrices as matrix
    documents, which :func:`io.witness_from_dict` reads back."""
    from .io import witness_from_dict  # io imports this module

    witness = witness_from_dict(witness)
    kind = witness["kind"]
    if kind == "definition":
        lam = check_mixing_weight(witness["lam"])
        return min_eigenvalue(jensen_gap(f, [1.0 - lam, lam], (witness["A0"], witness["A1"])))
    if kind == "jensen":
        return min_eigenvalue(jensen_gap(f, witness["weights"], witness["matrices"]))
    if kind == "second_derivative":
        return min_eigenvalue(line_second_derivative(f, witness["M"], witness["Q"]))
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
