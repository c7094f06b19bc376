"""Batch command-line harness.

Subcommands: certify-function, check-entropy, certify-representation, run-suite, and
check-concavity NAME, whose battery (parallel-sum, tensor-power, lieb, kubo-ando)
declares only the options it reads.  A command only builds its checks: ``main``
resolves the seed, checks the counts and emits the report, whose ``config`` is the
parsed arguments (seed resolved, window as [a, b]), so a run can be replayed exactly.
Check k of a report is part k of one ``suite.run_parts`` call, so it draws from stream
block k whichever checks run.  Exit codes: 0 all checks pass, 1 at least one violation
or failed check, 2 usage or parse error (a malformed input file or an unwritable ``--out``
included), 3 internal error (any other exception, reported as one ``error:`` line).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import cache, partial
from typing import Callable

import numpy as np

from . import convexity as cx
from . import entropy as ent
from . import jointconcavity as jc
from . import io as mio
from . import suite as acceptance
from .errors import MatConvexError, ValidationError
from .linalg import SpectrumWindow, apply_function, frobenius
from .quadrature import QuadratureConfig
from .rand import STREAM_BLOCK, RandomSpec, random_directions, random_in_window_rows
from .resolvent import certify_representation, pick_eval_matrix, pick_scalar_function

_PASSING = {"pass", "certified"}
_WINDOW = SpectrumWindow(0.1, 5.0)


def _default_seed(value: int | None) -> int:
    return value if value is not None else int(os.environ.get("MATCONVEX_SEED") or 0)


def _parse_window(text: str) -> list[float]:
    """'a,b' as [a, b], the ends of a valid :class:`SpectrumWindow`."""
    try:
        a, b = (float(x) for x in text.split(","))
        SpectrumWindow(a, b)
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"bad window {text!r}: expected 'a,b' ({err})") from err
    return [a, b]


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(x) for x in text.lower().split("x"))
    except ValueError as err:
        raise ValidationError(f"bad dims {text!r}: expected like '2x3x2'") from err
    if not dims or any(d < 1 for d in dims):
        raise ValidationError(f"bad dims {text!r}")
    return dims


def _verdict_record(name: str, test: Callable[[RandomSpec], cx.Verdict], spec: RandomSpec) -> dict:
    verdict = test(spec)
    return mio.check_record(name, verdict.worst_margin, {"trials": verdict.trials},
                            verdict.witness, status=verdict.status)


def _check_counts(args) -> None:
    """Zero trials certify nothing, more than a stream block would reach into
    the next part's block, and a matrix or tuple needs a size."""
    if getattr(args, "trials", 1) < 1:
        raise ValidationError(f"need at least one trial, got {args.trials}")
    if getattr(args, "trials", 1) > STREAM_BLOCK:
        raise ValidationError(f"at most {STREAM_BLOCK} trials, got {args.trials}")
    for name in ("n", "k"):
        if getattr(args, name, 1) < 1:
            raise ValidationError(f"--{name} must be at least 1, got {getattr(args, name)}")


#: parsed arguments that say how to run or report, not what ran
_NOT_CONFIG = {"command", "func", "out", "format"}


def _emit(args, checks: list[dict]) -> int:
    bad = [c for c in checks if c["status"] not in _PASSING]
    overall = "pass" if not bad else "fail"
    config = {k: v for k, v in vars(args).items() if k not in _NOT_CONFIG}
    report = mio.report_to_dict(args.command, config, checks, overall)
    if args.out:
        mio.save_json(args.out, report)
    if args.format == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for c in checks:
            print(f"{c['status']:12s} {c['name']:32s} margin={c['margin']:+.3e} "
                  f"({c['timing']:.2f}s)")
        print(f"overall: {overall}")
    return 0 if not bad else 1


# ---------------------------------------------------------------------------
# Subcommands: each takes the parsed arguments and the run's RandomSpec and
# returns the records of its parts.


def cmd_certify_function(args, spec: RandomSpec) -> list[dict]:
    f = cx.builtin(args.f)
    window = SpectrumWindow(*args.window)
    n, sites, trials = args.n, max(args.n, 2), args.trials
    if sites > cx.MAX_SITES:  # every mode runs a monotonicity battery at n sites
        raise ValueError(f"--n {n} exceeds the {cx.MAX_SITES} Loewner sites a trial can space")
    convex = args.mode in ("all", "convex")
    mid = 0.5 * (window.a + window.b)
    detectors = {  # name -> (wanted, verdict of a spec)
        "definition": (convex, lambda s: cx.definition_test(f, window, n, trials, s)),
        "jensen": (convex, lambda s: cx.jensen_test(f, window, n, 3, trials, s)),
        "second_derivative": (convex, lambda s: cx.second_derivative_test(f, window, n, trials, s)),
        "secant_monotonicity": (convex, lambda s: cx.secant_test(f, mid, window, sites, trials, s)),
        "loewner_monotonicity": (args.mode in ("all", "monotone"),
                                 lambda s: cx.monotonicity_test(f, window, sites, trials, s)),
    }
    return acceptance.run_parts(spec, [partial(_verdict_record, name, test) if wanted else None
                                       for name, (wanted, test) in detectors.items()])


def cmd_check_entropy(args, spec: RandomSpec) -> list[dict]:
    if args.tol < 0:  # a NaN or infinite bound is refused by bound_record
        raise ValidationError(f"--tol must be at least 0, got {args.tol}")
    states = (mio.load(args.state, mio.density_from_dict) if args.state
              else ent.random_states(_parse_dims(args.random), spec, args.trials))
    want, tol = args.check, args.tol
    # the subadditivity slacks are the decomposition's two parts: one pinching chain
    split = cache(lambda: ent.mutual_information_decomposition(states))

    # name -> (fewest factors, most factors, slacks of every state and detail)
    batteries = {
        "subadditivity": (2, 2, lambda s: (split().min_slack(), {})),
        "decomposition": (2, 2, lambda s: (split().min_slack(), {"first_values": {
            k: float(np.reshape(v, -1)[0]) for k, v in split().values.items()}})),
        "ssa": (3, 3, lambda s: (ent.ssa_slack(states), {})),
        "lieb-ruskai": (2, math.inf, lambda s: (ent.lieb_ruskai_concavity_gap(
            states, ent.random_state(states.dims, s), 0.5), {})),
    }

    def battery(name, slacks, s: RandomSpec) -> dict:
        values, detail = slacks(s)
        return mio.bound_record(name, {"slack": (values, ">=", -tol)}, tolerance=tol,
                                states=states.matrix.size // states.dim**2, **detail)

    parts = []  # "all" runs only the checks that fit the states' factor count
    for name, (fewest, most, slacks) in batteries.items():
        fits = fewest <= len(states.dims) <= most
        if want == name and not fits:
            raise ValidationError(
                f"{name} needs {fewest}{'+' if most > fewest else ''} tensor factors, "
                f"state has dims {states.dims}")
        parts.append(partial(battery, name, slacks) if want in ("all", name) and fits else None)
    if not any(parts):
        raise ValidationError(f"no entropy check applies to dims {states.dims}")
    return acceptance.run_parts(spec, parts)


def cmd_certify_representation(args, spec: RandomSpec) -> list[dict]:
    rep = mio.load(args.rep, mio.pick_from_dict)

    def routes(s: RandomSpec) -> dict:
        a = random_in_window_rows(args.n, rep.window, s.rngs(range(20)))
        deviations = frobenius(apply_function(a, pick_scalar_function(rep))
                               - pick_eval_matrix(rep, a))
        return mio.bound_record("spectral_vs_atoms_routes", {
            "worst_deviation": (deviations, "<=", 1e-8)}, tolerance=1e-8)

    return acceptance.run_parts(spec, [
        partial(_verdict_record, "exact_second_derivative",
                lambda s: certify_representation(rep, args.n, args.trials, s)),
        routes])


def _fixed_tuple(args, k: int) -> list | None:
    """The ``--tuple`` file, if any: it must hold the k and n the report echoes."""
    mats = mio.load(args.tuple, mio.tuple_from_list) if args.tuple else None
    if mats and (len(mats) != k or any(m.shape[0] != args.n for m in mats)):
        raise ValidationError(f"{args.tuple} holds {len(mats)} matrices of sizes "
                              f"{[m.shape[0] for m in mats]}, not k={k} of size --n {args.n}")
    return mats


def _parallel_sum(args, spec: RandomSpec) -> dict:
    # a fixed tuple is factored once per chunk, against a stack of directions
    fixed = _fixed_tuple(args, args.k)

    def certificate(rngs):
        mats = fixed or [random_in_window_rows(args.n, _WINDOW, rngs) for _ in range(args.k)]
        _, top, residual = jc.parallel_sum_certificate(
            mats, random_directions(len(mats), args.n, rngs))
        return top, np.broadcast_to(residual, top.shape)  # one residual for a fixed tuple

    eigs, projs = cx.stacked_rows(spec, args.trials, args.n, certificate)
    return mio.bound_record("parallel_sum_hessian_nsd", {
        "max_eigenvalue": (eigs, "<=", 1e-8)}, tolerance=1e-8,
        worst_projection_residual=float(np.max(projs)))


def _tensor_power(args, spec: RandomSpec) -> dict:
    """Chunks are sized as rows of n^k x n^k matrices, 32 x 32 at least: at most
    14 rows of a (points, n^k) resolvent temporary, 1 MB a row, under 16 MB.
    They stay on one thread: the quadrature is elementwise work that holds
    the GIL, and up to n^k = 64 two threads took up to 35 % more wall time
    at k = 2, and saved at most 7 % for 25 % more CPU at k = 3.  --p is held
    to the integral's rule here, before any stream is hashed."""
    p, quad = jc._check_powers(args.p.split(","), integral=True), QuadratureConfig(args.nodes)
    fixed = _fixed_tuple(args, len(p))

    def draw(rngs):
        return [random_in_window_rows(args.n, _WINDOW, rngs) for _ in p]

    # a fixed tuple gives the same error in every trial: evaluate it once
    errors = jc.tensor_power_errors(fixed, p, [args.nodes])[0] if fixed else cx.stacked_rows(
        spec, args.trials, max(32, args.n ** len(p)),
        lambda rngs: jc.tensor_power_errors(draw(rngs), p, [args.nodes]), threads=False)[0]
    curve = ({"error_curve_16_to_128": jc.tensor_power_errors(
        fixed or [m[0] for m in draw(spec.rngs([0]))], p, jc.ERROR_CURVE_NODES)}
        if args.error_curve else {})
    return mio.bound_record("tensor_power_vs_direct", {
        "worst_relative_error": (errors, "<=", quad.tolerance)},
        tolerance=quad.tolerance, nodes=args.nodes, **curve)


def _lieb(args, spec: RandomSpec) -> dict:
    gaps, _ = cx.stacked_rows(spec, args.trials, args.n,
                              lambda rngs: jc.lieb_midpoint_gap(args.n, _WINDOW, rngs))
    return mio.bound_record("lieb_midpoint_concavity", {
        "worst_scaled_gap": (gaps, ">=", -1e-8)}, tolerance=1e-8)


def _kubo_ando(args, spec: RandomSpec) -> dict:
    rep = mio.load(args.rep, mio.kubo_ando_from_dict)

    def midpoint_gaps(rngs):
        a0, a1, b0, b1 = (random_in_window_rows(args.n, _WINDOW, rngs) for _ in range(4))
        mid = jc.kubo_ando_eval(rep, 0.5 * (a0 + a1), 0.5 * (b0 + b1))
        avg = 0.5 * (jc.kubo_ando_eval(rep, a0, b0) + jc.kubo_ando_eval(rep, a1, b1))
        return (mid - avg,)  # the engine takes each row's least eigenvalue

    (gaps,) = cx.stacked_rows(spec, args.trials, args.n, midpoint_gaps)
    return mio.bound_record("kubo_ando_midpoint_concavity", {
        "worst_gap_eigenvalue": (gaps, ">=", -1e-8)}, tolerance=1e-8)


def cmd_check_concavity(part, args, spec: RandomSpec) -> list[dict]:
    return acceptance.run_parts(spec, [partial(part, args)])


def cmd_run_suite(args, spec: RandomSpec) -> list[dict]:
    return acceptance.run_suite(spec.seed, only=args.only)


# ---------------------------------------------------------------------------
# Argument parsing.


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matconvex",
        description="Certify matrix-convexity constructions and entropy inequalities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, parent=sub):
        p = parent.add_parser(name, help=summary)
        p.set_defaults(func=func)
        p.add_argument("--seed", type=int, default=None,
                       help="RNG seed (default: $MATCONVEX_SEED or 0)")
        p.add_argument("--out", default=None, help="write the JSON report here")
        p.add_argument("--format", choices=("json", "text"), default="text")
        return p

    p = command("certify-function", cmd_certify_function, "convexity/monotonicity detectors")
    p.add_argument("--f", required=True, help=f"one of {sorted(cx.BUILTINS)}")
    p.add_argument("--window", required=True, type=_parse_window, help="spectrum window 'a,b'")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--mode", choices=("all", "convex", "monotone"), default="convex")

    p = command("check-entropy", cmd_check_entropy, "entropy inequality batteries")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--state", help="state file (JSON)")
    source.add_argument("--random", help="random ensemble dims, e.g. 2x3x2")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--check", default="all",
                   choices=("all", "subadditivity", "decomposition", "ssa", "lieb-ruskai"))
    p.add_argument("--tol", type=float, default=1e-8)

    p = command("certify-representation", cmd_certify_representation,
                "exact certification of a resolvent representation")
    p.add_argument("--rep", required=True, help="representation file (JSON)")
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--trials", type=int, default=200)

    batteries = sub.add_parser("check-concavity", help="joint-concavity batteries"
                               ).add_subparsers(dest="suite", required=True)

    def battery(name, part, summary):  # each battery declares only what it reads
        p = command(name, partial(cmd_check_concavity, part), summary, batteries)
        p.add_argument("--n", type=int, default=3)
        p.add_argument("--trials", type=int, default=100)
        return p

    p = battery("parallel-sum", _parallel_sum, "parallel-sum Hessian certificate")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--tuple", default=None, help="fixed tuple file (JSON list), k of n x n")
    p = battery("tensor-power", _tensor_power, "tensor-power quadrature vs direct")
    p.add_argument("--p", default="0.5,0.5", help="power vector, e.g. 0.3,0.7")
    p.add_argument("--nodes", type=int, default=64)
    p.add_argument("--tuple", default=None, help="fixed tuple file (JSON list), n x n")
    p.add_argument("--error-curve", action="store_true")
    battery("lieb", _lieb, "Lieb functional midpoint concavity")
    battery("kubo-ando", _kubo_ando, "operator-mean midpoint concavity").add_argument(
        "--rep", required=True, help="operator-mean file (JSON)")

    p = command("run-suite", cmd_run_suite, "full acceptance battery")
    p.add_argument("--only", default=None, help="substring filter on check names")
    return parser


def _attach_window(argv: list[str]) -> list[str]:
    """``--window -1,1`` as ``--window=-1,1``: argparse reads a separate value
    that starts with '-' (and is not a plain number) as an option."""
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1] == "--window" and argv[i][:1] == "-" and argv[i][:2] != "--":
            argv[i - 1:i + 1] = [f"--window={argv[i]}"]
    return argv


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_attach_window(sys.argv[1:] if argv is None else list(argv)))
    except SystemExit as done:  # --help, or a usage error argparse has reported
        return done.code
    try:
        args.seed = _default_seed(args.seed)
        _check_counts(args)
        return _emit(args, args.func(args, RandomSpec(args.seed)))
    except (KeyError, ValueError, MatConvexError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # noqa: BLE001 - a crash must not read as a violation
        print(f"error: internal {type(err).__name__}: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
