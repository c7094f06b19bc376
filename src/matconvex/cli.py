"""Batch command-line harness.

Subcommands: certify-function, check-entropy, certify-representation,
check-concavity, run-suite.  Every run echoes its seed and tolerances in the
report so results can be replayed exactly.  Exit codes: 0 all checks pass,
1 at least one violation or failed check, 2 usage or parse error, 3 internal
error (any other exception, reported as one ``error:`` line).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from typing import Callable

import numpy as np

from . import convexity as cx
from . import entropy as ent
from . import jointconcavity as jc
from . import io as mio
from . import suite as acceptance
from .errors import MatConvexError, ValidationError
from .linalg import SpectrumWindow, frobenius
from .quadrature import QuadratureConfig
from .rand import STREAM_BLOCK, RandomSpec, random_in_window_rows
from .resolvent import certify_representation, pick_eval_matrix

_PASSING = {"pass", "certified"}


def _default_seed(value: int | None) -> int:
    if value is not None:
        return value
    env = os.environ.get("MATCONVEX_SEED")
    return int(env) if env else 0


def _parse_window(text: str) -> SpectrumWindow:
    try:
        a, b = (float(x) for x in text.split(","))
        return SpectrumWindow(a, b)
    except ValueError as err:
        raise ValidationError(f"bad window {text!r}: expected 'a,b' ({err})") from err


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(x) for x in text.lower().split("x"))
    except ValueError as err:
        raise ValidationError(f"bad dims {text!r}: expected like '2x3x2'") from err
    if not dims or any(d < 1 for d in dims):
        raise ValidationError(f"bad dims {text!r}")
    return dims


def _verdict_record(name: str, verdict: cx.Verdict) -> dict:
    return mio.check_record(name, verdict.worst_margin, {"trials": verdict.trials},
                            verdict.witness, status=verdict.status)


def _timed(check: Callable[[], dict]) -> dict:
    start = time.perf_counter()
    rec = check()
    rec["timing"] = round(time.perf_counter() - start, 6)
    return rec


def _emit(command: str, config: dict, checks: list[dict], args) -> int:
    bad = [c for c in checks if c["status"] not in _PASSING]
    overall = "pass" if not bad else "fail"
    report = mio.report_to_dict(command, config, checks, overall)
    if args.out:
        mio.save_json(args.out, report)
    if args.format == "json":
        import json

        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for c in checks:
            print(f"{c['status']:12s} {c['name']:32s} margin={c['margin']:+.3e} "
                  f"({c['timing']:.2f}s)")
        print(f"overall: {overall}")
    return 0 if not bad else 1


# ---------------------------------------------------------------------------
# Subcommands.


def cmd_certify_function(args) -> int:
    seed = _default_seed(args.seed)
    f = cx.builtin(args.f)
    window = _parse_window(args.window)
    spec = RandomSpec(seed)
    n, sites, trials = args.n, max(args.n, 2), args.trials
    convex = args.mode in ("all", "convex")
    mid = 0.5 * (window.a + window.b)
    # Detector k draws from its own block spec.stream(k * STREAM_BLOCK), so
    # its block does not depend on which other detectors the mode runs.
    detectors = (
        ("definition", convex,
         lambda s: cx.definition_test(f, window, n, trials, s)),
        ("jensen", convex,
         lambda s: cx.jensen_test(f, window, n, 3, trials, s)),
        ("second_derivative", convex,
         lambda s: cx.second_derivative_test(f, window, n, trials, s)),
        ("secant_monotonicity", convex,
         lambda s: cx.secant_test(f, mid, window, sites, trials, s)),
        ("loewner_monotonicity", args.mode in ("all", "monotone"),
         lambda s: cx.monotonicity_test(f, window, sites, trials, s)),
    )
    checks = [
        _timed(lambda: _verdict_record(name, test(spec.stream(k * STREAM_BLOCK))))
        for k, (name, wanted, test) in enumerate(detectors) if wanted
    ]
    config = {"f": args.f, "window": [window.a, window.b], "n": args.n,
              "trials": args.trials, "seed": seed, "mode": args.mode}
    return _emit("certify-function", config, checks, args)


def cmd_check_entropy(args) -> int:
    seed = _default_seed(args.seed)
    spec, tol = RandomSpec(seed), args.tol
    if args.state:
        states = mio.load_state(args.state)
    elif args.random:
        states = ent.random_states(_parse_dims(args.random), spec, args.trials)
    else:
        raise ValidationError("need either --state FILE or --random DIMS")
    want = args.check

    def decomposition():
        rep = ent.mutual_information_decomposition(states)
        first = {k: float(np.reshape(v, -1)[0]) for k, v in rep.values.items()}
        return rep.min_slack(), {"first_values": first}  # slacks: the two parts

    # name -> (fewest factors, most factors, slacks of every state and detail)
    batteries = {
        "subadditivity": (2, 2, lambda: (
            ent.subadditivity_report(states).min_slack(), {})),
        "decomposition": (2, 2, decomposition),
        "ssa": (3, 3, lambda: (ent.ssa_slack(states), {})),
        "lieb-ruskai": (2, math.inf, lambda: (ent.lieb_ruskai_concavity_gap(
            states, ent.random_state(states.dims, spec.stream(90001)), 0.5), {})),
    }

    def battery(name, slacks):
        values, detail = slacks()
        return mio.bound_record(name, {"slack": (values, ">=", -tol)}, tolerance=tol,
                                states=states.matrix.size // states.dim**2, **detail)

    checks = []  # "all" runs only the checks that fit the states' factor count
    for name, (fewest, most, slacks) in batteries.items():
        fits = fewest <= len(states.dims) <= most
        if want == name and not fits:
            raise ValidationError(
                f"{name} needs {fewest}{'+' if most > fewest else ''} tensor factors, "
                f"state has dims {states.dims}")
        if want in ("all", name) and fits:
            checks.append(_timed(lambda: battery(name, slacks)))
    if not checks:
        raise ValidationError(f"no entropy check applies to dims {states.dims}")

    config = {"seed": seed, "trials": args.trials, "check": want, "tol": tol,
              "state": args.state, "random": args.random}
    return _emit("check-entropy", config, checks, args)


def cmd_certify_representation(args) -> int:
    seed = _default_seed(args.seed)
    rep = mio.load_representation(args.rep)
    spec = RandomSpec(seed)

    def routes():
        # block 1: disjoint from the certification's streams at any --trials
        a = random_in_window_rows(args.n, rep.window, spec.stream(STREAM_BLOCK).rngs(range(20)))
        deviations = frobenius(pick_eval_matrix(rep, a, via="spectral")
                               - pick_eval_matrix(rep, a, via="atoms"))
        return mio.bound_record("spectral_vs_atoms_routes", {
            "worst_deviation": (deviations, "<=", 1e-8)}, tolerance=1e-8)

    checks = [
        _timed(lambda: _verdict_record("exact_second_derivative",
                                       certify_representation(
                                           rep, args.n, args.trials, spec))),
        _timed(routes),
    ]
    config = {"rep": args.rep, "n": args.n, "trials": args.trials, "seed": seed}
    return _emit("certify-representation", config, checks, args)


def _concavity_check(args, spec: RandomSpec, window: SpectrumWindow) -> dict:
    """The ``--suite`` battery as one :func:`convexity.stacked_rows` call (a
    fixed tensor-power tuple is evaluated once).  Tensor-power chunks are sized
    as rows of n^k x n^k matrices, 32 x 32 at least: at most 14 rows, whose
    (T, points, n^k) resolvent temporary, 1 MB a row, stays under 16 MB."""
    if args.suite == "parallel-sum":
        # a fixed tuple is factored once per chunk, against a stack of directions
        fixed = mio.load_tuple(args.tuple) if args.tuple else None
        n = fixed[0].shape[0] if fixed else args.n

        def certificate(rngs):
            mats = fixed or [random_in_window_rows(n, window, rngs) for _ in range(args.k)]
            _, top, residual = jc.parallel_sum_certificate(
                mats, jc.random_directions(len(mats), n, rngs))
            return top, np.broadcast_to(residual, top.shape)  # one residual for a fixed tuple

        eigs, projs = cx.stacked_rows(spec, args.trials, n, certificate)
        return mio.bound_record("parallel_sum_hessian_nsd", {
            "max_eigenvalue": (eigs, "<=", 1e-8)}, tolerance=1e-8,
            worst_projection_residual=float(np.max(projs)))
    if args.suite == "tensor-power":
        p, quad = tuple(float(x) for x in args.p.split(",")), QuadratureConfig(args.nodes)
        fixed = mio.load_tuple(args.tuple) if args.tuple else None

        def draw(rngs):
            return [random_in_window_rows(args.n, window, rngs) for _ in p]

        # a fixed tuple gives the same error in every trial: evaluate it once
        errors = jc.tensor_power_errors(fixed, p, [args.nodes])[0] if fixed else cx.stacked_rows(
            spec, args.trials, max(32, args.n ** len(p)),
            lambda rngs: jc.tensor_power_errors(draw(rngs), p, [args.nodes]))[0]
        curve = ({"error_curve_16_to_128": jc.tensor_power_errors(
            fixed or [m[0] for m in draw(spec.rngs([0]))], p, jc.ERROR_CURVE_NODES)}
            if args.error_curve else {})
        return mio.bound_record("tensor_power_vs_direct", {
            "worst_relative_error": (errors, "<=", quad.tolerance)},
            tolerance=quad.tolerance, nodes=args.nodes, **curve)
    if args.suite == "lieb":
        gaps, _ = cx.stacked_rows(spec, args.trials, args.n,
                                  lambda rngs: jc.lieb_midpoint_gap(args.n, window, rngs))
        return mio.bound_record("lieb_midpoint_concavity", {
            "worst_scaled_gap": (gaps, ">=", -1e-8)}, tolerance=1e-8)
    if not args.rep:  # kubo-ando, the last of the parser's choices
        raise ValidationError("kubo-ando suite needs --rep FILE")
    rep = mio.kubo_ando_from_dict(mio.load_json(args.rep))

    def midpoint_gaps(rngs):
        a0, a1, b0, b1 = (random_in_window_rows(args.n, window, rngs) for _ in range(4))
        mid = jc.kubo_ando_eval(rep, 0.5 * (a0 + a1), 0.5 * (b0 + b1))
        avg = 0.5 * (jc.kubo_ando_eval(rep, a0, b0) + jc.kubo_ando_eval(rep, a1, b1))
        return (np.linalg.eigvalsh(mid - avg),)

    (gaps,) = cx.stacked_rows(spec, args.trials, args.n, midpoint_gaps)
    return mio.bound_record("kubo_ando_midpoint_concavity", {
        "worst_gap_eigenvalue": (gaps, ">=", -1e-8)}, tolerance=1e-8)


def cmd_check_concavity(args) -> int:
    if args.trials < 1:  # zero trials certify nothing
        raise ValidationError(f"need at least one trial, got {args.trials}")
    seed = _default_seed(args.seed)
    spec = RandomSpec(seed)
    checks = [_timed(lambda: _concavity_check(args, spec, SpectrumWindow(0.1, 5.0)))]
    config = {"suite": args.suite, "k": args.k, "n": args.n,
              "trials": args.trials, "seed": seed, "p": args.p,
              "nodes": args.nodes, "tuple": args.tuple, "rep": args.rep,
              "error_curve": args.error_curve}
    return _emit("check-concavity", config, checks, args)


def cmd_run_suite(args) -> int:
    seed = _default_seed(args.seed)
    checks = acceptance.run_suite(seed, only=args.only)
    config = {"seed": seed, "only": args.only}
    return _emit("run-suite", config, checks, args)


# ---------------------------------------------------------------------------
# Argument parsing.


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matconvex",
        description="Certify matrix-convexity constructions and entropy inequalities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=None,
                       help="RNG seed (default: $MATCONVEX_SEED or 0)")
        p.add_argument("--out", default=None, help="write the JSON report here")
        p.add_argument("--format", choices=("json", "text"), default="text")

    p = sub.add_parser("certify-function", help="convexity/monotonicity detectors")
    p.add_argument("--f", required=True, help=f"one of {sorted(cx.BUILTINS)}")
    p.add_argument("--window", required=True, help="spectrum window 'a,b'")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--mode", choices=("all", "convex", "monotone"), default="convex")
    common(p)
    p.set_defaults(func=cmd_certify_function)

    p = sub.add_parser("check-entropy", help="entropy inequality batteries")
    p.add_argument("--state", default=None, help="state file (JSON)")
    p.add_argument("--random", default=None, help="random ensemble dims, e.g. 2x3x2")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--check", default="all",
                   choices=("all", "subadditivity", "decomposition", "ssa",
                            "lieb-ruskai"))
    p.add_argument("--tol", type=float, default=1e-8)
    common(p)
    p.set_defaults(func=cmd_check_entropy)

    p = sub.add_parser("certify-representation",
                       help="exact certification of a resolvent representation")
    p.add_argument("--rep", required=True, help="representation file (JSON)")
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--trials", type=int, default=200)
    common(p)
    p.set_defaults(func=cmd_certify_representation)

    p = sub.add_parser("check-concavity", help="joint-concavity batteries")
    p.add_argument("--suite", required=True,
                   choices=("parallel-sum", "tensor-power", "lieb", "kubo-ando"))
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--p", default="0.5,0.5", help="power vector, e.g. 0.3,0.7")
    p.add_argument("--nodes", type=int, default=64)
    p.add_argument("--tuple", default=None, help="matrix tuple file (JSON list)")
    p.add_argument("--rep", default=None, help="operator-mean file for kubo-ando")
    p.add_argument("--error-curve", action="store_true")
    common(p)
    p.set_defaults(func=cmd_check_concavity)

    p = sub.add_parser("run-suite", help="full acceptance battery")
    p.add_argument("--only", default=None, help="substring filter on check names")
    common(p)
    p.set_defaults(func=cmd_run_suite)

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
    args = parser.parse_args(_attach_window(sys.argv[1:] if argv is None else list(argv)))
    try:
        return args.func(args)
    except (KeyError, ValueError, MatConvexError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # noqa: BLE001 - a crash must not read as a violation
        print(f"error: internal {type(err).__name__}: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
