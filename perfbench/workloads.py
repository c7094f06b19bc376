"""The three benchmark workloads: seeded inputs and one verdict-checked pass.

A workload is a ``build(seed, scratch)`` that makes every input from the seed
and returns a list of units.  A unit runs one piece of the pass and returns one
``(check, ok, values)`` outcome per verdict check it owns; ``values`` holds
the verdicts and margins that must repeat bit-for-bit from pass to pass.  A
unit that raises counts every check it owns as failed, and the pass goes on.

A :class:`Stopwatch` times each unit, wall and CPU; a unit may split its time
into named parts (the suite unit times each of its thirteen checks).

Only ``matconvex`` is timed: input generation here uses plain numpy and runs
during set-up, before the first timed pass.  Units look library functions up
as module attributes when they run, so the tracer's wrappers see the calls.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

#: The thirteen records ``run-suite`` must report, in report order.
SUITE_CHECKS = (
    "ssa_battery",
    "subadditivity_chain",
    "mutual_information",
    "parallel_sum_certificate",
    "tensor_power_quadrature",
    "c_constant",
    "lieb_wyd",
    "relative_entropy_machinery",
    "convexity_detectors",
    "resolvent_exactness",
    "kernel_identity",
    "monte_carlo_physics",
    "determinism",
)

LARGE_N = 128
LARGE_TRIALS = 20
#: Entropy tolerances of the acceptance suite (SSA and the Uhlmann
#: cross-check at 1e-8, the subadditivity chain at 1e-9).
SSA_TOL = 1e-8
SUBADDITIVITY_TOL = 1e-9

#: (k, n, powers, calls per pass) for the tensor-power quadrature workload.
QUADRATURE_CASES = (
    (3, 3, (0.3, 0.3, 0.4), 3),
    (2, 16, (0.5, 0.5), 2),
)
QUADRATURE_NODES = 64

Outcome = tuple  # (check name, ok, values)


class Stopwatch:
    """Wall and CPU seconds of the named parts of one pass."""

    def __init__(self):
        self.parts: dict[str, tuple[float, float]] = {}

    @contextlib.contextmanager
    def part(self, name: str):
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            yield
        finally:
            self.parts[name] = (time.perf_counter() - wall, time.process_time() - cpu)

    def timed(self, name: str, fn: Callable) -> Callable:
        def call(*args, **kwargs):
            with self.part(name):
                return fn(*args, **kwargs)
        return call


@dataclass(frozen=True)
class Unit:
    name: str
    checks: tuple[str, ...]
    run: Callable[[Stopwatch], list[Outcome]]


def run_pass(units: list[Unit], watch: Stopwatch | None = None) -> list[Outcome]:
    """Run every unit; an exception fails that unit's checks, not the pass.

    Each unit's time, less the parts it timed itself, is the part named
    after the unit.
    """
    watch = watch or Stopwatch()
    outcomes: list[Outcome] = []
    for unit in units:
        known = set(watch.parts)
        with watch.part(unit.name):
            try:
                got = unit.run(watch)
            except Exception as err:  # noqa: BLE001 - any crash is a failed verdict
                reason = f"{type(err).__name__}: {err}"
                got = [(check, False, ("exception", reason)) for check in unit.checks]
        inner = [watch.parts[k] for k in set(watch.parts) - known - {unit.name}]
        wall, cpu = watch.parts[unit.name]
        watch.parts[unit.name] = (wall - sum(w for w, _ in inner),
                                  cpu - sum(c for _, c in inner))
        if [c for c, _, _ in got] != list(unit.checks):
            got = [(check, False, ("missing",)) for check in unit.checks]
        outcomes.extend(got)
    return outcomes


# ---------------------------------------------------------------------------
# Seeded inputs.


def _windowed(rng: np.random.Generator, n: int, lo: float, hi: float) -> np.ndarray:
    """U diag(lambda) U* with lambda uniform on (lo, hi) and U Haar."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    u = q * (d / np.abs(d))
    lam = rng.uniform(lo, hi, size=n)
    h = (u * lam) @ u.conj().T
    return 0.5 * (h + h.conj().T)


def _density(rng: np.random.Generator, n: int) -> np.ndarray:
    """Hilbert-Schmidt ensemble: G G* / Tr(G G*)."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    w = g @ g.conj().T
    return w / np.trace(w).real


def _rel_error(approx: np.ndarray, exact: np.ndarray) -> float:
    return float(np.linalg.norm(approx - exact) / np.linalg.norm(exact))


# ---------------------------------------------------------------------------
# suite: the shipped acceptance battery through the CLI, in-process.


def build_suite(seed: int, scratch: Path) -> list[Unit]:
    from matconvex import cli, suite

    report = scratch / "suite-report.json"
    argv = ["run-suite", "--seed", str(seed), "--out", str(report)]
    checks = SUITE_CHECKS + ("overall",)

    def run(watch: Stopwatch) -> list[Outcome]:
        report.unlink(missing_ok=True)
        shipped = dict(suite.CHECKS)
        suite.CHECKS.update({k: watch.timed(k, fn) for k, fn in shipped.items()})
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
        finally:
            suite.CHECKS.update(shipped)
        doc = json.loads(report.read_text())
        records = {rec["name"]: rec for rec in doc["checks"]}
        out = []
        for name in SUITE_CHECKS:
            rec = records.get(name)
            if rec is None:
                out.append((name, False, ("missing",)))
                continue
            values = (rec["status"], rec["margin"],
                      json.dumps(rec.get("detail"), sort_keys=True),
                      json.dumps(rec.get("witness"), sort_keys=True))
            out.append((name, rec["status"] == "pass", values))
        overall = doc["overall_status"]
        ok = code == 0 and overall == "pass" and len(records) == len(SUITE_CHECKS)
        out.append(("overall", ok, (code, overall, len(records))))
        return out

    return [Unit("run-suite", checks, run)]


# ---------------------------------------------------------------------------
# large-n: the same layers at n = 128.


def build_large_n(seed: int, scratch: Path) -> list[Unit]:
    import matconvex as mc
    from matconvex.entropy import DensityOperator

    window = mc.SpectrumWindow(0.1, 5.0)
    seeds = [int(s) for s in np.random.SeedSequence(seed).generate_state(4)]
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    pick = mc.PickRepresentation(alpha=0.5, beta=1.0, gamma=0.25, c=1.0,
                                 window=window, atoms=((-1.0, 0.5), (7.0, 2.0)))
    n, trials = LARGE_N, LARGE_TRIALS
    tripartite = [DensityOperator(_density(rng, n), (4, 4, 8)) for _ in range(trials)]
    bipartite = [DensityOperator(_density(rng, n), (8, 16)) for _ in range(trials)]

    def verdict_unit(name: str, test: Callable[[], object]) -> Unit:
        def run(watch: Stopwatch) -> list[Outcome]:
            v = test()
            return [(name, v.status == "certified",
                     (v.status, v.worst_margin, v.trials))]
        return Unit(name, (name,), run)

    def ssa(watch: Stopwatch) -> list[Outcome]:
        out = []
        for i, state in enumerate(tripartite):
            v = mc.ssa_report(state).values
            slack = (v["S12"] - v["S2"]) - (v["S123"] - v["S23"])
            chain = (v["S_tilde123"] - v["S_tilde23"]) - (v["S12"] - v["S2"])
            ok = slack >= -SSA_TOL and abs(chain) <= SSA_TOL
            out.append((f"ssa_4x4x8_{i}", ok, (slack, chain)))
        return out

    def subadditivity(watch: Stopwatch) -> list[Outcome]:
        out = []
        for i, state in enumerate(bipartite):
            slacks = mc.subadditivity_report(state).slacks
            ok = all(s >= -SUBADDITIVITY_TOL for s in slacks.values())
            out.append((f"subadditivity_8x16_{i}", ok,
                        tuple(sorted(slacks.items()))))
        return out

    return [
        verdict_unit("definition_x2", lambda: mc.definition_test(
            mc.builtin("x2"), window, n, trials, mc.RandomSpec(seeds[0]))),
        verdict_unit("jensen_inv_3_atoms", lambda: mc.jensen_test(
            mc.builtin("inv"), window, n, 3, trials, mc.RandomSpec(seeds[1]))),
        verdict_unit("second_derivative_neglog_fd", lambda: mc.second_derivative_test(
            mc.builtin("neglog"), window, n, trials, mc.RandomSpec(seeds[2]))),
        verdict_unit("certify_pick_2_atoms", lambda: mc.certify_representation(
            pick, n, trials, mc.RandomSpec(seeds[3]))),
        Unit("ssa_report", tuple(f"ssa_4x4x8_{i}" for i in range(trials)), ssa),
        Unit("subadditivity_report",
             tuple(f"subadditivity_8x16_{i}" for i in range(trials)), subadditivity),
    ]


# ---------------------------------------------------------------------------
# quadrature: tensor powers by the resolvent integral against spectral calculus.


def build_quadrature(seed: int, scratch: Path) -> list[Unit]:
    import matconvex as mc
    from matconvex.quadrature import QuadratureConfig

    config = QuadratureConfig(QUADRATURE_NODES)
    rng = np.random.default_rng(seed)
    units = []
    for k, n, powers, calls in QUADRATURE_CASES:
        for c in range(calls):
            name = f"k{k}_n{n}_{c}"
            mats = [_windowed(rng, n, 0.2, 4.8) for _ in range(k)]

            def run(watch: Stopwatch, name=name, mats=mats, powers=powers) -> list[Outcome]:
                exact = mc.tensor_power_direct(mats, powers)
                err = _rel_error(mc.tensor_power_integral(mats, powers, config), exact)
                return [(name, math.isfinite(err) and err <= config.tolerance, (err,))]

            units.append(Unit(name, (name,), run))
    return units


#: Workload name -> ``build(seed, scratch_dir)`` returning the pass's units.
WORKLOADS: dict[str, Callable[[int, Path], list[Unit]]] = {
    "suite": build_suite,
    "large-n": build_large_n,
    "quadrature": build_quadrature,
}
