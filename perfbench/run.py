"""matconvex benchmark: one command, three workloads, verdict-checked.

    python3 perfbench/run.py --workload {suite,large-n,quadrature} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  With ``--trace 0`` it reports the
end-to-end metrics (``wall_s``, ``cpu_s``, ``peak_rss_mb``, ``setup_s``) and
prints ``error_rate``; with ``--trace 1`` the per-layer metrics and the
tracing overhead.  Human-readable lines come first; the last line of
standard output is one JSON object.  See ``perfbench/README.md``.

This process imports neither numpy nor matconvex: each measurement runs in
a fresh worker interpreter (``worker.py``) with BLAS pinned to one thread.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import OUT_DIR, ROOT, THREAD_VARS

HERE = Path(__file__).resolve().parent
WORKLOADS = ("suite", "large-n", "quadrature")
#: Fresh interpreters whose set-up time is measured, the run's worker included.
SETUP_SAMPLES = 5
#: Every worker is killed once the run has taken this long, so the command
#: ends within three minutes whatever a worker does.
DEADLINE_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


class BenchError(Exception):
    pass


def spawn(workload: str, seed: int, seconds: float, mode: str, deadline: float) -> dict:
    """Run one worker to completion and return its JSON result."""
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
           "--t0", repr(t0)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(deadline - t0, 1.0))
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"{mode} worker still running at the {DEADLINE_S:.0f} s deadline") from err
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"{mode} worker exited with status {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{mode} worker printed no result")
    return json.loads(lines[-1])


def describe(name: str, values: list[float], unit: str, what: str) -> str:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return (f"  {name:<12} {statistics.median(values):.6g} {unit:<8} "
            f"median of {len(values)} {what}; quartiles {q1:.6g} .. {q3:.6g}")


def fastest_parts(passes: list[dict], index: int) -> float:
    """Sum over the parts of a pass of each part's fastest time in the run."""
    names = {name for p in passes for name in p["parts"]}
    return sum(min(p["parts"][n][index] for p in passes if n in p["parts"])
               for n in names)


def end_to_end(args, deadline: float) -> tuple[dict, list[str], list[dict]]:
    main = spawn(args.workload, args.seed, args.seconds, "run", deadline)
    setups = [main["setup_s"]] + [
        spawn(args.workload, args.seed, 0, "setup", deadline)["setup_s"]
        for _ in range(SETUP_SAMPLES - 1)]
    passes = main["passes"]
    metrics = {
        "wall_s": fastest_parts(passes, 0),
        "cpu_s": fastest_parts(passes, 1),
        "peak_rss_mb": main["peak_rss_kb"] / 1024.0,
        "setup_s": statistics.median(setups),
    }
    lines = [
        f"  {'wall_s':<12} {metrics['wall_s']:.6g} s        sum over {len(passes[0]['parts'])} "
        f"parts of each part's fastest time in {len(passes)} passes",
        describe("", [p["wall_s"] for p in passes], "s", "whole passes, wall"),
        f"  {'cpu_s':<12} {metrics['cpu_s']:.6g} s        the same for process CPU time",
        describe("", [p["cpu_s"] for p in passes], "s", "whole passes, CPU"),
        f"  {'peak_rss_mb':<12} {metrics['peak_rss_mb']:.6g} MB       "
        "peak resident set of the worker that ran the passes",
        describe("setup_s", setups, "s", "fresh interpreters (import + inputs)"),
    ]
    main["setup_samples_s"] = setups
    return metrics, lines, [main]


def per_layer(args, deadline: float) -> tuple[dict, list[str], list[dict]]:
    result = spawn(args.workload, args.seed, args.seconds, "trace", deadline)
    passes = result["passes"]
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    metrics = dict(result["layers"])
    metrics["trace.overhead_frac"] = fastest_parts(traced, 0) / fastest_parts(plain, 0) - 1.0
    lines = [f"  {key:<44} {value:.6g}" for key, value in sorted(metrics.items())]
    lines.append("  call counts of the first traced pass: "
                 + json.dumps(result["calls"], sort_keys=True))
    return metrics, lines, [result]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="matconvex benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "matconvex" / "__init__.py").is_file():
        print(f"error: no matconvex sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    started = time.monotonic()
    try:
        metrics, lines, results = (per_layer if args.trace else end_to_end)(
            args, started + DEADLINE_S)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    passes = [p for r in results for p in r["passes"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    failures = sorted({f for p in passes for f in p["failures"]})
    host = [p["host_ref_ms"] for p in passes]
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(passes)} passes, {time.monotonic() - started:.1f} s")
    for line in lines:
        print(line)
    print(f"  {'error_rate':<12} {failed / attempted:.6g} fraction "
          f"{failed} of {attempted} verdict checks failed"
          + (f": {', '.join(failures)}" if failures else ""))
    print(describe("host_ref_ms", host, "ms", "200x200 matmul loops beside the passes "
                   "(host speed, not gated)"))
    print("  env: " + json.dumps(results[0]["env"], sort_keys=True))
    record = OUT_DIR / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    OUT_DIR.mkdir(exist_ok=True)
    record.write_text(json.dumps({"args": vars(args), "metrics": metrics,
                                  "workers": results}, indent=1))
    print(f"  record: {record.relative_to(ROOT)}")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0


def unit_of(name: str) -> str:
    """Unit of a metric, from its name (``suite.check_s.<check>`` is a time)."""
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s") or "_s." in name:
        return "s"
    for suffix, unit in (("_frac", "fraction"), ("_bytes", "B")):
        if name.endswith(suffix):
            return unit
    return "count"


if __name__ == "__main__":
    sys.exit(main())
