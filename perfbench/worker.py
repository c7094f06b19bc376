"""One benchmark process: import matconvex, build a workload, run its passes.

Usage (normally started by ``run.py``)::

    python3 perfbench/worker.py --workload suite --seed 1 --seconds 30 \
        --mode run --t0 <time.monotonic() of the parent at spawn>

``--mode setup`` stops after set-up; ``--mode run`` times untraced passes;
``--mode trace`` alternates traced and untraced passes.  The last line of
standard output is one JSON object with the per-pass records.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

#: BLAS and OpenMP thread variables, pinned to 1 before numpy loads.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
#: Passes a run makes at least, whatever its time budget.
MIN_PASSES = 3


def load_library():
    """Import matconvex from this checkout's ``src`` and nowhere else."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import matconvex

    if Path(matconvex.__file__).resolve().parent != (src / "matconvex").resolve():
        raise ImportError(f"matconvex imported from {matconvex.__file__}, not {src}")
    return matconvex


def host_reference_ms(a) -> float:
    """Time a fixed 200x200 matmul loop; tracks host speed, never gated."""
    start = time.perf_counter()
    b = a
    for _ in range(10):
        b = a @ b
        b *= 1.0 / 200.0
    return 1000.0 * (time.perf_counter() - start)


def timed_pass(units, ref) -> tuple[dict, list]:
    from workloads import Stopwatch, run_pass

    watch = Stopwatch()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    outcomes = run_pass(units, watch)
    record = {"wall_s": time.perf_counter() - wall0,
              "cpu_s": time.process_time() - cpu0,
              "parts": watch.parts,
              "host_ref_ms": host_reference_ms(ref)}
    return record, outcomes


def run_passes(units, seconds: float, ref, tracer=None) -> tuple[list, list]:
    """Passes until the next would overrun ``seconds``.

    With a tracer, passes alternate traced and untraced, traced first; the
    per-layer metrics of each traced pass are returned beside the records.
    """
    import tracing

    records, layer_runs, first = [], [], None
    begin = time.perf_counter()
    while True:
        traced = tracer is not None and len(records) % 2 == 0
        if traced:
            tracer.start_pass()
            installed = tracing.install(tracer)
            try:
                record, outcomes = timed_pass(units, ref)
            finally:
                installed.restore()
            layer_runs.append((tracer.layer_metrics(), tracer.call_counts()))
        else:
            record, outcomes = timed_pass(units, ref)
        first = first or outcomes
        failures = [c for c, ok, _ in outcomes if not ok]
        attempted = len(outcomes)
        if records:
            # every pass must reproduce the first bit for bit, which also
            # shows that tracing changes no verdict or margin
            attempted += 1
            if [v for _, _, v in outcomes] != [v for _, _, v in first]:
                failures.append("reproduces_first_pass")
        record.update(traced=traced, attempted=attempted, failed=len(failures),
                      failures=failures)
        records.append(record)
        # a traced run stops only after an untraced pass, and needs a pair
        step = statistics.median(r["wall_s"] for r in records)
        if tracer is not None:
            enough, step = len(records) % 2 == 0, 2 * step
        else:
            enough = len(records) >= MIN_PASSES
        if enough and time.perf_counter() - begin + step > seconds:
            return records, layer_runs


def median_layers(runs: list[dict]) -> dict:
    """Counts from the first traced pass, times as medians over traced passes."""
    return {key: statistics.median(r[key] for r in runs)
            if key.endswith("_s") or "_s." in key else value
            for key, value in runs[0].items()}


def environment(np) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_sha": git_sha(ROOT),
    }


def git_sha(root: Path) -> str:
    """HEAD of the checkout read from ``.git`` directly, if there is one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() of the parent when it spawned this process")
    args = parser.parse_args(argv)

    load_library()
    import numpy as np
    from workloads import WORKLOADS

    OUT_DIR.mkdir(exist_ok=True)
    scratch = OUT_DIR / f"scratch-{os.getpid()}"
    scratch.mkdir(exist_ok=True)
    try:
        units = WORKLOADS[args.workload](args.seed, scratch)
        setup_s = time.monotonic() - args.t0
        result = {"setup_s": setup_s}
        if args.mode != "setup":
            import tracing

            ref = np.random.default_rng(0).standard_normal((200, 200))
            tracer = tracing.Tracer() if args.mode == "trace" else None
            records, layer_runs = run_passes(units, args.seconds, ref, tracer)
            result.update(passes=records, env=environment(np),
                          peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
            if tracer is not None:
                result["layers"] = median_layers([m for m, _ in layer_runs])
                result["calls"] = layer_runs[0][1]
                tracer.save(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz")
    finally:
        for path in scratch.iterdir():
            path.unlink()
        scratch.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
