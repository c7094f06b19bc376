"""The battery engine on threads: chunks of n >= 32 rows may run on helper
threads, and every verdict, margin, witness and battery output is bit for
bit what one thread gives; below that size, with BLAS unpinned or on one
CPU, no thread starts."""

import json
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from matconvex import convexity as cx
from matconvex.cli import main
from matconvex.io import kubo_ando_to_dict, save_json
from matconvex.jointconcavity import KuboAndoRepresentation
from matconvex.linalg import SpectrumWindow
from matconvex.rand import RandomSpec
from matconvex.resolvent import PickRepresentation, certify_representation
from matconvex.suite import run_suite

WINDOW = SpectrumWindow(0.1, 5.0)
NARROW = SpectrumWindow(0.1, 2.0)
SPEC = RandomSpec(2024)
N = 32
ROWS = cx._chunk_rows(N)
TRIALS = 3 * ROWS - 2  # three chunks, the last one short

#: The five run_trials batteries at n = 32; the definition and secant tests
#: are violated.
BATTERIES = {
    "definition": lambda: cx.definition_test(cx.builtin("x4"), NARROW, N, TRIALS, SPEC),
    "jensen": lambda: cx.jensen_test(cx.builtin("inv"), WINDOW, N, 3, TRIALS, SPEC),
    "second_derivative": lambda: cx.second_derivative_test(
        cx.builtin("neglog"), WINDOW, N, TRIALS, SPEC),
    "monotonicity": lambda: cx.monotonicity_test(cx.builtin("sqrt"), WINDOW, N, TRIALS, SPEC),
    "secant": lambda: cx.secant_test(cx.builtin("x3"), 1.0, NARROW, N, TRIALS, SPEC),
    "certify_representation": lambda: certify_representation(
        PickRepresentation(0.5, -0.2, 0.3, 1.0, WINDOW, atoms=((-1.0, 0.4), (7.0, 0.25))),
        N, TRIALS, SPEC),
}


#: batteries whose chunks hold the GIL, and so stay on one thread
ONE_THREAD = {"monotonicity", "secant", "tensor-power"}


class NoThreads(threading.Thread):
    def __init__(self, *args, **kwargs):
        raise AssertionError("the engine started a thread")


@pytest.fixture
def started(monkeypatch):
    """The threads the engine starts, counted."""
    count = []

    class Counted(threading.Thread):
        def start(self):
            count.append(self)
            super().start()

    monkeypatch.setattr(cx, "Thread", Counted)
    return count


def _run(monkeypatch, workers, run):
    """``run()`` with the engine's worker count forced, and the margins that
    its verdict reduced (None for a run that makes no verdict)."""
    seen, aggregate = {}, cx._aggregate

    def spy(margins, witness):
        seen["margins"] = np.asarray(margins)
        return aggregate(margins, witness)

    with monkeypatch.context() as patch:
        patch.setattr(cx, "_workers", lambda n, chunks: workers)
        patch.setattr(cx, "_aggregate", spy)
        return run(), seen.get("margins")


def _same_witness(a, b):
    assert (a is None) == (b is None)
    if a is not None:
        assert a.keys() == b.keys()
        for key in a:
            assert np.array_equal(a[key], b[key]), key


@pytest.mark.parametrize("name", sorted(BATTERIES))
def test_every_battery_is_bit_identical_on_two_threads(monkeypatch, started, name):
    one, margins_one = _run(monkeypatch, 1, BATTERIES[name])
    assert not started
    two, margins_two = _run(monkeypatch, 2, BATTERIES[name])
    assert len(started) == (name not in ONE_THREAD)
    assert (two.status, two.trials) == (one.status, one.trials) == (
        "violated" if name in ("definition", "secant") else "certified", TRIALS)
    assert np.array_equal(margins_two, margins_one, equal_nan=True)
    assert two.worst_margin == one.worst_margin
    _same_witness(two.witness, one.witness)


def _battery_args(name, tmp_path):
    if name == "tensor-power":  # rows of 9 x 9 products, chunked as 32 x 32
        return ["--n", "3"]
    if name == "kubo-ando":
        path = tmp_path / "mean.json"
        save_json(str(path), kubo_ando_to_dict(KuboAndoRepresentation(0.3, 0.2)))
        return ["--n", str(N), "--rep", str(path)]
    return ["--n", str(N)]


@pytest.mark.parametrize("name", ["parallel-sum", "tensor-power", "lieb", "kubo-ando"])
def test_every_concavity_battery_is_bit_identical_on_two_threads(
        monkeypatch, started, tmp_path, capsys, name):
    outputs, engine = [], cx.stacked_rows

    def spy(*args, **kwargs):
        outputs.append(engine(*args, **kwargs))
        return outputs[-1]

    monkeypatch.setattr(cx, "stacked_rows", spy)
    argv = ["check-concavity", name, "--trials", str(TRIALS), "--seed", "3", "--format", "json",
            *_battery_args(name, tmp_path)]
    reports = []
    for workers in (1, 2):
        code, _ = _run(monkeypatch, workers, lambda: main(argv))
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        reports.append([{**check, "timing": None} for check in report["checks"]])
    assert len(started) == (name not in ONE_THREAD) and reports[0] == reports[1]
    (serial, threaded) = outputs
    assert len(serial) == len(threaded)
    for a, b in zip(serial, threaded):
        assert len(a) == TRIALS and np.array_equal(a, b)


@pytest.fixture
def two_cpus_blas_pinned(monkeypatch):
    """A host where the engine would thread: two CPUs, one BLAS thread."""
    monkeypatch.setattr(cx, "_BLAS_THREADS", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(cx, "Thread", NoThreads)


def test_the_guard_sees_a_thread(two_cpus_blas_pinned):
    assert cx._workers(N, 3) == 2
    with pytest.raises(AssertionError, match="started a thread"):
        BATTERIES["definition"]()


def test_below_the_threshold_the_engine_stays_serial(two_cpus_blas_pinned):
    assert cx._workers(N - 1, 100) == 1
    cx.definition_test(cx.builtin("x2"), WINDOW, N - 1, 3 * cx._chunk_rows(N - 1), SPEC)
    records = run_suite(1)
    assert [r["status"] for r in records] == ["pass"] * len(records)


def test_with_blas_unpinned_the_engine_stays_serial(two_cpus_blas_pinned, monkeypatch):
    monkeypatch.setattr(cx, "_BLAS_THREADS", None)
    assert cx._workers(N, 3) == 1
    BATTERIES["definition"]()


def test_on_one_cpu_the_engine_stays_serial(two_cpus_blas_pinned, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert cx._workers(N, 3) == 1
    BATTERIES["definition"]()


def test_blas_threads_fill_the_cpus(two_cpus_blas_pinned, monkeypatch):
    monkeypatch.setattr(cx, "_BLAS_THREADS", 2)
    assert cx._workers(N, 3) == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    assert cx._workers(N, 3) == 3  # at most one thread per chunk
    assert cx._workers(N, 10) == 4


@pytest.mark.parametrize("environ, count", [
    ({}, None),
    ({"OPENBLAS_NUM_THREADS": "1"}, 1),
    ({"OMP_NUM_THREADS": "3"}, 3),
    ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2),
    ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 1),
    ({"OPENBLAS_NUM_THREADS": "many", "OMP_NUM_THREADS": ""}, None),
])
def test_the_blas_thread_count_is_read_as_openblas_reads_it(environ, count):
    assert cx._blas_threads(environ) == count


CHUNKS = 8  # at n = 32, two chunks to a group: 4 groups of 28 rows in 112 trials
#: chunk k of SPEC's streams, told apart by the first draw of its first stream
FIRST = [SPEC.stream(k * ROWS).rng().random() for k in range(CHUNKS)]


def test_outputs_come_back_in_stream_order(monkeypatch, started):
    # chunk 0 finishes last
    def body(rngs):
        k = FIRST.index(rngs[0].random())
        time.sleep(0.05 if k == 0 else 0.0)
        return np.full(len(rngs), k), np.arange(len(rngs))

    monkeypatch.setattr(cx, "_workers", lambda n, count: 2)
    chunk, row = cx.stacked_rows(SPEC, CHUNKS * ROWS - 1, N, body)
    assert len(started) == 1
    assert np.array_equal(chunk, np.arange(CHUNKS * ROWS - 1) // ROWS)
    assert np.array_equal(row, np.arange(CHUNKS * ROWS - 1) % ROWS)


def test_every_item_runs_once_on_more_threads_than_cpus():
    # a switch every microsecond: a lost update of the shared counter would
    # run an item twice or skip one
    calls, interval, before = [], sys.getswitchinterval(), threading.active_count()

    def fn(item):
        calls.append(item)
        return sum(range(item % 50)) + item

    sys.setswitchinterval(1e-6)
    try:
        out = cx._map_in_order(fn, range(3000), 8)
    finally:
        sys.setswitchinterval(interval)
    assert out == [fn(item) for item in range(3000)]
    assert sorted(calls[:3000]) == list(range(3000))
    assert threading.active_count() == before  # every helper joined


def test_helper_threads_keep_the_callers_error_state(monkeypatch, started):
    def body(rngs):
        return (np.full(len(rngs), np.geterr()["invalid"]),)

    monkeypatch.setattr(cx, "_workers", lambda n, count: 2)
    with np.errstate(invalid="raise"):
        (states,) = cx.stacked_rows(SPEC, CHUNKS * ROWS, N, body)
    assert len(started) == 1 and set(states) == {"raise"}


@pytest.mark.parametrize("slow, after", [
    # chunks 0 and 1 make group 0, chunks 2 and 3 group 1
    (1, {0, 1, 2, 3}),  # chunk 1 fails after chunk 3 has failed on the other thread
    (0, {0, 1, 2, 3}),  # group 1 fails while chunk 0 runs: group 2 never starts
])
def test_the_first_failing_chunk_in_stream_order_raises(monkeypatch, started, slow, after):
    ran = []

    def body(rngs):
        k = FIRST.index(rngs[0].random())
        ran.append(k)
        time.sleep(0.05 if k == slow else 0.0)
        if k in (1, 3):
            raise ValueError(f"chunk {k}")
        return (np.zeros(len(rngs)),)

    for workers in (1, 2):
        ran.clear()
        with monkeypatch.context() as patch:
            patch.setattr(cx, "_workers", lambda n, count: workers)
            with pytest.raises(ValueError, match="^chunk 1$"):
                cx.stacked_rows(SPEC, CHUNKS * ROWS, N, body)
        assert {0, 1} <= set(ran) <= after
    assert len(started) == 1


# Groups: a worker runs a group of consecutive chunks and takes the margins
# of the whole group in one eigvalsh, which numpy solves without the GIL only
# on stacks of more than 500 / n rows.

def _margin_stacks(monkeypatch, workers, run):
    """``run()`` with ``workers`` forced, and the rows of each margin stack
    the engine solved."""
    stacks, least = [], cx._least_eigenvalues

    def spy(stack):
        stacks.append(len(stack))
        return least(stack)

    with monkeypatch.context() as patch:
        patch.setattr(cx, "_least_eigenvalues", spy)
        return _run(monkeypatch, workers, run), stacks


@pytest.mark.parametrize("n, trials", [(32, 56), (32, 100), (64, 18), (64, 40), (128, 8),
                                       (128, 20)])
def test_each_threaded_margin_stack_has_more_than_500_over_n_rows(monkeypatch, n, trials):
    (v, margins), stacks = _margin_stacks(
        monkeypatch, 2, lambda: cx.definition_test(cx.builtin("x2"), WINDOW, n, trials, SPEC))
    assert v.status == "certified" and len(margins) == trials
    rows = cx._chunk_rows(n)
    groups = cx._groups(trials, rows, n, 2)
    assert trials >= 2 * -(-(500 // n + 1) // rows) * rows  # enough trials for 2 such groups
    # each stack is one group, and the groups split evenly over 2 workers
    assert sorted(stacks) == sorted(min(g.stop, trials) - g.start for g in groups)
    assert len(stacks) % 2 == 0 and sum(stacks) == trials
    assert min(stacks) > 500 / n
    assert max(map(len, groups)) - min(map(len, groups)) <= 1


@pytest.mark.parametrize("trials, n, workers, sizes", [
    (20, 128, 2, [5, 5, 5, 5]),  # not 3 : 2 groups of 4 rows
    (9, 128, 2, [4, 5]),
    (7, 128, 2, [3, 4]),         # too few trials: one group a worker
    (1, 128, 2, [1]),            # at most one group a chunk
    (24, 128, 3, [4] * 6),
    (57, 32, 2, [28, 29]),       # the short last chunk joins a larger group
    (1000, 2, 1, [496, 504]),
])
def test_groups_hold_consecutive_chunks(trials, n, workers, sizes):
    rows = cx._chunk_rows(n)
    groups = cx._groups(trials, rows, n, workers)
    assert [start for group in groups for start in group] == list(range(0, trials, rows))
    assert [min(g.stop, trials) - g.start for g in groups] == sizes


@pytest.mark.parametrize("n", [32, 64, 128])
def test_a_body_never_sees_more_than_a_chunk(monkeypatch, n):
    seen = []

    def trial(rngs):
        seen.append(len(rngs))
        rows = np.array([np.diag(rng.uniform(1.0, 2.0, n)) for rng in rngs])
        return rows, lambda t: {"kind": "test"}

    trials = 3 * cx._chunk_rows(n) * (500 // n + 1) + 1
    (v, margins), stacks = _margin_stacks(
        monkeypatch, 2, lambda: cx.run_trials(trial, trials, SPEC, n)[0])
    assert v.status == "certified" and np.all(margins >= 1.0)
    assert max(seen) == cx._chunk_rows(n) and sum(seen) == trials
    assert len(stacks) < len(seen)


@pytest.mark.parametrize("trials", [1, 3, 7, 21])
@pytest.mark.parametrize("name", ["definition", "second_derivative"])
def test_one_worker_and_two_agree_at_any_trial_count(monkeypatch, name, trials):
    run = {"definition": lambda: cx.definition_test(cx.builtin("x4"), NARROW, 128, trials, SPEC),
           "second_derivative": lambda: cx.second_derivative_test(
               cx.builtin("x3"), NARROW, 128, trials, SPEC)}[name]
    (one, margins_one), stacks_one = _margin_stacks(monkeypatch, 1, run)
    (two, margins_two), stacks_two = _margin_stacks(monkeypatch, 2, run)
    assert one.status == "violated" and len(margins_one) == trials
    assert np.array_equal(margins_one, margins_two)
    assert (two.status, two.trials, two.worst_margin) == (one.status, one.trials, one.worst_margin)
    _same_witness(two.witness, one.witness)
    assert sum(stacks_one) == sum(stacks_two) == trials


def _failing_body(ran, slow, failing):
    """A body of one-row chunks (n = 128) that records its stream index,
    sleeps on ``slow`` and raises on ``failing``."""
    first = [SPEC.stream(t).rng().random() for t in range(16)]

    def body(rngs):
        t = first.index(rngs[0].random())
        ran.append(t)
        time.sleep(0.05 if t == slow else 0.0)
        if t in failing:
            raise ValueError(f"chunk {t}")
        return (np.zeros(len(rngs)),)

    return body


def test_the_first_failing_chunk_wins_inside_a_group(monkeypatch, started):
    # groups [0-3] and [4-7]: chunk 5 fails first, on the other thread, then
    # chunk 2, inside group 0, after the slow chunk 1
    assert cx._chunk_rows(128) == 1
    for workers in (1, 2):
        ran = []
        with monkeypatch.context() as patch:
            patch.setattr(cx, "_workers", lambda n, count: workers)
            with pytest.raises(ValueError, match="^chunk 2$"):
                cx.stacked_rows(SPEC, 8, 128, _failing_body(ran, 1, {2, 5}))
        assert {0, 1, 2} <= set(ran) <= ({0, 1, 2} if workers == 1 else {0, 1, 2, 4, 5})
    assert len(started) == 1


def test_no_later_group_starts_after_a_failure(monkeypatch, started):
    # groups [0-3], [4-7], [8-11], [12-15]: chunk 4 fails while chunk 0 runs,
    # so neither the rest of group 1 nor groups 2 and 3 start
    monkeypatch.setattr(cx, "_workers", lambda n, count: 2)
    assert [len(g) for g in cx._groups(16, 1, 128, 2)] == [4] * 4
    ran = []
    with pytest.raises(ValueError, match="^chunk 4$"):
        cx.stacked_rows(SPEC, 16, 128, _failing_body(ran, 0, {4}))
    assert sorted(ran) == [0, 1, 2, 3, 4] and len(started) == 1


def _certify_in_child(blas_threads: str) -> list[dict]:
    """The checks of one n = 128 ``certify-function`` report, run in a fresh
    interpreter with BLAS pinned to ``blas_threads``."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": blas_threads,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-m", "matconvex", "certify-function", "--f", "x4", "--window",
         "0.1,2", "--n", "128", "--mode", "convex", "--trials", "4", "--seed", "1",
         "--format", "json"], env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 1, done.stderr  # x4 is not operator convex
    return json.loads(done.stdout)["checks"]


def test_reports_at_n_128_agree_across_blas_threads_up_to_rounding():
    # above n = 64 OpenBLAS's eigh, qr and inv round differently on one and
    # two threads, so the contract there is the verdicts, not the bits
    one, two = _certify_in_child("1"), _certify_in_child("2")
    assert [c["name"] for c in one] == [c["name"] for c in two] == [
        "definition", "jensen", "second_derivative", "secant_monotonicity"]
    for a, b in zip(one, two):
        assert a["status"] == b["status"], a["name"]
        assert (a.get("witness") or {}).get("stream_id") == \
            (b.get("witness") or {}).get("stream_id"), a["name"]
        assert abs(a["margin"] - b["margin"]) <= 1e-10 * (1 + abs(a["margin"])), a["name"]
    assert any(a.get("witness") for a in one)
