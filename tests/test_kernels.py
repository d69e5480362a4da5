"""The C kernels against their Python reference, bit for bit.

`_kernels._run_verlet`, `_run_rk4`, `derived_column` and `format_rows`
call the C copy in `_kernels.c` whenever gcc can build it; `py_func` is the
Python function it mirrors.  Every runner comparison is of the whole return
tuple, floats as hex, and of the bytes of the five recording buffers, which
both sides receive filled with the same sentinel so that a write past nrec
shows too.  Each run of a batch (run_batch, whose Verlet runs go to C's
`_run_verlet_lanes`) is compared with the scalar C runner and its Python
reference, run by run.  The derived columns are compared as bytes and the
CSV text with repr.  The twin-run pass of sweep.sensitivity, divergence,
has no C copy; its distances are compared as bytes with numpy's and its
exponent fit with np.polyfit's.
"""

import concurrent.futures
import ctypes
import hashlib
import inspect
import json
import math
import os
import random
import re
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from kinktrap import IntegratorConfig, ModelParams, Scenario, _kernels, cli, integrator
from kinktrap.dynamics import MAX_EXPONENT
from kinktrap.scattering import initial_state
from kinktrap.sweep import DIVERGENCE_SCALE, divergence, sensitivity

RUNNERS = {"verlet": "_run_verlet", "rk4": "_run_rk4"}
STRIDES = (0, 1, 7, 100)
SENTINEL = -7.25


@pytest.fixture
def c_backend():
    """Skip without a compiler; with one, a silent fallback to the Python
    reference is a failure."""
    if shutil.which("gcc") is None:
        pytest.skip("no gcc: the Python reference is the only backend")
    assert _kernels.BACKEND == "c"


def _hex(result):
    return tuple(v.hex() if isinstance(v, float) else v for v in result)


def _numpy_buffers(cap):
    return [np.full(cap, SENTINEL) for _ in range(5)]


def _mmap_buffers(cap):
    """integrate's recording buffers, memoryviews over one anonymous mmap."""
    rec = _kernels.float_buffers(5, cap)
    for b in rec:
        b[:] = memoryview(np.full(cap, SENTINEL))
    return rec


def _run(fn, args, rec):
    """fn's result as hex and the bytes of its sentinel-filled buffers."""
    result = fn(*args, *rec)
    return _hex(result), b"".join(b.tobytes() for b in rec)


def _both(runner, args, cap):
    """Run the C wrapper and its reference on identical sentinel-filled
    buffers; return each side's (result as hex, buffer bytes)."""
    return [_run(fn, args, _numpy_buffers(cap)) for fn in (runner, runner.py_func)]


def _scenario(rng):
    """Random model, launch, floor, exit radius, step budget and recording
    layout; one in four is a fast head-on approach against a weak core, so
    that coincidence happens."""
    k, alpha = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
    n, A, beta = rng.randint(1, 4), rng.uniform(-1.0, 3.0), rng.uniform(0.1, 2.0)
    x1 = rng.uniform(-3.0, 3.0)
    x2 = x1 + rng.uniform(0.3, 2.5)
    if rng.random() < 0.25:
        alpha = rng.uniform(1e-6, 1e-3)
        w = rng.uniform(1.0, 20.0)
        v1, v2 = w, -w
    else:
        v1, v2 = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
    dt = rng.uniform(1e-3, 2e-2)
    floor = rng.choice((1e-12, 1e-3, 0.05))
    exit_radius = rng.choice((-1.0, rng.uniform(0.5, 4.0)))
    nsteps = rng.choice((0, rng.randint(1, 2000)))
    stride = rng.choice(STRIDES)
    full = nsteps // stride + 1 if stride else 0
    cap = rng.choice((full, rng.randint(0, full))) if stride else rng.choice((0, 3))
    dx = x1 - x2
    g1, g2 = math.exp(-beta * x1 * x1), math.exp(-beta * x2 * x2)
    e0 = _kernels.pair_energy(dx, v1, v2, g1, g2, k, alpha, n, A)
    args = (x1, v1, x2, v2, rng.uniform(0.0, 100.0), dt, nsteps,
            k, alpha, n, A, beta, floor, exit_radius, e0, stride)
    return args, cap


def test_backend_is_c_where_gcc_exists(c_backend):
    assert _kernels._run_verlet.py_func is not _kernels._run_verlet
    assert _kernels._run_rk4.py_func is not _kernels._run_rk4


@pytest.mark.parametrize("scheme", RUNNERS)
def test_the_reference_takes_the_wrappers_arguments(c_backend, scheme):
    """The Python runner mirrors its C wrapper's arguments, name for name."""
    runner = getattr(_kernels, RUNNERS[scheme])
    wrapper = inspect.signature(runner).parameters
    reference = inspect.signature(runner.py_func).parameters
    assert list(reference.values()) == list(wrapper.values())


@pytest.mark.parametrize("scheme", RUNNERS)
def test_random_runs_match_the_reference_bit_for_bit(c_backend, scheme):
    runner = getattr(_kernels, RUNNERS[scheme])
    rng = random.Random(20261018)
    seen = set()
    truncated = 0
    for _ in range(300):
        args, cap = _scenario(rng)
        c_side, py_side = _both(runner, args, cap)
        assert c_side == py_side, (scheme, args, cap)
        status, steps, *_, nrec = py_side[0]
        seen.add(status)
        seen.add(("budget0", args[6] == 0))
        seen.add(("stride", args[-1], cap > 0))
        if args[-1] and nrec == cap and steps // args[-1] > cap:
            truncated += 1
    # the draw covers every exit path, both budgets, every stride and
    # recording that ran out of buffer
    assert {_kernels.STATUS_RAN_ALL, _kernels.STATUS_EXIT, _kernels.STATUS_COINCIDENT} <= seen
    assert {("budget0", True), ("budget0", False)} <= seen
    assert {("stride", s, True) for s in STRIDES[1:]} <= seen
    assert truncated > 0


@pytest.mark.parametrize("scheme", RUNNERS)
def test_mmap_buffers_record_the_bytes_of_numpy_buffers(scheme):
    """The C wrapper, where gcc built it, and the reference each return the
    same tuple and write the same bytes into integrate's memoryviews over an
    mmap as into numpy arrays."""
    runner = getattr(_kernels, RUNNERS[scheme])
    fns = [runner, *([runner.py_func] if hasattr(runner, "py_func") else [])]
    rng = random.Random(20261019)
    for _ in range(40):
        args, cap = _scenario(rng)
        for fn in fns:
            assert _run(fn, args, _mmap_buffers(cap)) == _run(fn, args, _numpy_buffers(cap))


# Where a head-on RK4 step from (x1, v1, x2, v2) = (-0.5, 1, 0.5, -1), with
# dt 0.2, spring 1 and no well, first breaches a floor: the floor, and the
# x1 and v1 of the pair returned (x2 and v2 are their negatives).  The
# stages sit at separations 0.8, 0.78 and 0.568, the step's end at 0.5656.
RK4_BREACHES = {
    "stage a": (0.9, -0.4, 1.1),
    "stage b": (0.79, -0.39, 1.08),
    "stage c": (0.7, -0.284, 1.156),
    "step end": (0.567, -0.2828, 1.1576),
}


def test_rk4_stage_breach_matches_the_reference(c_backend):
    """With a floor between the separations of consecutive stages, the
    first step breaches at each stage in turn, and at its end; both sides
    return that stage's pair after one step, bit for bit alike."""
    for where, (floor, x1, v1) in RK4_BREACHES.items():
        args = (-0.5, 1.0, 0.5, -1.0, 0.0, 0.2, 5, 1.0, 1e-30, 1, 0.0, 1.0,
                floor, -1.0, 0.0, 1)
        c_side, py_side = _both(_kernels._run_rk4, args, 6)
        assert c_side == py_side, where
        result = _kernels._run_rk4(*args, *[np.empty(6)] * 5)
        assert result[:2] == (_kernels.STATUS_COINCIDENT, 1) and result[7] == 0, where
        assert result[2:6] == pytest.approx((x1, v1, -x1, -v1), abs=1e-12), where


# perfbench's kernel micro-runs: (name in reference.json, runner, recording
# stride, steps), each from the reference input under the default model.
BENCHMARK_RUNS = {
    "verlet": ("_run_verlet", 0, 200_000),
    "verlet_rec": ("_run_verlet", 1, 200_000),
    "rk4": ("_run_rk4", 0, 50_000),
}


@pytest.mark.parametrize("name", BENCHMARK_RUNS)
def test_the_benchmark_kernel_runs_give_the_reference_bits(name):
    """The active backend's runner reproduces the final state (and, when it
    records, the digest of the recording) that perfbench/reference.json pins."""
    reference = json.loads(
        (Path(__file__).parents[1] / "perfbench" / "reference.json").read_text())["kernels"]
    x1, v1, x2, v2, e0, floor = (float.fromhex(reference["input"][key])
                                 for key in ("x1", "v1", "x2", "v2", "e0", "floor"))
    runner, stride, nsteps = BENCHMARK_RUNS[name]
    p = ModelParams()
    rec = [np.empty(nsteps + 1 if stride else 0) for _ in range(5)]
    status, steps, fx1, fv1, fx2, fv2, maxd, nrec = getattr(_kernels, runner)(
        x1, v1, x2, v2, 0.0, 1e-3, nsteps, p.k, p.alpha, p.n, p.A, p.beta,
        floor, -1.0, e0, stride, *rec)
    final = {"status": status, "steps": steps, "nrec": nrec, "x1": fx1.hex(), "v1": fv1.hex(),
             "x2": fx2.hex(), "v2": fv2.hex(), "max_drift": maxd.hex()}
    if stride:
        digest = hashlib.sha256()
        for buffer in rec:
            digest.update(buffer[:nrec].tobytes())
        final["recorded_sha256"] = digest.hexdigest()[:16]
    assert final == reference["final"][name]


def _read_only():
    frozen = np.empty(4)
    frozen.setflags(write=False)
    return frozen


@pytest.mark.parametrize("bad", [
    np.empty(4, dtype=np.float32),
    np.empty(8)[::2],
    np.empty(4).astype(">f8"),
    np.empty((2, 2)),
    _read_only(),
    [0.0] * 4,
    np.empty(3),
    np.frombuffer(bytearray(33), offset=1),
    memoryview(bytearray(33))[1:].cast("d"),
    memoryview(bytes(32)).cast("d"),
], ids=["float32", "strided", "big-endian", "2d", "read-only", "list", "short",
        "misaligned", "misaligned-memoryview", "read-only-memoryview"])
@pytest.mark.parametrize("scheme", RUNNERS)
def test_a_wrong_recording_buffer_raises(c_backend, scheme, bad):
    good = np.empty(4)
    args = (-1.0, 0.3, 1.0, -0.3, 0.0, 1e-3, 10, 1.0, 1.0, 2, 2.0, 1.0, 1e-12, -1.0, 0.0, 1)
    with pytest.raises(ValueError):
        getattr(_kernels, RUNNERS[scheme])(*args, good, good, bad, good, good)


def _batch(rng, npoints, exit_radius=None, **model):
    """A random batch: the shared model, dt, floor and exit radius as in
    _scenario, with any of k, alpha, n, A and beta given in model instead
    of drawn, and per run a launch, a step budget and its e0; a quarter of
    the runs come at each other head-on, so that some breach the floor.
    Returns each run's 21 runner arguments, recording nothing, as integrate
    passes them."""
    drawn = {"k": rng.uniform(0.5, 2.0), "alpha": rng.uniform(1e-6, 2.0),
             "n": rng.randint(1, 4), "A": rng.uniform(-1.0, 3.0), "beta": rng.uniform(0.1, 2.0)}
    k, alpha, n, A, beta = {**drawn, **model}.values()
    dt = rng.uniform(1e-3, 2e-2)
    floor = rng.choice((1e-12, 1e-3, 0.05))
    if exit_radius is None:
        exit_radius = rng.choice((-1.0, rng.uniform(0.5, 4.0)))
    runs = []
    for _ in range(npoints):
        x1 = rng.uniform(-3.0, 3.0)
        x2 = x1 + rng.uniform(0.3, 2.5)
        if rng.random() < 0.25:
            w = rng.uniform(1.0, 20.0)
            v1, v2 = w, -w
        else:
            v1, v2 = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
        g1, g2 = math.exp(-beta * x1 * x1), math.exp(-beta * x2 * x2)
        e0 = _kernels.pair_energy(x1 - x2, v1, v2, g1, g2, k, alpha, n, A)
        runs.append((x1, v1, x2, v2, 0.0, dt, rng.choice((0, rng.randint(1, 2000))),
                     k, alpha, n, A, beta, floor, exit_radius, e0, 0,
                     *_kernels.float_buffers(5, 0)))
    return runs


def _batch_results(runner, runs, workers):
    """Each run's result in hex, after checking that run_batch on workers
    threads gives the scalar C runner's and its Python reference's, run by
    run."""
    scalar = [_hex(runner(*args)) for args in runs]
    assert [_hex(runner.py_func(*args)) for args in runs] == scalar
    assert list(map(_hex, _kernels.run_batch(runner, runs, workers))) == scalar
    return scalar


@pytest.mark.parametrize("exit_radius", [None, -1.0], ids=["drawn", "no-exit"])
def test_random_batches_match_the_scalar_runner_bit_for_bit(c_backend, exit_radius):
    """run_batch, the scalar C runner and its Python reference agree on
    every output of every run, on batches of one run, odd counts and more,
    under both schemes."""
    statuses = {_kernels.STATUS_RAN_ALL, _kernels.STATUS_COINCIDENT}
    if exit_radius is None:
        statuses.add(_kernels.STATUS_EXIT)
    for name in RUNNERS.values():
        rng = random.Random(20261020)
        seen = set()
        for npoints in [1, 2, 3, 5, 7] * 12:
            results = _batch_results(getattr(_kernels, name), _batch(rng, npoints, exit_radius), 1)
            seen |= {(status, steps > 0) for status, steps, *_ in results}
        assert {s for s, _ in seen} == statuses
        assert (_kernels.STATUS_RAN_ALL, False) in seen  # a run with no steps


def _runs(launches, p=ModelParams(), dt=1e-3, floor=0.05, exit_radius=2.0):
    """Each launch (x1, v1, x2, v2, budget) as its run's 21 runner arguments
    under model p, with its e0 and recording nothing."""
    runs = []
    for x1, v1, x2, v2, budget in launches:
        g1, g2 = math.exp(-p.beta * x1 * x1), math.exp(-p.beta * x2 * x2)
        e0 = _kernels.pair_energy(x1 - x2, v1, v2, g1, g2, p.k, p.alpha, p.n, p.A)
        runs.append((x1, v1, x2, v2, 0.0, dt, budget, p.k, p.alpha, p.n, p.A, p.beta,
                     floor, exit_radius, e0, 0, *_kernels.float_buffers(5, 0)))
    return runs


def test_lanes_that_end_at_different_steps_match_the_scalar_runner(c_backend):
    """One batch whose runs end every way, each at its own step: an exit,
    a breach mid-run, a spent budget, a breach before the first step, no
    steps, and a long run that outlasts them, so that C's lanes refill while
    the other lane is mid-run.  Both schemes end each run at the same step."""
    runs = _runs([
        (0.5, 2.0, 1.5, 2.0, 2000),       # exits to the right at step 577
        (-0.5, 50.0, 0.5, -50.0, 2000),   # head-on: breaches the floor at step 10
        (-0.5, 0.1, 0.5, 0.1, 37),        # spends its 37 steps
        (0.0, 0.0, 0.01, 0.0, 50),        # breaches before its first step
        (-1.0, 0.0, 0.0, 0.0, 0),         # no steps
        (-0.7, 0.0, 0.3, 0.0, 3000),      # runs its whole budget
        (-2.0, -2.5, -1.0, -2.5, 2500),   # exits to the left at step 206
    ])
    for name in RUNNERS.values():
        for workers in (1, 2):
            results = _batch_results(getattr(_kernels, name), runs, workers)
            assert [(status, steps) for status, steps, *_ in results] == \
                [(1, 577), (2, 10), (0, 37), (2, 0), (0, 0), (0, 3000), (1, 206)]


# Launches under _runs' defaults that each end at step 10, each their own way.
EXITS_RIGHT = (1.481, 2.0, 2.481, 2.0, 2000)
EXITS_LEFT = (-2.481, -2.0, -1.481, -2.0, 2000)
BREACHES = (-0.5, 50.0, 0.5, -50.0, 2000)
BREACHES_TOO = (-0.6, 60.0, 0.4, -40.0, 2000)
SPENDS = (-0.5, 0.1, 0.5, 0.1, 10)


@pytest.mark.parametrize("pair, ends", [
    ((EXITS_RIGHT, EXITS_LEFT), (1, 1)),
    ((BREACHES, BREACHES_TOO), (2, 2)),
    ((BREACHES, EXITS_RIGHT), (2, 1)),
    ((EXITS_LEFT, BREACHES_TOO), (1, 2)),
    ((BREACHES, SPENDS), (2, 0)),
    ((SPENDS, EXITS_LEFT), (0, 1)),
], ids=["both-exit", "both-breach", "breach-exit", "exit-breach", "breach-spent",
        "spent-exit"])
def test_two_lanes_that_end_at_one_step_match_the_scalar_runner(c_backend, pair, ends):
    """On one thread the first two runs of a batch share a packed step, and
    here both end at step 10: they both exit, both breach the floor, or one
    of them breaches (so that the step is taken again on the scalar step in
    each lane) while the other exits or spends its budget.  A third run
    then takes the first lane freed, and two threads split the runs."""
    runs = _runs([*pair, (-0.7, 0.0, 0.3, 0.0, 300)])
    for name in RUNNERS.values():
        for workers in (1, 2):
            results = _batch_results(getattr(_kernels, name), runs, workers)
            assert [(status, steps) for status, steps, *_ in results] == \
                [(ends[0], 10), (ends[1], 10), (0, 300)]


@pytest.mark.parametrize("launches", [
    [(-0.7, 0.0, 0.3, 0.0, 3000)],
    [(-0.5, 0.1, 0.5, 0.1, 37), (0.5, 2.0, 1.5, 2.0, 2000), (-0.7, 0.0, 0.3, 0.0, 3000)],
], ids=["one-run", "tail-of-three"])
def test_a_lone_lane_finishes_its_run_on_the_scalar_step(c_backend, launches):
    """A one-run batch runs alone from its first step.  In the batch of
    three on one thread, the long run takes the first lane at step 37, is
    left alone once the exit at step 577 frees the other lane, and finishes
    alone; on two threads each thread ends on a lone lane."""
    runs = _runs(launches)
    for name in RUNNERS.values():
        for workers in (1, 2):
            results = _batch_results(getattr(_kernels, name), runs, workers)
            assert results[-1][:2] == (0, 3000)


@pytest.mark.parametrize("model", [{"n": 1}, {"n": MAX_EXPONENT}, {"A": 0.0}],
                         ids=["n=1", "n=max", "A=0"])
def test_batches_at_the_edges_of_the_model_match_the_scalar_runner(c_backend, model):
    """The lowest and highest repulsion exponents, whose power loops run 3
    and MAX_EXPONENT + 2 products packed, and a model with no well."""
    rng = random.Random(20261021)
    for _ in range(8):
        runs = _batch(rng, rng.randint(2, 9), **model)
        for name in RUNNERS.values():
            _batch_results(getattr(_kernels, name), runs, rng.choice((1, 2)))


def test_a_mixed_batch_gives_each_run_its_own_model_and_dt(c_backend, monkeypatch):
    """Runs at A = 2 and A = 0, each at dt and dt/2, interleaved in one batch:
    each gets the scalar runner's result in its place, on threads and on
    the forked workers, and the four kinds differ in their results."""
    launches = [(-1.0, 0.3, 0.0, 0.3, 3000), (0.5, 2.0, 1.5, 2.0, 2000), BREACHES,
                (-0.7, 0.0, 0.3, 0.0, 1500)]
    kinds = [_runs(launches, ModelParams(A=A), dt) for A in (2.0, 0.0) for dt in (1e-3, 5e-4)]
    runs = [kind[i] for i in range(len(launches)) for kind in kinds]
    for name in RUNNERS.values():
        for workers in (1, 2):
            results = _batch_results(getattr(_kernels, name), runs, workers)
            assert len(set(results[:4])) == 4
    monkeypatch.setattr(_kernels, "BACKEND", "python")
    for name in RUNNERS.values():
        runner = getattr(_kernels, name)
        assert _kernels.run_batch(runner, runs, 2) == [runner(*args) for args in runs]


@pytest.mark.parametrize("backend", ["c", "python"])
@pytest.mark.parametrize("scheme", RUNNERS)
def test_a_batch_refuses_a_run_that_records(monkeypatch, backend, scheme):
    """A run with rec_stride > 0 fails the whole batch before any run,
    thread or pool starts, on either backend."""
    def refuse(*args, **kwargs):
        raise AssertionError("a refused batch started a thread or a pool")

    runs = _batch(random.Random(3), 3)
    recorded = (*runs[1][:15], 1000, *_kernels.float_buffers(5, 50))
    monkeypatch.setattr(_kernels, "BACKEND", backend)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    monkeypatch.setattr(threading, "Thread", refuse)
    with pytest.raises(ValueError, match="rec_stride"):
        _kernels.run_batch(getattr(_kernels, RUNNERS[scheme]), [runs[0], recorded, runs[2]], 2)


@pytest.mark.parametrize("threads", [3, 4])
def test_threads_sharing_one_counter_run_every_point_once(c_backend, threads):
    """Three and four threads on one batch, with more runs than C's lanes,
    give each run the scalar runner's result, under both schemes; a short
    switch interval makes the threads that claim RK4 runs under the lock
    interleave often."""
    rng = random.Random(threads)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            runs = _batch(rng, rng.randint(3 * threads, 8 * threads))
            for name in RUNNERS.values():
                _batch_results(getattr(_kernels, name), runs, threads)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("scheme", RUNNERS)
def test_two_batches_at_once_each_run_their_own_runs(c_backend, scheme):
    """Two run_batch calls from two threads at the same moment, on two
    workers each and with runs of their own: each batch claims from its own
    counter and returns its own runs' scalar results."""
    runner = getattr(_kernels, RUNNERS[scheme])
    rng = random.Random(20261020)
    for _ in range(5):
        batches = [_batch(rng, rng.randint(5, 12)) for _ in range(2)]
        results = [None, None]
        together = threading.Barrier(2)

        def call(i):
            together.wait()
            results[i] = _kernels.run_batch(runner, batches[i], 2)

        threads = [threading.Thread(target=call, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert [list(map(_hex, r)) for r in results] == \
            [[_hex(runner(*args)) for args in runs] for runs in batches]


@pytest.mark.parametrize("backend", ["c", "python"])
@pytest.mark.parametrize("scheme", RUNNERS)
def test_an_empty_batch_starts_no_thread_or_pool(monkeypatch, backend, scheme):
    def refuse(*args, **kwargs):
        raise AssertionError("an empty batch started a thread or a pool")

    monkeypatch.setattr(_kernels, "BACKEND", backend)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    monkeypatch.setattr(threading, "Thread", refuse)
    assert _kernels.run_batch(getattr(_kernels, RUNNERS[scheme]), [], 4) == []


@pytest.mark.parametrize("scheme", RUNNERS)
def test_forked_workers_give_the_scalar_results(c_backend, monkeypatch, scheme):
    """The Python backend's path, over the C runners: forked processes get
    each run without its recording buffers, and what comes back is the
    scalar runner's result."""
    monkeypatch.setattr(_kernels, "BACKEND", "python")
    runner = getattr(_kernels, RUNNERS[scheme])
    runs = _batch(random.Random(7), 5)
    assert _kernels.run_batch(runner, runs, 2) == [runner(*args) for args in runs]


def _assert_same_rows(written, expected):
    """Equal texts, or the first row where they part."""
    if written != expected:
        for i, (a, b) in enumerate(zip(written.splitlines(), expected.splitlines())):
            assert a == b, f"row {i}"
        assert written == expected


def _neighbours(values):
    """Each value with the doubles on either side of it."""
    x = np.array(values)
    with np.errstate(over="ignore"):
        return np.concatenate([np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)])


# Exact ties between the two nearest shortest-digit candidates, which repr
# breaks to the even one; rounding them up would end them in 3.
TIES = [1318.8284301757812, 14952.423461914062, 1698191082685399.2, -251299372490427.12,
        -19267498070990.062]

# Shortest digits of every length from 1 to 17 (prefixes of DIGITS), and
# digit strings on both sides of 10**8 and of 2**32, where the C writer
# changes how it splits the digits into groups: each with the point inside,
# after and before the digits, and in exponent notation.
DIGITS = "12345678912345678"
SPLITS = ["99999999", "100000001", "4294967295", "4294967296", "4294967297"]
DIGIT_LENGTHS = [float(f"{d[0]}.{d[1:]}e{e}")
                 for d in [DIGITS[:n] for n in range(1, 18)] + SPLITS
                 for e in (-7, -5, -1, 0, 3, len(d) - 1, 15, 16, 22, -300, 300)]

EDGE_VALUES = np.concatenate([
    [2.0**e for e in range(-1074, 1024)],
    [float(f"1e{e}") for e in range(-323, 309)],
    _neighbours([5e-324, sys.float_info.max, sys.float_info.min, 2.0**53,
                 1e16, 9999999999999998.0, 1e-4, 9.999999999999999e-05, 1e23, 1.0, 0.1]),
    TIES,
    DIGIT_LENGTHS,
    [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf],
])


def test_format_rows_writes_the_bytes_of_repr_on_random_doubles(c_backend):
    """A million random bit patterns, as four columns, over every exponent."""
    rng = np.random.default_rng(20261018)
    bits = rng.integers(0, 2**64, size=(4, 250_000), dtype=np.uint64)
    columns = list(bits.view(np.float64))
    assert (_kernels.format_rows(columns, 0, 250_000)
            == _kernels.format_rows.py_func(columns, 0, 250_000))
    assert (_kernels.format_rows(columns, 1000, 1003)
            == _kernels.format_rows.py_func(columns, 1000, 1003))
    assert _kernels.format_rows(columns, 7, 7) == b""


def test_format_rows_writes_the_bytes_of_repr_on_edge_values(c_backend):
    """Powers of 2 and 10 over the whole range, the subnormal and largest
    doubles, 2**53 and its neighbours, each side of the switches to exponent
    notation, ties, every length of shortest digits, signed zeros, nan and
    the infinities, and the negatives of all of them."""
    assert {len(repr(v).split("e")[0].replace(".", "").strip("0"))
            for v in DIGIT_LENGTHS} == set(range(1, 18))
    column = np.concatenate([EDGE_VALUES, -EDGE_VALUES])
    written = bytes(_kernels.format_rows([column], 0, len(column)))
    _assert_same_rows(written, "".join(f"{value!r}\n" for value in column.tolist()).encode())
    for text in (b"\n1e+16\n", b"\n9999999999999998.0\n", b"\n0.0001\n",
                 b"\n9.999999999999999e-05\n", b"\n5e-324\n", b"\n-0.0\n", b"\nnan\n",
                 b"\n-inf\n", b"\n1318.8284301757812\n", b"\n9007199254740992.0\n",
                 b"\n1234567891234567.8\n", b"\n4294967296.0\n", b"\n4294.967295\n",
                 b"\n1.00000001e-05\n", b"\n9.9999999e+22\n"):
        assert text in written
    assert max(len(line) for line in written.splitlines()) + 1 <= _kernels._CELL_BYTES


def test_format_rows_writes_nothing_past_its_capacity(c_backend):
    """At every capacity up to the length of the text, through the switch
    from cells written in place to cells written near the end: a buffer too
    short for the text makes C return -1, and the bytes after the capacity
    it was given stay as they were."""
    by_length = {len(repr(v)): v for v in np.concatenate([EDGE_VALUES, -EDGE_VALUES]).tolist()}
    assert set(range(3, 25)) <= set(by_length)
    cells = [by_length[n] for n in range(3, 25)]
    columns = [np.array(cells[0::2]), np.array(cells[1::2])]
    rows = len(columns[0])
    text = _kernels.format_rows.py_func(columns, 0, rows)
    inverse, power = _kernels._ryu_tables()
    pointers = (ctypes.c_void_p * 2)(*(c.ctypes.data for c in columns))
    size = len(text) + 32
    for cap in range(len(text) + 1):
        buf = ctypes.create_string_buffer(b"#" * size, size)
        written = _kernels._LIB.format_rows(pointers, 2, 0, rows, np.asarray(inverse).ctypes.data,
                                           np.asarray(power).ctypes.data, buf, cap)
        if cap < len(text):
            assert written == -1, cap
        else:
            assert written == len(text) and buf.raw[:written] == text
        assert buf.raw[cap:] == b"#" * (size - cap), cap


@pytest.mark.parametrize("bad", [
    np.zeros(4, dtype=np.float32),
    np.zeros(8)[::2],
    np.zeros(3),
    [0.0] * 4,
], ids=["float32", "strided", "short", "list"])
def test_format_rows_rejects_a_column_c_cannot_read(c_backend, bad):
    with pytest.raises(ValueError):
        _kernels.format_rows([np.zeros(4), bad], 0, 4)


# Signed zeros, infinities, a nan, the smallest subnormal and a sum that
# overflows, in every pairing with each other.
SPECIALS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -1.5, 1e308]


def _derived_inputs(trials=30):
    """(trial, states, model) for derived_column: random models and states,
    among them exact contacts, where both sides give the IEEE quotient of the
    repulsion (inf), and n = 0, each with every pairing of the special values
    as positions and as velocities appended."""
    rng = np.random.default_rng(7)
    pairs = np.array([(a, b) for a in SPECIALS for b in SPECIALS]).T
    for trial in range(trials):
        k, alpha, A, beta = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0), \
            rng.uniform(-1.0, 3.0), rng.uniform(0.1, 2.0)
        n = int(rng.integers(0, 5))
        x1, v1, v2 = rng.uniform(-4.0, 4.0, size=(3, 1000)) * 10.0 ** rng.integers(-5, 3, (3, 1))
        x2 = x1 + rng.uniform(-3.0, 3.0, 1000)
        x2[:10] = x1[:10]
        states = [memoryview(np.concatenate((c, special))) for c, special in
                  zip((x1, v1, x2, v2), (pairs[0], pairs[1], pairs[1], pairs[0]))]
        yield trial, states, (k, alpha, n, A, beta)


def _derived_both(states, model, name):
    """derived_column and its reference on the same input, each result
    checked to be a read-only float64 buffer of one entry per state."""
    results = [fn(*states, *model, name)
               for fn in (_kernels.derived_column, _kernels.derived_column.py_func)]
    for column in results:
        assert column.readonly and column.format == "d" and len(column) == len(states[0])
    return results


def _derived_trials(names):
    """(trial, n, name, C column, reference column) for each of names on the
    inputs of _derived_inputs, and on no states at all."""
    for trial, states, model in _derived_inputs():
        for name in names:
            yield (trial, model[2], name, *_derived_both(states, model, name))
    for name in names:
        yield ("empty", 2, name, *_derived_both([np.empty(0)] * 4, (1.0, 1.0, 2, 2.0, 1.0), name))


def test_energy_column_matches_the_reference_bit_for_bit(c_backend):
    """The E column of derived_column: random models and states, exact
    contacts, n = 0, the special values, and no states at all.  A cell that
    is NaN on both sides need only be NaN on both: the reference's NaN sign
    bit depends on what the interpreter ran before it.  At the all-inf state
    C gives 0xfff8...; the reference gives 0x7ff8... on a cold call and
    0xfff8... once CPython 3.11 has specialised its float adds, which return
    the other NaN operand, and 0x7ff8... again after calls with numpy float64
    arguments.  Every other cell is compared byte for byte."""
    for trial, n, name, got, expected in _derived_trials(["E"]):
        got, expected = np.frombuffer(got), np.frombuffer(expected)
        assert len(got) == len(expected), (trial, n)
        both = np.isnan(got) & np.isnan(expected)
        assert got[~both].tobytes() == expected[~both].tobytes(), (trial, n)


def test_cm_columns_match_the_reference_bit_for_bit(c_backend):
    """The R, V, r and w columns of derived_column: random states, every
    pairing of the special values, and no states at all."""
    for trial, n, name, got, expected in _derived_trials(["R", "V", "r", "w"]):
        assert got.tobytes() == expected.tobytes(), (trial, n, name)


@pytest.mark.parametrize("name", ["t", "e", ("R",)], ids=["recorded", "unknown", "tuple"])
def test_a_wanted_column_that_is_not_derived_is_rejected(name):
    """By the C wrapper, where gcc built it, and by the reference."""
    states = [np.zeros(4)] * 4
    column = _kernels.derived_column
    for fn in [column, *([column.py_func] if hasattr(column, "py_func") else [])]:
        with pytest.raises(ValueError, match="must be one of"):
            fn(*states, 1.0, 1.0, 2, 2.0, 1.0, name)


@pytest.mark.parametrize("bad", [
    np.zeros(4, dtype=np.float32),
    np.zeros(8)[::2],
    np.zeros(4)[::-1],
    np.frombuffer(bytearray(33), offset=1),
    memoryview(bytearray(33))[1:].cast("d"),
    np.zeros(3),
    [0.0] * 4,
], ids=["float32", "strided", "reversed", "misaligned", "misaligned-memoryview", "short",
        "list"])
@pytest.mark.parametrize("column", ["E", "R"], ids=["energy_column", "cm_columns"])
def test_a_state_column_c_cannot_read_is_rejected(c_backend, column, bad):
    """Reading a trajectory's energy column or its center-of-mass columns
    raises before C sees a state column it cannot read."""
    traj = integrator.Trajectory(memoryview(np.zeros(4)), np.ones(4), np.ones(4), bad,
                                 np.ones(4), ModelParams())
    with pytest.raises(ValueError):
        getattr(traj, column)


def _divergence(t, a, b, seed_delta):
    """sweep.divergence on the columns as memoryviews, so that it computes
    with Python floats as it does on trajectory columns; the result as
    (bytes of d, unit, fit with the slope as hex)."""
    t, a, b = memoryview(t), [memoryview(c) for c in a], [memoryview(c) for c in b]
    d, unit, fit = divergence(t, a, b, seed_delta)
    assert d.readonly and d.format == "d" and len(d) == len(t)
    return d.tobytes(), unit, fit and (fit[0], fit[1], fit[2].hex())


def test_identical_twins_give_zero_distance_and_no_fit():
    rng = np.random.default_rng(12)
    t = np.cumsum(rng.uniform(0.1, 2.0, 500))
    a = rng.uniform(-5.0, 5.0, (4, 500))
    for seed_delta in (0.0, 1e-9):
        assert _divergence(t, a, a.copy(), seed_delta) == (np.zeros(500).tobytes(), None, None)


def test_a_window_fits_through_its_positive_samples_only():
    """Both ends of a window are positive (d > 10*seed_delta and
    d > 0.01*DIVERGENCE_SCALE), so it always holds two positive samples;
    zeros and nan inside it are left out of the fit, and a window without a
    time span fits nothing."""
    t = np.arange(6.0)
    a = np.zeros((4, 6))
    b = a.copy()
    b[0] = [1e-9, 2e-8, 0.0, math.nan, 0.0, 0.5]
    _, unit, fit = _divergence(t, a, b, 1e-9)
    assert unit is None and fit[:2] == (1, 5)
    slope = float.fromhex(fit[2])
    assert slope == pytest.approx((math.log(0.5) - math.log(2e-8)) / 4.0, rel=1e-12)
    assert _divergence(np.full(6, 3.0), a, b, 1e-9)[2] is None


def test_divergence_of_no_samples():
    empty = np.empty(0)
    assert _divergence(empty, [empty] * 4, [empty] * 4, 1e-9) == (b"", None, None)


def test_twin_columns_of_unequal_length_are_rejected():
    t, a = np.arange(4.0), np.zeros((4, 4))
    with pytest.raises(ValueError):
        divergence(t, a, [*a[:3], np.zeros(3)], 1e-9)
    with pytest.raises(ValueError):
        divergence(t[:3], a, a, 1e-9)


def test_divergence_gives_the_numpy_distance_and_fit_of_a_chaotic_twin():
    """v0 = 0.056 to t_max = 600: d has the bits of numpy's sum of squared
    differences, the slope agrees with np.polyfit on the same window to
    rel 1e-12, and sensitivity reports both."""
    sc = Scenario(params=ModelParams(), v0=0.056, t_max=600.0)
    cfg = IntegratorConfig()
    runs = [integrator.integrate(initial_state(s), sc.params, cfg, sc.t_max,
                                 record_every=1000).trajectory
            for s in (sc, Scenario(params=ModelParams(), v0=0.056 + 1e-9, t_max=600.0))]
    columns = [(r.x1, r.x2, r.v1, r.v2) for r in runs]
    d, unit, (lo, hi, slope) = divergence(runs[0].t, *columns, 1e-9)
    old = np.sqrt(sum((np.asarray(p) - np.asarray(q)) ** 2 for p, q in zip(*columns)))
    assert d.tobytes() == old.tobytes()
    t = np.asarray(runs[0].t)
    assert lo == np.nonzero(old > 1e-8)[0][0]
    assert hi == np.nonzero(old > 0.01 * DIVERGENCE_SCALE)[0][0]
    assert unit == np.nonzero(old > 1.0)[0][0]
    seg_t, seg_d = t[lo:hi + 1], old[lo:hi + 1]
    assert slope == pytest.approx(np.polyfit(seg_t, np.log(seg_d), 1)[0], rel=1e-12, abs=0)
    rep = sensitivity(sc, cfg)
    assert rep.distances.tobytes() == d.tobytes() and rep.times.tobytes() == t.tobytes()
    assert (rep.lambda_, rep.window, rep.t_first_unit) == (slope, (t[lo], t[hi]), t[unit])


def test_the_library_exports_exactly_the_functions_it_binds(c_backend):
    """The defined dynamic symbols of the built library are the names
    _kernels.py binds from _LIB, each once; the four wrappers keep their
    Python reference as py_func, and the batch runner, bound bare, has
    none."""
    nm = shutil.which("nm")
    if nm is None:
        pytest.skip("no nm")
    proc = subprocess.run([nm, "-D", "--defined-only", _kernels._LIB._name],
                          capture_output=True, text=True, check=True)
    exported = [line.split()[-1] for line in proc.stdout.splitlines() if line.strip()]
    bound = re.findall(r"_LIB\.(\w+)", Path(_kernels.__file__).read_text())
    assert sorted(exported) == sorted(bound) == \
        ["derived_column", "format_rows", "run_rk4", "run_verlet", "run_verlet_lanes"]
    for name in ("_run_verlet", "_run_rk4", "derived_column", "format_rows"):
        wrapper = getattr(_kernels, name)
        assert wrapper.py_func is not wrapper and wrapper.py_func.__name__ == name
    assert not hasattr(_kernels._run_verlet_lanes, "py_func")


def test_a_failed_build_loads_nothing(tmp_path, capsys):
    broken = tmp_path / "broken.c"
    broken.write_text("int run_verlet(void) { return }\n")
    cache = tmp_path / "cache"
    assert _kernels._load(str(broken), str(cache)) is None
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Python reference" in err
    # no library and no half-written temporary file is left behind
    assert list(cache.glob("*")) == []


def test_the_build_is_cached_under_a_key_of_the_source(c_backend, tmp_path):
    source = tmp_path / "k.c"
    source.write_bytes(Path(_kernels._SOURCE).read_bytes())
    cache = tmp_path / "cache"
    assert _kernels._load(str(source), str(cache)) is not None
    [lib] = cache.iterdir()
    built = lib.stat().st_mtime_ns
    assert _kernels._load(str(source), str(cache)) is not None
    assert list(cache.iterdir()) == [lib] and lib.stat().st_mtime_ns == built
    source.write_text(source.read_text() + "/* edited */\n")
    assert _kernels._load(str(source), str(cache)) is not None
    assert len(list(cache.iterdir())) == 2


def test_the_build_flags_keep_ieee_double_arithmetic():
    """No contraction into FMA and no flag that lets gcc reassociate, turn on
    FMA or widen the vectors: the packed lanes' SSE2 steps, like the scalar
    ones, must round each operation as the Python reference does."""
    assert "-ffp-contract=off" in _kernels._FLAGS
    assert [flag for flag in _kernels._FLAGS
            if flag.startswith(("-march", "-mavx", "-mfma", "-ffast-math", "-Ofast"))] == []


def test_the_source_compiles_without_a_warning(tmp_path):
    """The build flags plus -Wall -Wextra -Wfloat-equal -Werror: the hot loop
    stays free of what those catch, float-equality special cases included."""
    gcc = shutil.which("gcc")
    if gcc is None:
        pytest.skip("no gcc")
    proc = subprocess.run(
        [gcc, *_kernels._FLAGS, "-Wall", "-Wextra", "-Wfloat-equal", "-Werror",
         "-o", str(tmp_path / "k.so"), _kernels._SOURCE, "-lm"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


# Small sweeps on two workers (forked processes without gcc, threads over C
# with it): transmit, reflect and time-limit rows; Error rows beside exits;
# RK4 points; and points that all fail before their runs, which leave the
# batch empty.  Then an RK4 run recorded at an odd stride, and a twin run
# whose exponent is fitted.
FALLBACK_RUNS = {
    "sweep": ["sweep", "--v-min", "0.2", "--v-max", "0.3", "--dv", "0.05",
              "--launch-offset=-4", "--exit-radius", "4", "--t-max", "60",
              "--workers", "2"],
    "sweep-errors": ["sweep", "--v-min", "0.2", "--v-max", "0.5", "--dv", "0.1",
                     "--launch-offset=-4", "--exit-radius", "4", "--t-max", "60",
                     "--max-steps", "30000", "--workers", "2"],
    "sweep-rk4": ["sweep", "--scheme", "RK4", "--v-min", "0.3", "--v-max", "0.4", "--dv", "0.1",
                  "--launch-offset=-3", "--exit-radius", "3", "--t-max", "30",
                  "--workers", "2"],
    "sweep-empty": ["sweep", "--separation", "1e-13", "--v-min", "0.1", "--v-max", "0.3",
                    "--dv", "0.05", "--t-max", "50", "--workers", "2"],
    "simulate": ["simulate", "--scheme", "RK4", "--v0", "0.3", "--t-max", "25",
                 "--record-every", "7"],
    "sensitivity": ["sensitivity", "--v0", "0.2", "--t-max", "100", "--seed-delta", "1e-6"],
}


def test_the_python_fallback_writes_the_c_bytes_end_to_end(c_backend, tmp_path):
    """A copy of the package with no built library, run where gcc cannot be
    found, says once that it falls back, names the python kernel and writes
    the CSV bytes of the C kernel, a fitted exponent included."""
    package = Path(_kernels.__file__).parent
    copy = tmp_path / "kinktrap"
    copy.mkdir()
    for source in [*package.glob("*.py"), _kernels._SOURCE]:
        shutil.copy(source, copy)
    no_gcc = tmp_path / "bin"
    no_gcc.mkdir()
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    env["PATH"] = str(no_gcc)

    def fallback(*argv):
        proc = subprocess.run([sys.executable, "-m", "kinktrap", *argv], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        [line] = proc.stderr.splitlines()
        assert "gcc not found" in line and "Python reference" in line
        return proc.stdout

    assert fallback("--version").strip().endswith("(kernel: python)")
    for name, argv in FALLBACK_RUNS.items():
        out_c, out_py = tmp_path / f"{name}-c.csv", tmp_path / f"{name}-py.csv"
        assert cli.main([*argv, "--out", str(out_c)]) == 0
        fallback(*argv, "--out", str(out_py))
        assert out_py.read_bytes() == out_c.read_bytes(), name
    assert "# degenerate = false\n" in (tmp_path / "sensitivity-c.csv").read_text()
