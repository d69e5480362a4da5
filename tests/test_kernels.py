"""The C runners against their Python reference, bit for bit.

`_kernels._run_verlet` and `_kernels._run_rk4` call the C copy in
`_kernels.c` whenever gcc can build it; `py_func` is the Python runner it
mirrors.  Every comparison is of the whole return tuple, floats as hex, and
of the bytes of the five recording buffers, which both sides receive filled
with the same sentinel so that a write past nrec shows too.
"""

import math
import random
import shutil

import numpy as np
import pytest

from kinktrap import _kernels

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


def _both(runner, args, cap):
    """Run the C wrapper and its reference on identical sentinel-filled
    buffers; return each side's (result as hex, buffer bytes)."""
    sides = []
    for fn in (runner, runner.py_func):
        rec = [np.full(cap, SENTINEL) for _ in range(5)]
        result = fn(*args, *rec)
        sides.append((_hex(result), b"".join(b.tobytes() for b in rec)))
    return sides


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


def test_rk4_stage_breach_matches_the_reference(c_backend):
    """Head-on at relative speed 2, the pair meets at RK4's first half-step
    stage; both sides return that stage's pair after one step."""
    args = (-5e-4, 1.0, 5e-4, -1.0, 0.0, 1e-3, 5, 1.0, 1e-30, 1, 2.0, 1.0,
            1e-12, -1.0, 0.0, 1)
    c_side, py_side = _both(_kernels._run_rk4, args, 6)
    assert c_side == py_side
    status, steps, x1, _, x2, _, _, nrec = _kernels._run_rk4(*args, *[np.empty(6)] * 5)
    assert (status, steps, nrec) == (_kernels.STATUS_COINCIDENT, 1, 0)
    assert abs(x1 - x2) < 1e-12


@pytest.mark.parametrize("scheme", RUNNERS)
def test_an_exact_contact_under_a_zero_floor_raises_as_the_reference_does(c_backend, scheme):
    """A zero floor lets the contact reach the repulsion's division."""
    runner = getattr(_kernels, RUNNERS[scheme])
    empty = np.empty(0)
    args = (0.5, 0.0, 0.5, 0.0, 0.0, 1e-3, 3, 1.0, 1.0, 2, 2.0, 1.0, 0.0, -1.0, 0.0, 0,
            empty, empty, empty, empty, empty)
    for fn in (runner.py_func, runner):
        with pytest.raises(ZeroDivisionError):
            fn(*args)


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
], ids=["float32", "strided", "big-endian", "2d", "read-only", "list", "short"])
@pytest.mark.parametrize("scheme", RUNNERS)
def test_a_wrong_recording_buffer_raises(c_backend, scheme, bad):
    good = np.empty(4)
    args = (-1.0, 0.3, 1.0, -0.3, 0.0, 1e-3, 10, 1.0, 1.0, 2, 2.0, 1.0, 1e-12, -1.0, 0.0, 1)
    with pytest.raises(ValueError):
        getattr(_kernels, RUNNERS[scheme])(*args, good, good, bad, good, good)


def test_a_failed_build_loads_nothing(tmp_path, capsys):
    broken = tmp_path / "broken.c"
    broken.write_text("int run_verlet(void) { return }\n")
    cache = tmp_path / "cache"
    assert _kernels._load(broken, cache) is None
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Python reference" in err
    # no library and no half-written temporary file is left behind
    assert list(cache.glob("*")) == []


def test_the_build_is_cached_under_a_key_of_the_source(c_backend, tmp_path):
    source = tmp_path / "k.c"
    source.write_bytes(_kernels._SOURCE.read_bytes())
    cache = tmp_path / "cache"
    assert _kernels._load(source, cache) is not None
    [lib] = cache.iterdir()
    built = lib.stat().st_mtime_ns
    assert _kernels._load(source, cache) is not None
    assert list(cache.iterdir()) == [lib] and lib.stat().st_mtime_ns == built
    source.write_text(source.read_text() + "/* edited */\n")
    assert _kernels._load(source, cache) is not None
    assert len(list(cache.iterdir())) == 2
