"""Hot loops: a readable Python reference and a C copy.

The Python functions below are the reference.  `_kernels.c` mirrors them
operation for operation; it is built once with the system gcc and loaded
through ctypes, and then `_run_verlet`, `_run_rk4`, `derived_column` and
`format_rows` are thin wrappers around four of its five exported functions
that keep the Python function as `py_func`.  The fifth, run_verlet_lanes,
runs `_run_verlet`'s loop over a batch; it is bound bare, as
`_run_verlet_lanes`, and only run_batch calls it.  BACKEND names the
implementation in use: "c" or "python".  The C functions are reentrant:
their only statics are const tables, every result goes to buffers the
caller passes in, and the counter from which the threads of one batch claim
its points is the caller's too.  ctypes releases the GIL for each call, so
threads run them in parallel (run_batch does).

  build   gcc -O2 -ffp-contract=off -fPIC -shared -lm.  -ffp-contract=off
          keeps gcc from fusing a multiply and an add into one FMA, which
          rounds once instead of twice; -ffast-math and -march=native are
          left out for the same reason.  exp is libm's, which is what
          math.exp calls, so the C results equal the reference bit for bit.
          Tier-1 tests compare them on random input.
  cache   __pycache__/ next to this file, under a name keyed by a CRC-32 of
          the C source, the flags and the platform.  The build writes a
          temporary file there and renames it into place, so concurrent
          first imports never load half a library.  It happens at import,
          so BACKEND is settled before anything reads it: run_batch picks
          threads (C) or forked processes (the Python reference) from it,
          and --version prints it.
  fallback  without gcc, or when the build or the load fails, one line on
          stderr says why and the Python reference runs (about 50x slower).

Each formula has one home:

  force   _accel.  dynamics.accelerations is the floor check plus _accel;
          linearized.in_well_equilibrium_separation bisects it.
  step    _run_verlet and _run_rk4, which take the same 21 arguments and
          return the same 8-tuple as their C wrappers.  In C, the force,
          energy and Verlet step are written once (STEP_FUNCTIONS) for a
          double and for a vector of two, one per lane.
  batch   run_batch, many runs of one scalar runner that record nothing,
          on threads over C and on forked processes over the Python
          reference, which holds the GIL; its docstring says how the runs
          are shared out, and run_verlet_lanes's comment in _kernels.c how
          C's Verlet runs advance two at a time.
  energy  pair_energy, used by dynamics.total_energy, by derived_column and
          by the tail.  In C it is the static pair_energy, which after_step
          and derived_column call; parity tests pin both to the Python
          energy bit for bit.
  CM      cm_coordinates, the center-of-mass coordinates (R, V, r, w) of one
          state, used by dynamics.to_cm and by derived_column.
  column  derived_column, what a trajectory derives from its recorded
          states: one named column of DERIVED (R, V, r, w or E), from
          cm_coordinates or pair_energy of each state (integrator.Trajectory
          asks for a column on its first read).  In C, which indexes the
          four coordinates, built as cm_coordinates builds them, and any
          other which gives E; a parity test pins each of the five to the
          Python loop bit for bit.
  tail    _tail, the bookkeeping both runners do after a completed step:
          the drift peak, the recording test and the exit test.  after_step
          and done in _kernels.c mirror its two closures.
  text    format_rows, the CSV rows of a body of float64 columns as ASCII
          bytes: repr of each cell.  The C copy finds the shortest
          round-trip digits with Ryu (U. Adams, PLDI 2018), ties to even,
          and writes them as repr lays them out straight into its buffer,
          whose capacity it checks once, against _CELL_BYTES a cell, the
          size the wrapper allocates.  The wrapper returns a read-only
          memoryview of it; the reference returns bytes.  Its 128-bit
          power-of-5 tables are computed exactly from Python ints by
          _ryu_tables on the first call and passed in.  A tier-1 test
          compares it with repr on a million random doubles and the edge
          cases.

Buffers: every column C reads or writes is a 1-D float64 buffer, any object
with the buffer protocol and memoryview format 'd': a numpy array, or a
memoryview over an anonymous mmap (float_buffers; integrate records into
five of them).  float64_views checks each one before C sees its address,
and C gets nothing that is not aligned and C-contiguous: the runners' five
must also be writable and of one length, derived_column's four state
columns of one length, and format_rows's columns long enough.  A batch's
float64 and int64 arrays go unchecked: run_batch makes them, in the sizes C
needs, in the call that passes them.  Both sides of derived_column return a
new read-only buffer.  Nothing here imports numpy.

Division: the runners take every force and energy at a separation >= floor,
so floor ** (n + 2) > 0 keeps the repulsion's divisor nonzero; integrate's
floor and dynamics.MAX_EXPONENT ensure it.  beta > 0 keeps math.exp finite.

Status codes returned by the runners:
  0  completed the requested number of steps
  1  exit-radius predicate fired
  2  separation fell below the coincidence floor; the runner returns the
     positions (and velocities) of the step or RK4 stage that breached it
"""

from __future__ import annotations

import ctypes
import functools
import math
import mmap
import os
import sys
import zlib

# Always False: nothing uses numba.  Kept because perfbench/record_reference.py
# reads it.
NUMBA_ENABLED = False

STATUS_RAN_ALL = 0
STATUS_EXIT = 1
STATUS_COINCIDENT = 2


def _accel(x1, x2, k, alpha, n, A, beta):
    """Accelerations plus the Gaussian factors, which the energy reuses."""
    dx = x1 - x2
    sep = abs(dx)
    p = 1.0
    for _ in range(n + 2):
        p *= sep
    g1 = math.exp(-beta * x1 * x1)
    g2 = math.exp(-beta * x2 * x2)
    internal = -k * dx + n * alpha * dx / p
    coef = -2.0 * A * beta
    a1 = internal + coef * x1 * g1
    a2 = -internal + coef * x2 * g2
    return a1, a2, g1, g2


def pair_energy(dx, v1, v2, g1, g2, k, alpha, n, A):
    """Kinetic + spring + repulsion + well energy, given dx = x1 - x2 and the
    Gaussian factors g = exp(-beta x^2)."""
    sep = abs(dx)
    p = 1.0
    for _ in range(n):
        p *= sep
    # p is zero only at an exact contact, which derived_column's input may
    # hold: Python raises there, and alpha * inf is C's alpha / +0.0
    repulsion = alpha / p if p else alpha * math.inf
    # the well terms are paired before the grand total so particle exchange
    # is exact
    return 0.5 * (v1 * v1 + v2 * v2) + 0.5 * k * dx * dx + repulsion + ((-A * g1) + (-A * g2))


def float_buffers(count, rows):
    """count writable float64 buffers of rows entries each, as memoryviews
    over one anonymous private mapping: a page takes memory only once a row
    on it is written, so sizing for a bound costs nothing up front.  No rows
    gives zero-length buffers, and no count none."""
    if count * rows == 0:
        return [memoryview(bytearray()).cast("d")] * count
    whole = memoryview(mmap.mmap(-1, count * rows * 8, flags=mmap.MAP_PRIVATE)).cast("d")
    return [whole[i * rows:(i + 1) * rows] for i in range(count)]


def cm_coordinates(x1, v1, x2, v2):
    """(R, V, r, w) of one state: the center of mass, its velocity, half the
    separation x2 - x1 and its rate."""
    return 0.5 * (x1 + x2), 0.5 * (v1 + v2), 0.5 * (x2 - x1), 0.5 * (v2 - v1)


# The columns derived_column can derive, in the order of C's which index.
DERIVED = ("R", "V", "r", "w", "E")


def _which(name) -> int:
    """name's index in DERIVED; ValueError for any other name."""
    if name not in DERIVED:
        raise ValueError(f"name must be one of {DERIVED}, got {name!r}")
    return DERIVED.index(name)


def derived_column(x1, v1, x2, v2, k, alpha, n, A, beta, name):
    """The column name, among DERIVED, at each state of a recorded
    trajectory, as a new read-only float64 buffer: R, V, r and w are
    cm_coordinates of the state and E is its pair_energy, whose Gaussian
    factors come from math.exp, as in the runners."""
    which = _which(name)
    (out,) = float_buffers(1, len(x1))
    for i, (a, va, b, vb) in enumerate(zip(x1, v1, x2, v2, strict=True)):
        if which < 4:
            out[i] = cm_coordinates(a, va, b, vb)[which]
        else:
            out[i] = pair_energy(a - b, va, vb, math.exp(-beta * a * a),
                                 math.exp(-beta * b * b), k, alpha, n, A)
    return out.toreadonly()


def format_rows(columns, start, stop):
    """Rows start..stop of equal-length float64 columns as the ASCII bytes of
    CSV text: repr of each cell, cells joined by ',' and every row ended by a
    newline."""
    cells = [map(repr, column[start:stop].tolist()) for column in columns]
    text = "\n".join(map(",".join, zip(*cells)))
    return (text + "\n" if text else "").encode("ascii")


def _tail(k, alpha, n, A, t0, dt, exit_radius, e0, rec_stride, rec):
    """The runners' shared bookkeeping, as two closures over one run's model,
    recording buffers (rec, five float64 buffers of one length) and running
    totals.

    after_step(steps, x1, v1, x2, v2, dx, g1, g2), called after each completed
    step, tracks the drift peak, records every rec_stride-th step while the
    buffers last and runs the exit test; it returns STATUS_EXIT or
    STATUS_RAN_ALL.  done(status, steps, x1, v1, x2, v2) is the runner's
    return tuple.
    """
    rec_t, rec_x1, rec_v1, rec_x2, rec_v2 = rec
    cap = len(rec_t)
    maxd = 0.0
    nrec = 0

    def after_step(steps, x1, v1, x2, v2, dx, g1, g2):
        nonlocal maxd, nrec
        d = abs(pair_energy(dx, v1, v2, g1, g2, k, alpha, n, A) - e0)
        if d > maxd:
            maxd = d
        if rec_stride > 0 and steps % rec_stride == 0 and nrec < cap:
            rec_t[nrec] = t0 + steps * dt
            rec_x1[nrec] = x1
            rec_v1[nrec] = v1
            rec_x2[nrec] = x2
            rec_v2[nrec] = v2
            nrec += 1
        if exit_radius > 0.0:
            R = 0.5 * (x1 + x2)
            V = 0.5 * (v1 + v2)
            if (R >= exit_radius or R <= -exit_radius) and R * V > 0.0:
                return STATUS_EXIT
        return STATUS_RAN_ALL

    def done(status, steps, x1, v1, x2, v2):
        return status, steps, x1, v1, x2, v2, maxd, nrec

    return after_step, done


def _run_verlet(
    x1, v1, x2, v2, t0, dt, nsteps,
    k, alpha, n, A, beta,
    floor, exit_radius, e0,
    rec_stride, rec_t, rec_x1, rec_v1, rec_x2, rec_v2,
):
    """Velocity Verlet (kick-drift-kick), fixed step, force reused across steps.

    exit_radius <= 0 disables the escape predicate; rec_stride <= 0 disables
    recording.  Returns (status, steps, x1, v1, x2, v2, max_abs_drift, nrec).
    """
    after_step, done = _tail(k, alpha, n, A, t0, dt, exit_radius, e0, rec_stride,
                             (rec_t, rec_x1, rec_v1, rec_x2, rec_v2))
    steps = 0
    if abs(x1 - x2) < floor:
        return done(STATUS_COINCIDENT, steps, x1, v1, x2, v2)
    a1, a2, g1, g2 = _accel(x1, x2, k, alpha, n, A, beta)
    h2 = 0.5 * dt
    status = STATUS_RAN_ALL
    for i in range(nsteps):
        v1 += h2 * a1
        v2 += h2 * a2
        x1 += dt * v1
        x2 += dt * v2
        dx = x1 - x2
        if abs(dx) < floor:
            return done(STATUS_COINCIDENT, i + 1, x1, v1, x2, v2)
        a1, a2, g1, g2 = _accel(x1, x2, k, alpha, n, A, beta)
        v1 += h2 * a1
        v2 += h2 * a2
        steps = i + 1
        status = after_step(steps, x1, v1, x2, v2, dx, g1, g2)
        if status != STATUS_RAN_ALL:
            break
    return done(status, steps, x1, v1, x2, v2)


def _run_rk4(
    x1, v1, x2, v2, t0, dt, nsteps,
    k, alpha, n, A, beta,
    floor, exit_radius, e0,
    rec_stride, rec_t, rec_x1, rec_v1, rec_x2, rec_v2,
):
    """Classical RK4 on (x1, v1, x2, v2); cross-check scheme, not symplectic.

    Arguments and return as _run_verlet.
    """
    after_step, done = _tail(k, alpha, n, A, t0, dt, exit_radius, e0, rec_stride,
                             (rec_t, rec_x1, rec_v1, rec_x2, rec_v2))
    steps = 0
    if abs(x1 - x2) < floor:
        return done(STATUS_COINCIDENT, steps, x1, v1, x2, v2)
    h2 = 0.5 * dt
    status = STATUS_RAN_ALL
    for i in range(nsteps):
        a1, b1, _, _ = _accel(x1, x2, k, alpha, n, A, beta)
        xa1 = x1 + h2 * v1
        xa2 = x2 + h2 * v2
        va1 = v1 + h2 * a1
        va2 = v2 + h2 * b1
        if abs(xa1 - xa2) < floor:
            return done(STATUS_COINCIDENT, i + 1, xa1, va1, xa2, va2)
        a2_, b2, _, _ = _accel(xa1, xa2, k, alpha, n, A, beta)
        xb1 = x1 + h2 * va1
        xb2 = x2 + h2 * va2
        vb1 = v1 + h2 * a2_
        vb2 = v2 + h2 * b2
        if abs(xb1 - xb2) < floor:
            return done(STATUS_COINCIDENT, i + 1, xb1, vb1, xb2, vb2)
        a3, b3, _, _ = _accel(xb1, xb2, k, alpha, n, A, beta)
        xc1 = x1 + dt * vb1
        xc2 = x2 + dt * vb2
        vc1 = v1 + dt * a3
        vc2 = v2 + dt * b3
        if abs(xc1 - xc2) < floor:
            return done(STATUS_COINCIDENT, i + 1, xc1, vc1, xc2, vc2)
        a4, b4, _, _ = _accel(xc1, xc2, k, alpha, n, A, beta)
        sixth = dt / 6.0
        x1 = x1 + sixth * (v1 + 2.0 * va1 + 2.0 * vb1 + vc1)
        x2 = x2 + sixth * (v2 + 2.0 * va2 + 2.0 * vb2 + vc2)
        v1 = v1 + sixth * (a1 + 2.0 * a2_ + 2.0 * a3 + a4)
        v2 = v2 + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
        dx = x1 - x2
        if abs(dx) < floor:
            return done(STATUS_COINCIDENT, i + 1, x1, v1, x2, v2)
        steps = i + 1
        g1 = math.exp(-beta * x1 * x1)
        g2 = math.exp(-beta * x2 * x2)
        status = after_step(steps, x1, v1, x2, v2, dx, g1, g2)
        if status != STATUS_RAN_ALL:
            break
    return done(status, steps, x1, v1, x2, v2)


def run_batch(runner, runs, workers) -> list:
    """[runner(*args) for args in runs], for runs of one scalar runner, on up
    to workers threads or processes at once, this thread included.

    Precondition: no run records.  A run whose rec_stride is > 0 raises
    ValueError before any run starts.

    Over the Python reference the runs go to forked processes, since the
    reference holds the GIL.  Over C the runs of _run_verlet go to
    _run_verlet_lanes, one call per group of runs that share dt, k, alpha,
    n, A, beta, floor and exit radius (by their bits, groups in first-seen
    order): threads claim the group's runs from one counter, and each
    thread's two lanes advance in one SSE2 vector step while both hold a run
    and on the scalar step when one is left.  Any other runner's runs are
    claimed one at a time by threads under one lock (two RK4 lanes in one
    loop measured slower than one).  An empty batch starts no thread or
    process.
    """
    if any(args[15] > 0 for args in runs):
        raise ValueError("run_batch runs record nothing: every rec_stride must be <= 0")
    if not runs:
        return []
    workers = min(workers, len(runs))
    if BACKEND == "python":
        # fork starts the workers without re-importing the package; imported
        # here, since the pool costs every other import of the package
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers,
                                 mp_context=multiprocessing.get_context("fork")) as pool:
            # the recording buffers are empty memoryviews, which do not pickle
            return list(pool.map(functools.partial(_unrecorded, runner),
                                 [args[:16] for args in runs]))
    if runner is _run_verlet:
        from array import array

        groups = {}  # what a group's runs share, as bits: their indices in runs
        for i, (*_, dt, _, k, alpha, n, A, beta, floor, exit_radius) in enumerate(
                args[:14] for args in runs):
            shared = array("d", (dt, k, alpha, A, beta, floor, exit_radius)).tobytes(), n
            groups.setdefault(shared, []).append(i)
        results = [None] * len(runs)
        for indices in groups.values():
            group = [runs[i] for i in indices]
            for i, result in zip(indices, _lanes(group, min(workers, len(group)))):
                results[i] = result
        return results

    import threading

    results = [None] * len(runs)
    claim, unclaimed = threading.Lock(), iter(range(len(runs)))

    def claim_and_run():
        while True:
            with claim:
                i = next(unclaimed, None)
            if i is None:
                return
            results[i] = runner(*runs[i])

    _on_threads(claim_and_run, workers)
    return results


def _on_threads(work, count):
    """work() on this thread and on count - 1 started threads at once."""
    import threading  # only a batch starts threads

    helpers = [threading.Thread(target=work) for _ in range(count - 1)]
    for thread in helpers:
        thread.start()
    work()
    for thread in helpers:
        thread.join()


def _lanes(runs, workers) -> list:
    """_run_verlet's result for each of runs, which share their dt, model,
    floor and exit radius, from _run_verlet_lanes on workers threads."""
    from array import array

    # run i starts from starts[5i:5i + 5] = (x1, v1, x2, v2, e0) with a budget
    # of nsteps[i] steps, and C writes its (x1, v1, x2, v2, max_abs_drift) to
    # ends[5i:5i + 5] and its (steps, nrec, status) to counts[3i:3i + 3]; the
    # threads claim the runs from counter
    starts, nsteps = array("d"), array("q")
    for x1, v1, x2, v2, _, _, budget, *_, e0, _ in (args[:16] for args in runs):
        starts.extend((x1, v1, x2, v2, e0))
        nsteps.append(budget)
    ends, counts = array("d", bytes(40 * len(runs))), array("q", bytes(24 * len(runs)))
    counter = array("q", [0])
    starts_at, nsteps_at, counter_at, ends_at, counts_at = (
        a.buffer_info()[0] for a in (starts, nsteps, counter, ends, counts))
    _, _, _, _, _, dt, _, k, alpha, n, A, beta, floor, exit_radius = runs[0][:14]
    _on_threads(lambda: _run_verlet_lanes(starts_at, nsteps_at, len(runs), dt, k, alpha, n,
                                          A, beta, floor, exit_radius,
                                          counter_at, ends_at, counts_at), workers)
    return [(counts[3 * i + 2], counts[3 * i], *ends[5 * i:5 * i + 5], counts[3 * i + 1])
            for i in range(len(runs))]


def _unrecorded(runner, args):
    """runner's result for the first 16 of a run's arguments, with no
    recording buffers."""
    return runner(*args, *float_buffers(5, 0))


_SOURCE = os.path.join(os.path.dirname(__file__), "_kernels.c")
_FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
_D, _I = ctypes.c_double, ctypes.c_int64
_ARGTYPES = (
    [_D] * 6 + [_I] + [_D, _D, _I] + [_D] * 5  # x1 .. dt, nsteps, k .. e0
    + [_I, _I] + [ctypes.c_void_p] * 5          # rec_stride, capacity, buffers
    + [ctypes.POINTER(_D), ctypes.POINTER(_I)]  # out: state and drift; steps, nrec
)
_LANES_ARGTYPES = (
    [ctypes.c_void_p] * 2 + [_I]                 # starts, nsteps, npoints
    + [_D] * 3 + [_I] + [_D] * 4                 # dt, k, alpha, n, A .. exit_radius
    + [ctypes.c_void_p] * 3                      # counter, ends, counts
)


def _load(source: str, cache_dir: str) -> ctypes.CDLL | None:
    """Build source with gcc into cache_dir, unless a build of the same
    source, flags and platform is there, and load it.  On failure print one
    line to stderr and return None."""
    try:
        with open(source, "rb") as fh:
            code = fh.read()
        key = zlib.crc32(" ".join((*_FLAGS, sys.platform, os.uname().machine)).encode() + code)
        stem = os.path.splitext(os.path.basename(source))[0]
        lib = os.path.join(cache_dir, f"{stem}-{key:08x}.so")
        if not os.path.exists(lib):
            _build(source, lib)
        return ctypes.CDLL(lib)
    except OSError as exc:
        print(f"kinktrap: no C kernel ({exc}); running the Python reference kernels",
              file=sys.stderr)
        return None


def _build(source: str, lib: str) -> None:
    import shutil  # only a first import builds
    import subprocess

    gcc = shutil.which("gcc")
    if gcc is None:
        raise OSError("gcc not found")
    os.makedirs(os.path.dirname(lib), exist_ok=True)
    tmp = f"{lib}.{os.getpid()}.tmp"
    try:
        proc = subprocess.run([gcc, *_FLAGS, "-o", tmp, source, "-lm"],
                              capture_output=True, text=True)
        if proc.returncode != 0:
            lines = proc.stderr.strip().splitlines() or [f"exit status {proc.returncode}"]
            raise OSError(f"gcc failed: {lines[0]}")
        os.replace(tmp, lib)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


class _PyBuffer(ctypes.Structure):
    """CPython's Py_buffer, which PyObject_GetBuffer fills in."""
    _fields_ = [("buf", ctypes.c_void_p), ("obj", ctypes.c_void_p),
                ("len", ctypes.c_ssize_t), ("itemsize", ctypes.c_ssize_t),
                ("readonly", ctypes.c_int), ("ndim", ctypes.c_int),
                ("format", ctypes.c_char_p), ("shape", ctypes.c_void_p),
                ("strides", ctypes.c_void_p), ("suboffsets", ctypes.c_void_p),
                ("internal", ctypes.c_void_p)]


# Prototypes of their own, so that no other user of ctypes.pythonapi sees
# their argument types; a Python API call keeps the GIL and raises the
# exception it sets.
_get_buffer = ctypes.PYFUNCTYPE(ctypes.c_int, ctypes.py_object, ctypes.POINTER(_PyBuffer),
                                ctypes.c_int)(("PyObject_GetBuffer", ctypes.pythonapi))
_release_buffer = ctypes.PYFUNCTYPE(None, ctypes.POINTER(_PyBuffer))(
    ("PyBuffer_Release", ctypes.pythonapi))


def _address(contiguous) -> int:
    """The address of the first byte of a C-contiguous buffer, read-only ones
    included (ctypes' from_buffer takes writable ones only).  It stays valid
    while the buffer lives unresized: a memoryview holds its memory exported,
    and nothing here resizes an array or bytearray it passes to C."""
    view = _PyBuffer()
    _get_buffer(contiguous, view, 0)  # PyBUF_SIMPLE
    _release_buffer(view)
    return view.buf or 0


def float64_views(buffers, what, *, writable=False) -> list:
    """Each buffer as a 1-D float64 memoryview (format 'd') that C can use at
    its _address: C-contiguous and aligned, and writable if asked; for
    anything else ValueError says what was wanted.  All checked before C
    reads or writes them."""
    views = []
    for b in buffers:
        try:
            m = memoryview(b)
        except TypeError:
            m = None
        if not (m is not None and m.format == "d" and m.itemsize == 8 and m.ndim == 1
                and not (writable and m.readonly) and m.c_contiguous and _address(m) % 8 == 0):
            raise ValueError(f"{what} must be {'writable, ' if writable else ''}aligned, "
                             f"C-contiguous 1-D float64 buffers")
        views.append(m)
    return views


def _one_length(views, what) -> int:
    lengths = [len(v) for v in views]
    if any(n != lengths[0] for n in lengths):
        raise ValueError(f"{what} differ in length: {lengths}")
    return lengths[0]


def _c_runner(fn):
    """A ctypes wrapper of fn with the Python runners' 21 positional arguments
    and return tuple.  Precondition: floor ** (n + 2) > 0, so that neither
    side divides by zero (see Division above)."""
    fn.argtypes = _ARGTYPES
    fn.restype = ctypes.c_int

    def run(x1, v1, x2, v2, t0, dt, nsteps, k, alpha, n, A, beta,
            floor, exit_radius, e0, rec_stride, rec_t, rec_x1, rec_v1, rec_x2, rec_v2):
        views = float64_views((rec_t, rec_x1, rec_v1, rec_x2, rec_v2), "recording buffers",
                               writable=True)
        cap = _one_length(views, "recording buffers")
        out = (_D * 5)()
        counts = (_I * 2)()
        status = fn(x1, v1, x2, v2, t0, dt, nsteps, k, alpha, n, A, beta,
                    floor, exit_radius, e0, rec_stride, cap,
                    *map(_address, views), out, counts)
        return status, counts[0], out[0], out[1], out[2], out[3], out[4], counts[1]

    return run


def _c_derived_column(fn):
    """A ctypes wrapper of fn with derived_column's arguments and return."""
    fn.argtypes = [ctypes.c_void_p] * 4 + [_I, _D, _D, _I, _D, _D, _I, ctypes.c_void_p]
    fn.restype = None

    def derived_column(x1, v1, x2, v2, k, alpha, n, A, beta, name):
        which = _which(name)
        states = float64_views((x1, v1, x2, v2), "states")
        (out,) = float_buffers(1, _one_length(states, "states"))
        fn(*map(_address, states), len(out), k, alpha, n, A, beta, which, _address(out))
        return out.toreadonly()

    return derived_column


# The longest repr of a float64 ("-2.2250738585072014e-308") is 24 bytes; a
# cell adds its ',' or newline.  _kernels.c holds the same bound as
# CELL_BYTES, and its format_rows refuses a buffer of fewer bytes a cell.
_CELL_BYTES = 25


@functools.cache
def _ryu_tables():
    """Ryu's 128-bit multipliers as uint64 arrays of (low, high) word pairs,
    exact from Python ints: 2**(bitlen(5**i) - 1 + 125) // 5**i + 1 for
    i < 342, and 5**i scaled to 125 bits for i < 326.  Built on the first C
    format."""
    from array import array

    inverse, power = [], []
    for i in range(342):
        p = 5**i
        bits = p.bit_length()
        inverse.append((1 << (bits - 1 + 125)) // p + 1)
        if i < 326:
            power.append(p << (125 - bits) if bits < 125 else p >> (bits - 125))
    mask = (1 << 64) - 1
    return tuple(array("Q", [word for v in table for word in (v & mask, v >> 64)])
                 for table in (inverse, power))


def _c_format_rows(fn):
    """A ctypes wrapper of fn with format_rows's arguments and return."""
    fn.argtypes = [ctypes.c_void_p, _I, _I, _I] + [ctypes.c_void_p] * 3 + [_I]
    fn.restype = _I

    def format_rows(columns, start, stop):
        if not 0 <= start <= stop:
            raise ValueError(f"bad row range {start}..{stop}")
        views = float64_views(columns, "columns")
        if any(len(v) < stop for v in views):
            raise ValueError(f"columns must hold at least {stop} cells")
        inverse, power = _ryu_tables()
        buf = bytearray(_CELL_BYTES * len(views) * (stop - start))
        pointers = (ctypes.c_void_p * len(views))(*map(_address, views))
        size = fn(pointers, len(views), start, stop, _address(inverse), _address(power),
                  _address(buf), len(buf))
        if size < 0:
            raise RuntimeError("format_rows: the text outgrew its buffer")
        return memoryview(buf)[:size].toreadonly()

    return format_rows


def _bind(wrapper, reference):
    """wrapper with reference's name and docstring; reference stays reachable
    as py_func."""
    wrapper.__name__ = wrapper.__qualname__ = reference.__name__
    wrapper.__doc__ = reference.__doc__
    wrapper.py_func = reference
    return wrapper


_LIB = _load(_SOURCE, os.path.join(os.path.dirname(_SOURCE), "__pycache__"))
if _LIB is None:
    BACKEND = "python"
else:
    BACKEND = "c"
    _run_verlet = _bind(_c_runner(_LIB.run_verlet), _run_verlet)
    _run_rk4 = _bind(_c_runner(_LIB.run_rk4), _run_rk4)
    _run_verlet_lanes = _LIB.run_verlet_lanes
    _run_verlet_lanes.argtypes, _run_verlet_lanes.restype = _LANES_ARGTYPES, None
    derived_column = _bind(_c_derived_column(_LIB.derived_column), derived_column)
    format_rows = _bind(_c_format_rows(_LIB.format_rows), format_rows)
