"""Hot-loop integration kernels.

The same source runs compiled under numba when it is installed and as plain
Python otherwise (the decorator degrades to a no-op).  No test compares the
compiled and the plain-Python results bit for bit.

Each formula has one home:

  force   _accel.  dynamics.accelerations is the floor check plus _accel.
  step    _run_verlet and _run_rk4.  integrator.step is a one-step
          integrate, and a custom force (integrator's accel_fn) enters the
          same runners as their trailing accel argument.
  energy  pair_energy, used by dynamics.total_energy and by the E column of
          `kinktrap simulate`.  Each runner repeats it inline, because in
          plain Python a call per step costs about 6% of a Verlet step; a
          parity test pins the inline copies to pair_energy bit for bit.

Status codes returned by the runners:
  0  completed the requested number of steps
  1  exit-radius predicate fired
  2  separation fell below the coincidence floor; the runner returns the
     positions (and velocities) of the step or RK4 stage that breached it
"""

from __future__ import annotations

import math

try:
    from numba import njit

    NUMBA_ENABLED = True
except ImportError:  # pragma: no cover - exercised only without numba
    NUMBA_ENABLED = False

    def njit(*args, **kwargs):
        if len(args) == 1 and callable(args[0]) and not kwargs:
            return args[0]

        def decorate(fn):
            return fn

        return decorate


STATUS_RAN_ALL = 0
STATUS_EXIT = 1
STATUS_COINCIDENT = 2


@njit(cache=True)
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
    Gaussian factors g = exp(-beta x^2).  Works on floats and numpy arrays."""
    sep = abs(dx)
    p = 1.0
    for _ in range(n):
        p *= sep
    # kinetic + spring + repulsion + well in one expression, so numpy reuses
    # its temporaries on arrays; the well terms are paired before the grand
    # total so particle exchange is exact
    return 0.5 * (v1 * v1 + v2 * v2) + 0.5 * k * dx * dx + alpha / p + ((-A * g1) + (-A * g2))


@njit(cache=True)
def _run_verlet(
    x1, v1, x2, v2, t0, dt, nsteps,
    k, alpha, n, A, beta,
    floor, exit_radius, e0,
    rec_stride, rec_t, rec_x1, rec_v1, rec_x2, rec_v2, accel=_accel,
):
    """Velocity Verlet (kick-drift-kick), fixed step, force reused across steps.

    exit_radius <= 0 disables the escape predicate; rec_stride <= 0 disables
    recording; accel has _accel's signature and return.  Returns (status,
    steps, x1, v1, x2, v2, max_abs_drift, nrec).  The energy below is
    pair_energy written inline.
    """
    maxd = 0.0
    nrec = 0
    steps = 0
    dx = x1 - x2
    if abs(dx) < floor:
        return STATUS_COINCIDENT, steps, x1, v1, x2, v2, maxd, nrec
    a1, a2, g1, g2 = accel(x1, x2, k, alpha, n, A, beta)
    h2 = 0.5 * dt
    status = STATUS_RAN_ALL
    for i in range(nsteps):
        v1 += h2 * a1
        v2 += h2 * a2
        x1 += dt * v1
        x2 += dt * v2
        dx = x1 - x2
        sep = abs(dx)
        if sep < floor:
            return STATUS_COINCIDENT, i + 1, x1, v1, x2, v2, maxd, nrec
        a1, a2, g1, g2 = accel(x1, x2, k, alpha, n, A, beta)
        v1 += h2 * a1
        v2 += h2 * a2
        steps = i + 1
        p = 1.0
        for _ in range(n):
            p *= sep
        kinetic = 0.5 * (v1 * v1 + v2 * v2)
        spring = 0.5 * k * dx * dx
        repulsion = alpha / p
        well = (-A * g1) + (-A * g2)
        e = kinetic + spring + repulsion + well
        d = abs(e - e0)
        if d > maxd:
            maxd = d
        if rec_stride > 0 and steps % rec_stride == 0 and nrec < rec_t.shape[0]:
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
                status = STATUS_EXIT
                break
    return status, steps, x1, v1, x2, v2, maxd, nrec


@njit(cache=True)
def _run_rk4(
    x1, v1, x2, v2, t0, dt, nsteps,
    k, alpha, n, A, beta,
    floor, exit_radius, e0,
    rec_stride, rec_t, rec_x1, rec_v1, rec_x2, rec_v2, accel=_accel,
):
    """Classical RK4 on (x1, v1, x2, v2); cross-check scheme, not symplectic.

    Arguments and return as _run_verlet.
    """
    maxd = 0.0
    nrec = 0
    steps = 0
    if abs(x1 - x2) < floor:
        return STATUS_COINCIDENT, steps, x1, v1, x2, v2, maxd, nrec
    h2 = 0.5 * dt
    status = STATUS_RAN_ALL
    for i in range(nsteps):
        a1, b1, _, _ = accel(x1, x2, k, alpha, n, A, beta)
        xa1 = x1 + h2 * v1
        xa2 = x2 + h2 * v2
        va1 = v1 + h2 * a1
        va2 = v2 + h2 * b1
        if abs(xa1 - xa2) < floor:
            return STATUS_COINCIDENT, i + 1, xa1, va1, xa2, va2, maxd, nrec
        a2_, b2, _, _ = accel(xa1, xa2, k, alpha, n, A, beta)
        xb1 = x1 + h2 * va1
        xb2 = x2 + h2 * va2
        vb1 = v1 + h2 * a2_
        vb2 = v2 + h2 * b2
        if abs(xb1 - xb2) < floor:
            return STATUS_COINCIDENT, i + 1, xb1, vb1, xb2, vb2, maxd, nrec
        a3, b3, _, _ = accel(xb1, xb2, k, alpha, n, A, beta)
        xc1 = x1 + dt * vb1
        xc2 = x2 + dt * vb2
        vc1 = v1 + dt * a3
        vc2 = v2 + dt * b3
        if abs(xc1 - xc2) < floor:
            return STATUS_COINCIDENT, i + 1, xc1, vc1, xc2, vc2, maxd, nrec
        a4, b4, _, _ = accel(xc1, xc2, k, alpha, n, A, beta)
        sixth = dt / 6.0
        x1 = x1 + sixth * (v1 + 2.0 * va1 + 2.0 * vb1 + vc1)
        x2 = x2 + sixth * (v2 + 2.0 * va2 + 2.0 * vb2 + vc2)
        v1 = v1 + sixth * (a1 + 2.0 * a2_ + 2.0 * a3 + a4)
        v2 = v2 + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
        dx = x1 - x2
        sep = abs(dx)
        if sep < floor:
            return STATUS_COINCIDENT, i + 1, x1, v1, x2, v2, maxd, nrec
        steps = i + 1
        p = 1.0
        for _ in range(n):
            p *= sep
        g1 = math.exp(-beta * x1 * x1)
        g2 = math.exp(-beta * x2 * x2)
        kinetic = 0.5 * (v1 * v1 + v2 * v2)
        spring = 0.5 * k * dx * dx
        repulsion = alpha / p
        well = (-A * g1) + (-A * g2)
        e = kinetic + spring + repulsion + well
        d = abs(e - e0)
        if d > maxd:
            maxd = d
        if rec_stride > 0 and steps % rec_stride == 0 and nrec < rec_t.shape[0]:
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
                status = STATUS_EXIT
                break
    return status, steps, x1, v1, x2, v2, maxd, nrec
