"""Fixed-step time integration to a time horizon or an exit radius, always
bounded by a step budget.

VelocityVerlet is the production scheme (symplectic, second order, one force
evaluation per step).  RK4 is carried as an independent cross-check: same
trajectories to O(dt^2) accuracy, entirely different arithmetic.  The two
share the bookkeeping after each step (drift peak, recording, exit test), not
update code.  Both run at fixed dt so results are bitwise reproducible.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass, replace
from enum import Enum
from typing import TYPE_CHECKING, Callable, Optional

from . import _kernels
from .dynamics import (
    DEFAULT_COINCIDENCE_FLOOR,
    INT64_MAX,
    CoincidentParticles,
    ModelParams,
    State,
    total_energy,
)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Scheme",
    "IntegratorConfig",
    "StopReason",
    "StepBudgetExhausted",
    "Trajectory",
    "IntegrationResult",
    "step",
    "integrate",
]

AccelFn = Callable[[float, float], tuple[float, float]]


class Scheme(Enum):
    VELOCITY_VERLET = "VelocityVerlet"
    RK4 = "RK4"


class StopReason(Enum):
    TIME_LIMIT = "TimeLimit"
    EXIT_RADIUS = "ExitRadius"


class StepBudgetExhausted(RuntimeError):
    """max_steps hit before the horizon or the exit radius was reached.

    Distinct from a legitimate time-limit stop: hitting the budget means the
    run never reached the stop it was given within the allotted work.
    """

    def __init__(self, steps: int):
        self.steps = steps
        super().__init__(f"step budget exhausted after {steps} steps with no stop predicate satisfied")


@dataclass(frozen=True)
class IntegratorConfig:
    scheme: Scheme = Scheme.VELOCITY_VERLET
    dt: float = 1e-3
    max_steps: int = 10_000_000
    coincidence_floor: float = DEFAULT_COINCIDENCE_FLOOR

    def __post_init__(self):
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise ValueError(f"dt must be positive and finite, got {self.dt!r}")
        if not (isinstance(self.max_steps, int) and 0 < self.max_steps <= INT64_MAX):
            raise ValueError(f"max_steps must be a positive integer at most 2**63 - 1, "
                             f"got {self.max_steps!r}")
        if not (self.coincidence_floor >= 0.0):
            raise ValueError(f"coincidence_floor must be >= 0, got {self.coincidence_floor!r}")


@dataclass(frozen=True)
class Trajectory:
    """Sampled states: the initial point, every rec-stride-th step, and the final point."""

    t: np.ndarray
    x1: np.ndarray
    v1: np.ndarray
    x2: np.ndarray
    v2: np.ndarray

    def __len__(self) -> int:
        return self.t.shape[0]

    @property
    def R(self) -> np.ndarray:
        return 0.5 * (self.x1 + self.x2)

    @property
    def V(self) -> np.ndarray:
        return 0.5 * (self.v1 + self.v2)

    @property
    def r(self) -> np.ndarray:
        return 0.5 * (self.x2 - self.x1)

    @property
    def w(self) -> np.ndarray:
        return 0.5 * (self.v2 - self.v1)


@dataclass(frozen=True)
class IntegrationResult:
    """How a run ended.  max_energy_drift is the peak of |E(t) - E(0)| / |E(0)|
    sampled after every step, NaN when a custom acceleration hook is active
    (model energy is not meaningful then).  trajectory is None unless the
    run was given record_every."""

    final: State
    reason: StopReason
    steps: int
    max_energy_drift: float
    trajectory: Optional[Trajectory]


def _steps_in(span: float, dt: float) -> float:
    """span / dt; a ValueError that names dt when the quotient overflows."""
    ratio = span / dt
    if ratio == math.inf:
        raise ValueError(f"dt = {dt!r} is too small: {span!r} time units overflow "
                         f"the step count")
    return ratio


def _steps_to_reach(t0: float, t_limit: float, dt: float) -> int:
    """Smallest step count i with t0 + i*dt >= t_limit, robust to last-bit slop."""
    ratio = _steps_in(t_limit - t0, dt)
    if ratio <= 0.0:
        return 0
    return int(math.ceil(ratio - max(1e-9, 8e-16 * ratio)))


def sample_stride(interval: float, dt: float) -> int:
    """The record_every that samples about every interval time units: the
    step count nearest interval / dt, at least 1."""
    return max(1, int(round(_steps_in(interval, dt))))


def step(
    state: State,
    params: ModelParams,
    cfg: IntegratorConfig,
    accel_fn: Optional[AccelFn] = None,
) -> State:
    """Advance one fixed step of cfg.dt under cfg.scheme: a one-step integrate.

    The step runs from t = 0 and the result carries state.t + cfg.dt, because
    at a large state.t the rounding of t + dt can make a horizon of t + dt
    ask for two steps.  accel_fn is as in integrate.
    """
    result = integrate(replace(state, t=0.0), params, cfg, cfg.dt, accel_fn=accel_fn)
    return replace(result.final, t=state.t + cfg.dt)


def _with_nan_factors(accel_fn: AccelFn):
    """Give an (x1, x2) -> (a1, a2) hook the kernels' force signature; its
    Gaussian factors are NaN, as the model energy means nothing under it."""

    def accel(x1, x2, k, alpha, n, A, beta):
        a1, a2 = accel_fn(x1, x2)
        return a1, a2, math.nan, math.nan

    return accel


def integrate(
    state: State,
    params: ModelParams,
    cfg: IntegratorConfig,
    t_max: Optional[float] = None,
    *,
    exit_radius: Optional[float] = None,
    record_every: Optional[int] = None,
    accel_fn: Optional[AccelFn] = None,
) -> IntegrationResult:
    """Run fixed steps until state.t reaches the absolute time t_max, or the
    center of mass is at |R| >= exit_radius moving outward (R*V > 0).

    Both tests run after each step, and either may be None.  cfg.max_steps
    always bounds the run, and hitting it first raises StepBudgetExhausted.
    A separation below cfg.coincidence_floor raises CoincidentParticles.
    record_every=m keeps every m-th step in the returned trajectory (plus the
    initial and final points); note m=1 on a long run stores five float64
    arrays of one entry per step.  accel_fn, when given, replaces the model
    forces entirely (testing seam); it maps (x1, x2) -> (a1, a2), and the
    energy drift of such a run is NaN.

    Results are bitwise deterministic for identical inputs and configuration.
    """
    if t_max is not None and not math.isfinite(t_max):
        raise ValueError(f"t_max must be finite, got {t_max!r}")
    if exit_radius is not None and not (exit_radius > 0.0 and math.isfinite(exit_radius)):
        raise ValueError(f"exit_radius must be positive and finite, got {exit_radius!r}")
    stride = 0
    if record_every is not None:
        if not (isinstance(record_every, int) and 1 <= record_every <= INT64_MAX):
            raise ValueError(f"record_every must be a positive integer at most 2**63 - 1, "
                             f"got {record_every!r}")
        stride = record_every

    n_time = None if t_max is None else _steps_to_reach(state.t, t_max, cfg.dt)
    n_limit = cfg.max_steps if n_time is None else min(n_time, cfg.max_steps)
    time_binds = n_time is not None and n_time <= cfg.max_steps

    rows = n_limit // stride + 1 if stride > 0 else 0
    try:
        rec = _recording_buffers(rows)
    except (OSError, OverflowError) as exc:
        raise ValueError(f"cannot map a recording of {rows} rows at record_every = "
                         f"{stride}: {exc}") from None

    exit_arg = exit_radius if exit_radius is not None else -1.0

    runner = _kernels._run_verlet if cfg.scheme is Scheme.VELOCITY_VERLET else _kernels._run_rk4
    if accel_fn is None:
        e0 = total_energy(state, params, cfg.coincidence_floor)
        hook = ()
    else:
        e0 = math.nan
        # the C runners cannot call back into Python
        runner = getattr(runner, "py_func", runner)
        hook = (_with_nan_factors(accel_fn),)
    status, steps, x1, v1, x2, v2, maxd, nrec = runner(
        state.x1, state.v1, state.x2, state.v2, state.t, cfg.dt, n_limit,
        params.k, params.alpha, params.n, params.A, params.beta,
        cfg.coincidence_floor, exit_arg, e0,
        stride, *rec, *hook,
    )
    if accel_fn is None:
        denom = abs(e0) if abs(e0) > 1e-300 else 1.0
        rel_drift = maxd / denom
    else:
        rel_drift = math.nan

    final = State(t=state.t + steps * cfg.dt, x1=x1, v1=v1, x2=x2, v2=v2)

    if status == _kernels.STATUS_COINCIDENT:
        raise CoincidentParticles(x1, x2, cfg.coincidence_floor)

    trajectory = None
    if stride > 0:
        trajectory = _assemble_trajectory(state, final, steps, stride, nrec, rec)

    if status == _kernels.STATUS_EXIT:
        reason = StopReason.EXIT_RADIUS
    # Ran every allotted step without an exit.
    elif time_binds and steps == n_limit:
        reason = StopReason.TIME_LIMIT
    else:
        raise StepBudgetExhausted(steps)
    return IntegrationResult(final, reason, steps, rel_drift, trajectory)


_COLUMNS = ("t", "x1", "v1", "x2", "v2")


def _recording_buffers(rows: int) -> list:
    """Float64 buffers of rows entries for t, x1, v1, x2, v2, as memoryviews
    over one anonymous private mapping: a page takes memory only once a row
    on it is written, so sizing for the step limit costs nothing up front.
    No rows gives zero-length buffers."""
    if rows == 0:
        return [memoryview(bytearray()).cast("d")] * len(_COLUMNS)
    mapping = mmap.mmap(-1, len(_COLUMNS) * rows * 8, flags=mmap.MAP_PRIVATE)
    whole = memoryview(mapping).cast("d")
    return [whole[i * rows:(i + 1) * rows] for i in range(len(_COLUMNS))]


def _assemble_trajectory(initial, final, steps, stride, nrec, rec):
    """The initial point, the nrec recorded steps, and the final point unless
    the last step fell on the stride and was recorded already, as numpy
    arrays."""
    import numpy as np

    with_final = steps % stride != 0
    columns = []
    for name, recorded in zip(_COLUMNS, rec):
        tail = [getattr(final, name)] if with_final else []
        columns.append(np.concatenate(([getattr(initial, name)], recorded[:nrec], tail)))
    return Trajectory(*columns)
