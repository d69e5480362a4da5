"""Fixed-step time integration to a time horizon, or to an exit radius before
it, always bounded by a step budget.

VelocityVerlet is the production scheme (symplectic, second order, one force
evaluation per step).  RK4 is carried as an independent cross-check: same
trajectories to O(dt^2) accuracy, entirely different arithmetic.  The two
share the bookkeeping after each step (drift peak, recording, exit test), not
update code.  Both run at fixed dt so results are bitwise reproducible.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import cached_property

from . import _kernels
from ._record import record
from .dynamics import (
    DEFAULT_COINCIDENCE_FLOOR,
    INT64_MAX,
    CoincidentParticles,
    ModelParams,
    State,
    total_energy,
)

__all__ = [
    "Scheme",
    "IntegratorConfig",
    "StopReason",
    "StepBudgetExhausted",
    "NonFiniteState",
    "Trajectory",
    "IntegrationResult",
    "integrate",
]


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


class NonFiniteState(RuntimeError):
    """The run ended on a state with an infinite or NaN coordinate: the
    arithmetic overflowed, and nothing after that step means anything."""

    def __init__(self, steps: int, state: State):
        self.steps = steps
        super().__init__(f"the state is not finite after {steps} steps: (x1, v1, x2, v2) = "
                         f"{(state.x1, state.v1, state.x2, state.v2)!r}; the arithmetic overflowed")


# The failures that end a run with no result: an Error row in a sweep, and
# exit status 2 from the command line.
RUN_ERRORS = (CoincidentParticles, StepBudgetExhausted, NonFiniteState)


@record
class IntegratorConfig:
    scheme: Scheme = Scheme.VELOCITY_VERLET
    dt: float = 1e-3
    max_steps: int = 10_000_000

    def __post_init__(self):
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise ValueError(f"dt must be positive and finite, got {self.dt!r}")
        if not (isinstance(self.max_steps, int) and 0 < self.max_steps <= INT64_MAX):
            raise ValueError(f"max_steps must be a positive integer at most 2**63 - 1, "
                             f"got {self.max_steps!r}")


def _on_demand(name: str) -> cached_property:
    """A Trajectory's derived column name, computed alone on its first read
    and then kept."""
    def column(self) -> memoryview:
        p = self.params
        return _kernels.derived_column(self.x1, self.v1, self.x2, self.v2,
                                       p.k, p.alpha, p.n, p.A, p.beta, name)

    return cached_property(column)


@record
class Trajectory:
    """Sampled states of a run under params: the initial point, every
    rec-stride-th step, and the final point.

    Each column is a read-only float64 memoryview (format 'd') over the
    run's recording, so arithmetic on one raises TypeError instead of
    concatenating; np.asarray(column) is a numpy view of the same memory,
    without a copy.  The derived columns, R, V, r and w (the center-of-mass
    coordinates) and E (the energy), are buffers of the same kind: the first
    read of one has _kernels.derived_column compute that column alone, and
    the trajectory keeps it, so a column no caller reads takes no memory.
    """

    t: memoryview
    x1: memoryview
    v1: memoryview
    x2: memoryview
    v2: memoryview
    params: ModelParams

    def __len__(self) -> int:
        return len(self.t)

    R = _on_demand("R")
    V = _on_demand("V")
    r = _on_demand("r")
    w = _on_demand("w")
    E = _on_demand("E")


@record
class IntegrationResult:
    """How a run ended.  max_energy_drift is the peak of |E(t) - E(0)| / |E(0)|
    sampled after every step.  trajectory is None unless the run was given
    record_every."""

    final: State
    reason: StopReason
    steps: int
    max_energy_drift: float
    trajectory: Trajectory | None


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


def integrate(
    state: State,
    params: ModelParams,
    cfg: IntegratorConfig,
    t_max: float,
    *,
    exit_radius: float | None = None,
    record_every: int | None = None,
) -> IntegrationResult:
    """Run fixed steps until state.t reaches the absolute time t_max, or
    earlier once the center of mass is at |R| >= exit_radius moving outward
    (R*V > 0).

    The horizon is required; the exit test runs after each step unless
    exit_radius is None.  cfg.max_steps bounds the run, and spending it
    before either stop raises StepBudgetExhausted.
    A separation below DEFAULT_COINCIDENCE_FLOOR raises CoincidentParticles,
    and a run that ends on a state that is not finite (an overflow) raises
    NonFiniteState.
    record_every=m keeps every m-th step in the returned trajectory (plus the
    initial and final points), whose columns are read-only float64
    memoryviews over the one mapping the run recorded into (see Trajectory);
    note m=1 on a long run stores five float64 columns of one entry per step,
    and each derived column that is read one more.

    Results are bitwise deterministic for identical inputs and configuration.
    """
    runner, args, finish = _prepare_run(state, params, cfg, t_max, exit_radius, record_every)
    return finish(runner(*args))


def _prepare_run(
    state: State,
    params: ModelParams,
    cfg: IntegratorConfig,
    t_max: float,
    exit_radius: float | None,
    record_every: int | None,
) -> tuple:
    """integrate, split at its runner call: (runner, args, finish), where
    runner(*args) is the run and finish(its result) is integrate's return.
    A batch runs the args of many runs at once and finishes each one."""
    if not math.isfinite(t_max):
        raise ValueError(f"t_max must be finite, got {t_max!r}")
    if exit_radius is not None and not (exit_radius > 0.0 and math.isfinite(exit_radius)):
        raise ValueError(f"exit_radius must be positive and finite, got {exit_radius!r}")
    stride = 0
    if record_every is not None:
        if not (isinstance(record_every, int) and 1 <= record_every <= INT64_MAX):
            raise ValueError(f"record_every must be a positive integer at most 2**63 - 1, "
                             f"got {record_every!r}")
        stride = record_every

    n_time = _steps_to_reach(state.t, t_max, cfg.dt)
    n_limit = min(n_time, cfg.max_steps)

    rows = n_limit // stride + 1 if stride > 0 else 0
    try:
        # row 0 holds the initial state, the next rows are the runner's, and
        # the row after the last one it recorded holds the final state
        rec = _kernels.float_buffers(len(_COLUMNS), rows + 2 if stride > 0 else 0)
    except (OSError, OverflowError) as exc:
        raise ValueError(f"cannot map a recording of {rows} rows at record_every = "
                         f"{stride}: {exc}") from None
    if stride > 0:
        _put_row(rec, 0, state)

    exit_arg = exit_radius if exit_radius is not None else -1.0

    runner = _kernels._run_verlet if cfg.scheme is Scheme.VELOCITY_VERLET else _kernels._run_rk4
    e0 = total_energy(state, params, DEFAULT_COINCIDENCE_FLOOR)
    args = (state.x1, state.v1, state.x2, state.v2, state.t, cfg.dt, n_limit,
            params.k, params.alpha, params.n, params.A, params.beta,
            DEFAULT_COINCIDENCE_FLOOR, exit_arg, e0,
            stride, *(column[1:-1] for column in rec))

    def finish(result) -> IntegrationResult:
        status, steps, x1, v1, x2, v2, maxd, nrec = result
        denom = abs(e0) if abs(e0) > 1e-300 else 1.0
        rel_drift = maxd / denom

        final = State(t=state.t + steps * cfg.dt, x1=x1, v1=v1, x2=x2, v2=v2)

        if status == _kernels.STATUS_COINCIDENT:
            raise CoincidentParticles(x1, x2, DEFAULT_COINCIDENCE_FLOOR)
        if not all(map(math.isfinite, (x1, v1, x2, v2))):
            raise NonFiniteState(steps, final)

        trajectory = None
        if stride > 0:
            end = 1 + nrec
            if steps % stride != 0:  # the last step was not recorded
                _put_row(rec, end, final)
                end += 1
            trajectory = Trajectory(*(column[:end].toreadonly() for column in rec), params)

        if status == _kernels.STATUS_EXIT:
            reason = StopReason.EXIT_RADIUS
        elif steps == n_time:
            reason = StopReason.TIME_LIMIT
        else:
            raise StepBudgetExhausted(steps)
        return IntegrationResult(final, reason, steps, rel_drift, trajectory)

    return runner, args, finish


_COLUMNS = ("t", "x1", "v1", "x2", "v2")


def _put_row(columns, row: int, state: State) -> None:
    for column, name in zip(columns, _COLUMNS):
        column[row] = getattr(state, name)
