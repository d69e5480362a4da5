"""Fixed-step time integration with declarative, always-bounded stop conditions.

VelocityVerlet is the production scheme (symplectic, second order, one force
evaluation per step).  RK4 is carried as an independent cross-check: same
trajectories to O(dt^2) accuracy, entirely different arithmetic, no shared
update code.  Both run at fixed dt so results are bitwise reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Iterable, Optional, Union

import numpy as np

from . import _kernels
from .dynamics import (
    DEFAULT_COINCIDENCE_FLOOR,
    CoincidentParticles,
    ModelParams,
    State,
    total_energy,
)

__all__ = [
    "Scheme",
    "IntegratorConfig",
    "TimeLimit",
    "ExitRadius",
    "Composite",
    "StopReason",
    "StepBudgetExhausted",
    "Trajectory",
    "IntegrationDiagnostics",
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
    """max_steps hit before any stop predicate fired.

    Distinct from a legitimate TimeLimit stop: hitting the budget means the
    caller's stop condition never triggered within the allotted work.
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
        if not (isinstance(self.max_steps, int) and self.max_steps > 0):
            raise ValueError(f"max_steps must be a positive integer, got {self.max_steps!r}")
        if not (self.coincidence_floor >= 0.0):
            raise ValueError(f"coincidence_floor must be >= 0, got {self.coincidence_floor!r}")


@dataclass(frozen=True)
class TimeLimit:
    """Stop once state.t reaches this absolute time."""

    t_max: float

    def __post_init__(self):
        if not math.isfinite(self.t_max):
            raise ValueError(f"t_max must be finite, got {self.t_max!r}")


@dataclass(frozen=True)
class ExitRadius:
    """Stop once |R| >= radius with the center of mass moving outward (R*V > 0)."""

    radius: float

    def __post_init__(self):
        if not (self.radius > 0.0 and math.isfinite(self.radius)):
            raise ValueError(f"radius must be positive and finite, got {self.radius!r}")


@dataclass(frozen=True)
class Composite:
    """Any-of combination of stop conditions."""

    conditions: tuple

    def __init__(self, conditions: Iterable):
        object.__setattr__(self, "conditions", tuple(conditions))


StopCondition = Union[TimeLimit, ExitRadius, Composite]


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
class IntegrationDiagnostics:
    steps: int
    energy_initial: float
    # Peak of |E(t) - E(0)| / |E(0)| sampled after every step.  NaN when a
    # custom acceleration hook is active (model energy is not meaningful then).
    max_energy_drift: float
    trajectory: Optional[Trajectory] = None


@dataclass(frozen=True)
class IntegrationResult:
    final: State
    reason: StopReason
    diagnostics: IntegrationDiagnostics


def _normalize_stop(stop: StopCondition) -> tuple[Optional[float], Optional[float]]:
    """Flatten a stop condition into (t_limit, exit_radius), each minimal or None."""
    t_limit: Optional[float] = None
    radius: Optional[float] = None
    queue = [stop]
    while queue:
        cond = queue.pop()
        if isinstance(cond, TimeLimit):
            t_limit = cond.t_max if t_limit is None else min(t_limit, cond.t_max)
        elif isinstance(cond, ExitRadius):
            radius = cond.radius if radius is None else min(radius, cond.radius)
        elif isinstance(cond, Composite):
            queue.extend(cond.conditions)
        else:
            raise TypeError(f"not a stop condition: {cond!r}")
    return t_limit, radius


def _steps_to_reach(t0: float, t_limit: float, dt: float) -> int:
    """Smallest step count i with t0 + i*dt >= t_limit, robust to last-bit slop."""
    ratio = (t_limit - t0) / dt
    if ratio <= 0.0:
        return 0
    return int(math.ceil(ratio - max(1e-9, 8e-16 * ratio)))


def step(
    state: State,
    params: ModelParams,
    cfg: IntegratorConfig,
    accel_fn: Optional[AccelFn] = None,
) -> State:
    """Advance one fixed step of cfg.dt under cfg.scheme: a one-step integrate.

    The step runs from t = 0 and the result carries state.t + cfg.dt, because
    at a large state.t the rounding of t + dt can make TimeLimit ask for two
    steps.  accel_fn is as in integrate.
    """
    result = integrate(replace(state, t=0.0), params, cfg, TimeLimit(cfg.dt), accel_fn=accel_fn)
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
    stop: StopCondition,
    *,
    record_every: Optional[int] = None,
    accel_fn: Optional[AccelFn] = None,
) -> IntegrationResult:
    """Run fixed steps until a stop predicate fires.

    Stop predicates are evaluated after each step; cfg.max_steps always bounds
    the run, and hitting it without a predicate firing raises
    StepBudgetExhausted.  A separation below cfg.coincidence_floor raises
    CoincidentParticles.  record_every=m keeps every m-th step in the returned
    trajectory (plus the initial and final points); note m=1 on a long run
    stores five float64 arrays of one entry per step.  accel_fn, when given,
    replaces the model forces entirely (testing seam); it maps (x1, x2) ->
    (a1, a2), and the energy drift of such a run is NaN.

    Results are bitwise deterministic for identical inputs and configuration.
    """
    t_limit, exit_radius = _normalize_stop(stop)
    n_time = None if t_limit is None else _steps_to_reach(state.t, t_limit, cfg.dt)
    if n_time is None:
        n_limit = cfg.max_steps
    else:
        n_limit = min(n_time, cfg.max_steps)
    time_binds = n_time is not None and n_time <= cfg.max_steps

    stride = 0
    if record_every is not None:
        if not (isinstance(record_every, int) and record_every >= 1):
            raise ValueError(f"record_every must be a positive integer, got {record_every!r}")
        stride = record_every

    # recording buffers for t, x1, v1, x2, v2
    rec = [np.empty(n_limit // stride + 1 if stride > 0 else 0) for _ in _COLUMNS]

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

    diag = IntegrationDiagnostics(
        steps=steps,
        energy_initial=e0,
        max_energy_drift=rel_drift,
        trajectory=trajectory,
    )

    if status == _kernels.STATUS_EXIT:
        return IntegrationResult(final=final, reason=StopReason.EXIT_RADIUS, diagnostics=diag)
    # Ran every allotted step without a predicate firing.
    if time_binds and steps == n_limit:
        return IntegrationResult(final=final, reason=StopReason.TIME_LIMIT, diagnostics=diag)
    raise StepBudgetExhausted(steps)


_COLUMNS = ("t", "x1", "v1", "x2", "v2")


def _assemble_trajectory(initial, final, steps, stride, nrec, rec):
    """The initial point, the nrec recorded steps, and the final point unless
    the last step fell on the stride and was recorded already."""
    with_final = steps % stride != 0
    columns = []
    for name, recorded in zip(_COLUMNS, rec):
        tail = [getattr(final, name)] if with_final else []
        columns.append(np.concatenate(([getattr(initial, name)], recorded[:nrec], tail)))
    return Trajectory(*columns)
