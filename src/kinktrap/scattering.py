"""Launch-classify protocol: fire the bound pair at the well, report what came out.

A run starts with the pair at its free equilibrium separation, internally at
rest, far from the well, moving toward it at CM speed v0.  It ends Transmitted
or Reflected when the center of mass recrosses the exit radius moving outward,
or Trapped when t_max elapses first.  Its OutcomeRecord is also the row a sweep
returns for that launch speed; a sweep marks a run that failed with an Error
record instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .dynamics import CMState, ModelParams, State, equilibrium_separation, from_cm
from .integrator import IntegratorConfig, StopReason, Trajectory, integrate

__all__ = ["Scenario", "Outcome", "OutcomeRecord", "initial_state", "run_scattering"]


class Outcome(Enum):
    TRANSMITTED = "Transmitted"
    REFLECTED = "Reflected"
    TRAPPED = "Trapped"
    ERROR = "Error"


@dataclass(frozen=True)
class Scenario:
    """One scattering experiment.

    v0 is the launch speed (positive; the launch side sets the direction).
    separation=None means the free equilibrium separation for params.
    """

    params: ModelParams
    v0: float
    launch_offset: float = -10.0
    separation: Optional[float] = None
    t_max: float = 5000.0
    exit_radius: float = 10.0

    def __post_init__(self):
        if not (self.v0 > 0.0 and math.isfinite(self.v0)):
            raise ValueError(f"v0 must be positive, got {self.v0!r}")
        if not (self.t_max > 0.0 and math.isfinite(self.t_max)):
            raise ValueError(f"t_max must be positive and finite, got {self.t_max!r}")
        if not (self.exit_radius > 0.0):
            raise ValueError(f"exit_radius must be positive, got {self.exit_radius!r}")
        if not math.isfinite(self.launch_offset):
            raise ValueError(f"launch_offset must be finite, got {self.launch_offset!r}")
        if self.launch_offset == 0.0:
            raise ValueError("launch_offset must be nonzero (the pair starts outside the well)")
        if not (self.exit_radius <= abs(self.launch_offset)):
            raise ValueError(
                f"exit_radius ({self.exit_radius!r}) must not exceed |launch_offset| "
                f"({abs(self.launch_offset)!r}); otherwise the launch point is already outside"
            )
        if self.separation is not None and not (self.separation > 0.0
                                                and math.isfinite(self.separation)):
            raise ValueError(f"separation must be positive and finite, got {self.separation!r}")

    @property
    def resolved_separation(self) -> float:
        if self.separation is not None:
            return self.separation
        return equilibrium_separation(self.params)

    @property
    def direction(self) -> float:
        """+1.0 when launched from the negative side (moving right), else -1.0."""
        return 1.0 if self.launch_offset < 0.0 else -1.0


@dataclass(frozen=True)
class OutcomeRecord:
    """Classified scattering result of the launch at speed v0.

    v_final is the signed CM velocity at the exit crossing (0.0 by convention
    for Trapped).  energy_drift is the peak relative energy deviation sampled
    every step.  error holds the failure type name on Outcome.ERROR records,
    whose v_final, t_end and energy_drift are NaN and whose final_state is
    None; it is "" otherwise.  trajectory is the recorded run when
    run_scattering was given record_every, else None.
    """

    v0: float
    outcome: Outcome
    v_final: float
    t_end: float
    energy_drift: float
    steps: int
    error: str = ""
    final_state: Optional[State] = None
    trajectory: Optional[Trajectory] = None


def initial_state(sc: Scenario) -> State:
    """Pair at rest internally, separation as configured, CM at the launch
    offset moving toward the well at speed v0."""
    cm = CMState(
        t=0.0,
        R=sc.launch_offset,
        V=sc.direction * sc.v0,
        r=0.5 * sc.resolved_separation,
        w=0.0,
    )
    return from_cm(cm)


def run_scattering(
    sc: Scenario,
    cfg: IntegratorConfig,
    record_every: Optional[int] = None,
) -> OutcomeRecord:
    """Integrate one scenario to classification.

    Passing record_every attaches the trajectory sampled every record_every
    steps to the record; otherwise nothing is recorded.  Integration
    failures (coincident particles, exhausted step budget) propagate as
    exceptions; sweep-level callers turn them into Error rows.
    """
    result = integrate(
        initial_state(sc),
        sc.params,
        cfg,
        sc.t_max,
        exit_radius=sc.exit_radius,
        record_every=record_every,
    )
    final = result.final
    v_end = 0.5 * (final.v1 + final.v2)

    if result.reason is StopReason.EXIT_RADIUS:
        outward_speed = v_end * sc.direction
        outcome = Outcome.TRANSMITTED if outward_speed > 0.0 else Outcome.REFLECTED
        v_final = v_end
    else:
        outcome = Outcome.TRAPPED
        v_final = 0.0

    return OutcomeRecord(
        v0=sc.v0,
        outcome=outcome,
        v_final=v_final,
        t_end=final.t,
        energy_drift=result.max_energy_drift,
        steps=result.steps,
        final_state=final,
        trajectory=result.trajectory,
    )
