"""Deterministic scattering of an internally bound particle pair off an
attractive Gaussian well.

Two unit-mass particles on a line, tied by a spring and kept apart by a
short-range repulsion, are launched at a finite well.  Depending on the launch
speed the pair passes through, bounces back, or is captured, and near the
class boundaries the outcome is chaotically sensitive to the initial speed.
The package provides the dynamics, fixed-step symplectic integration, small
oscillation closed forms, outcome classification, velocity sweeps with
boundary zooming, and divergence diagnostics, plus a CSV-producing command
line tool.  Every result is bitwise reproducible for a given configuration,
independent of worker count.
"""

__version__ = "0.1.0"

from .dynamics import (
    CMState,
    CoincidentParticles,
    ModelParams,
    State,
    accelerations,
    equilibrium_separation,
    external_force,
    external_potential,
    from_cm,
    to_cm,
    total_energy,
)
from .integrator import (
    Composite,
    ExitRadius,
    IntegrationDiagnostics,
    IntegrationResult,
    IntegratorConfig,
    Scheme,
    StepBudgetExhausted,
    StopReason,
    TimeLimit,
    Trajectory,
    integrate,
    step,
)
from .linearized import (
    InsufficientOscillations,
    LinearizedParams,
    WellAbsent,
    closed_form_trajectory,
    delta_offset,
    dominant_frequency,
    in_well_equilibrium_separation,
    linearized_frequencies,
    measured_frequency,
)
from .scattering import (
    Outcome,
    OutcomeRecord,
    Scenario,
    initial_state,
    run_scattering,
)
from .sweep import (
    DivergenceReport,
    SweepRecord,
    SweepSpec,
    ZoomRow,
    grid_size,
    grid_v0,
    sensitivity,
    sweep,
    zoom,
)

__all__ = [
    "__version__",
    "CMState",
    "CoincidentParticles",
    "ModelParams",
    "State",
    "accelerations",
    "equilibrium_separation",
    "external_force",
    "external_potential",
    "from_cm",
    "to_cm",
    "total_energy",
    "Composite",
    "ExitRadius",
    "IntegrationDiagnostics",
    "IntegrationResult",
    "IntegratorConfig",
    "Scheme",
    "StepBudgetExhausted",
    "StopReason",
    "TimeLimit",
    "Trajectory",
    "integrate",
    "step",
    "InsufficientOscillations",
    "LinearizedParams",
    "WellAbsent",
    "closed_form_trajectory",
    "delta_offset",
    "dominant_frequency",
    "in_well_equilibrium_separation",
    "linearized_frequencies",
    "measured_frequency",
    "Outcome",
    "OutcomeRecord",
    "Scenario",
    "initial_state",
    "run_scattering",
    "DivergenceReport",
    "SweepRecord",
    "SweepSpec",
    "ZoomRow",
    "grid_size",
    "grid_v0",
    "sensitivity",
    "sweep",
    "zoom",
]
