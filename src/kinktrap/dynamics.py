"""Forces, energy, and coordinate transforms for the bound pair in a Gaussian well.

Two unit-mass particles on a line are bonded by a harmonic spring plus a
short-range power-law repulsion, and both feel a finite attractive Gaussian
well centered at the origin.  Sign convention: the external potential energy
is U_ext(x) = -A exp(-beta x^2), so A > 0 means attractive and the external
force is F(x) = -2 A beta x exp(-beta x^2), pointing toward the origin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import _kernels

__all__ = [
    "ModelParams",
    "State",
    "CMState",
    "CoincidentParticles",
    "equilibrium_separation",
    "external_force",
    "external_potential",
    "accelerations",
    "total_energy",
    "to_cm",
    "from_cm",
]

# Below this separation the repulsion is numerically meaningless; integration
# must abort rather than emit garbage.
DEFAULT_COINCIDENCE_FLOOR = 1e-12

# The largest integer the kernels take (a C int64): step counts, recording
# strides and the repulsion exponent plus two must not exceed it.
INT64_MAX = 2**63 - 1


class CoincidentParticles(RuntimeError):
    """Raised when |x1 - x2| falls below the configured floor."""

    def __init__(self, x1: float, x2: float, floor: float):
        self.x1 = x1
        self.x2 = x2
        self.floor = floor
        super().__init__(
            f"particle separation |{x1!r} - {x2!r}| = {abs(x1 - x2)!r} "
            f"below floor {floor!r}; the repulsive core has been breached"
        )


@dataclass(frozen=True)
class ModelParams:
    """Physical constants of the pair-plus-well model.

    k      spring constant of the bond (> 0)
    alpha  strength of the short-range repulsion (> 0)
    n      repulsion exponent, a small positive integer
    A      well depth; A > 0 is attractive, A = 0 removes the well
    beta   inverse-square well width (> 0)

    All of them are finite, and the free rest length they give is positive
    and finite.
    """

    k: float = 1.0
    alpha: float = 1.0
    n: int = 2
    A: float = 2.0
    beta: float = 1.0

    def __post_init__(self):
        if not (self.k > 0.0 and math.isfinite(self.k)):
            raise ValueError(f"k must be positive and finite, got {self.k!r}")
        if not (self.alpha > 0.0 and math.isfinite(self.alpha)):
            raise ValueError(f"alpha must be positive and finite, got {self.alpha!r}")
        if not (isinstance(self.n, int) and 1 <= self.n <= INT64_MAX - 2):
            raise ValueError(f"n must be an integer >= 1 and at most 2**63 - 3, got {self.n!r}")
        if not (self.beta > 0.0 and math.isfinite(self.beta)):
            raise ValueError(f"beta must be positive and finite, got {self.beta!r}")
        if not math.isfinite(self.A):
            raise ValueError(f"A must be finite, got {self.A!r}")
        r0 = equilibrium_separation(self)
        if not (r0 > 0.0 and math.isfinite(r0)):
            raise ValueError(f"the free rest length (n alpha / k)^(1/(n+2)) must be positive "
                             f"and finite, got {r0!r} for k = {self.k!r}, "
                             f"alpha = {self.alpha!r}, n = {self.n!r}")


@dataclass(frozen=True)
class State:
    """Phase-space point in lab coordinates."""

    t: float
    x1: float
    v1: float
    x2: float
    v2: float


@dataclass(frozen=True)
class CMState:
    """Center-of-mass / relative coordinates.

    R = (x1 + x2)/2 and r = (x2 - x1)/2, so r is HALF the interparticle
    separation; w and V are the matching velocities.
    """

    t: float
    R: float
    V: float
    r: float
    w: float


def equilibrium_separation(params: ModelParams) -> float:
    """Separation where spring pull and core repulsion balance: (n alpha / k)^(1/(n+2))."""
    return (params.n * params.alpha / params.k) ** (1.0 / (params.n + 2))


def external_potential(x: float, params: ModelParams) -> float:
    """Potential energy of one particle in the well: -A exp(-beta x^2)."""
    return -params.A * math.exp(-params.beta * x * x)


def external_force(x: float, params: ModelParams) -> float:
    """Force from the well on a particle at x: -2 A beta x exp(-beta x^2)."""
    return (-2.0 * params.A * params.beta) * x * math.exp(-params.beta * x * x)


def _check_separation(x1: float, x2: float, floor: float) -> None:
    if abs(x1 - x2) < floor:
        raise CoincidentParticles(x1, x2, floor)


def accelerations(
    state: State,
    params: ModelParams,
    coincidence_floor: float = DEFAULT_COINCIDENCE_FLOOR,
) -> tuple[float, float]:
    """Accelerations (a1, a2) for unit masses.

    a1 = -k (x1 - x2) + n alpha (x1 - x2)/|x1 - x2|^(n+2) + F(x1), and a2 is
    the mirror image.  The internal part is computed once and negated so the
    action-reaction pair cancels exactly in floating point.
    """
    _check_separation(state.x1, state.x2, coincidence_floor)
    a1, a2, _, _ = _kernels._accel(
        state.x1, state.x2, params.k, params.alpha, params.n, params.A, params.beta
    )
    return a1, a2


def total_energy(
    state: State,
    params: ModelParams,
    coincidence_floor: float = DEFAULT_COINCIDENCE_FLOOR,
) -> float:
    """Conserved energy: kinetic + spring + repulsion + well terms."""
    _check_separation(state.x1, state.x2, coincidence_floor)
    g1 = math.exp(-params.beta * state.x1 * state.x1)
    g2 = math.exp(-params.beta * state.x2 * state.x2)
    return _kernels.pair_energy(
        state.x1 - state.x2, state.v1, state.v2, g1, g2,
        params.k, params.alpha, params.n, params.A,
    )


def to_cm(state: State) -> CMState:
    """Lab -> center-of-mass/relative coordinates."""
    return CMState(
        t=state.t,
        R=0.5 * (state.x1 + state.x2),
        V=0.5 * (state.v1 + state.v2),
        r=0.5 * (state.x2 - state.x1),
        w=0.5 * (state.v2 - state.v1),
    )


def from_cm(cm: CMState) -> State:
    """Center-of-mass/relative -> lab coordinates; inverse of to_cm to 1 ulp."""
    return State(
        t=cm.t,
        x1=cm.R - cm.r,
        v1=cm.V - cm.w,
        x2=cm.R + cm.r,
        v2=cm.V + cm.w,
    )
