"""Forces, energy, and coordinate transforms for the bound pair in a Gaussian well.

Two unit-mass particles on a line are bonded by a harmonic spring plus a
short-range power-law repulsion, and both feel a finite attractive Gaussian
well centered at the origin.  Sign convention: the external potential energy
is U_ext(x) = -A exp(-beta x^2), so A > 0 means attractive and the external
force is F(x) = -2 A beta x exp(-beta x^2), pointing toward the origin.
Both are written once, in _kernels._accel and _kernels.pair_energy.
"""

from __future__ import annotations

import math

from . import _kernels
from ._record import record

__all__ = [
    "ModelParams",
    "State",
    "CMState",
    "CoincidentParticles",
    "equilibrium_separation",
    "accelerations",
    "total_energy",
    "to_cm",
    "from_cm",
]

# Below this separation the repulsion is numerically meaningless; integration
# must abort rather than emit garbage.
DEFAULT_COINCIDENCE_FLOOR = 1e-12

# The largest n for which DEFAULT_COINCIDENCE_FLOOR, multiplied into itself
# n + 2 times as the kernels form the power, stays above zero (1e-312; 0.0 at
# n = 25): no force or energy taken at or above the floor divides by zero.
MAX_EXPONENT = 24

# The largest integer the kernels take (a C int64): step counts and recording
# strides must not exceed it.
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


@record
class ModelParams:
    """Physical constants of the pair-plus-well model.

    k      spring constant of the bond (> 0)
    alpha  strength of the short-range repulsion (> 0)
    n      repulsion exponent, an integer from 1 to MAX_EXPONENT (24)
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
        if not (isinstance(self.n, int) and 1 <= self.n <= MAX_EXPONENT):
            raise ValueError(f"n must be an integer >= 1 and at most {MAX_EXPONENT}, "
                             f"got {self.n!r}")
        if not (self.beta > 0.0 and math.isfinite(self.beta)):
            raise ValueError(f"beta must be positive and finite, got {self.beta!r}")
        if not math.isfinite(self.A):
            raise ValueError(f"A must be finite, got {self.A!r}")
        r0 = equilibrium_separation(self)
        if not (r0 > 0.0 and math.isfinite(r0)):
            raise ValueError(f"the free rest length (n alpha / k)^(1/(n+2)) must be positive "
                             f"and finite, got {r0!r} for k = {self.k!r}, "
                             f"alpha = {self.alpha!r}, n = {self.n!r}")


@record
class State:
    """Phase-space point in lab coordinates."""

    t: float
    x1: float
    v1: float
    x2: float
    v2: float


@record
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


def _check_separation(x1: float, x2: float, floor: float) -> None:
    if abs(x1 - x2) < floor:
        raise CoincidentParticles(x1, x2, floor)


def accelerations(state: State, params: ModelParams) -> tuple[float, float]:
    """Accelerations (a1, a2) for unit masses.

    a1 = -k (x1 - x2) + n alpha (x1 - x2)/|x1 - x2|^(n+2) + F(x1), and a2 is
    the mirror image.  The internal part is computed once and negated so the
    action-reaction pair cancels exactly in floating point.  A separation
    below DEFAULT_COINCIDENCE_FLOOR raises CoincidentParticles.
    """
    _check_separation(state.x1, state.x2, DEFAULT_COINCIDENCE_FLOOR)
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
    return CMState(state.t, *_kernels.cm_coordinates(state.x1, state.v1, state.x2, state.v2))


def from_cm(cm: CMState) -> State:
    """Center-of-mass/relative -> lab coordinates; inverse of to_cm to 1 ulp."""
    return State(
        t=cm.t,
        x1=cm.R - cm.r,
        v1=cm.V - cm.w,
        x2=cm.R + cm.r,
        v2=cm.V + cm.w,
    )
