"""Small-oscillation model for the pair held inside the well, plus frequency extraction.

Near the well center the center of mass R and the relative coordinate r
decouple into two oscillators.  The stretch closed form linearizes a
harmonic bond of stiffness k and rest half-length r_eq (r is half the
separation) in the well; it omits the curvature of the short-range
repulsion.  The model's own bond is stiffer: at rest its stiffness is
(n+2)k, so the free pair stretches at sqrt(2(n+2)k), not sqrt(2k).  The
closed forms also drop terms of order beta*r_eq^2, so they are quantitative
only for wells much wider than the pair (beta*r_eq^2 << 1) and qualitative
otherwise.  The equilibrium length fed into them is ambiguous by a factor
of two, so every consumer passes r_eq explicitly and comparisons report
both readings.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from .dynamics import CMState, ModelParams, equilibrium_separation, from_cm
from .integrator import IntegratorConfig, Trajectory, integrate, sample_stride

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "LinearizedParams",
    "WellAbsent",
    "InsufficientOscillations",
    "linearized_frequencies",
    "delta_offset",
    "closed_form_trajectory",
    "dominant_frequency",
    "measured_frequency",
    "in_well_equilibrium_separation",
]


class WellAbsent(UserWarning):
    """Flagged when A = 0 makes an in-well quantity undefined; callers get 0."""


class InsufficientOscillations(RuntimeError):
    """Raised when a series has fewer than 4 crossings about its mean."""

    def __init__(self, crossings: int):
        self.crossings = crossings
        super().__init__(
            f"need at least 4 mean crossings to estimate a frequency, found {crossings}"
        )


@dataclass(frozen=True)
class LinearizedParams:
    """Small-oscillation constants: CM frequency, stretch frequency, offset, and the r_eq used."""

    omega_R: float
    omega_eps: float
    delta: float
    r_eq: float


def _well_curvature(params: ModelParams, r_eq: float) -> float:
    # 2 A beta exp(-beta r_eq^2): the squared CM frequency in the wide-well limit.
    return 2.0 * params.A * params.beta * math.exp(-params.beta * r_eq * r_eq)


def linearized_frequencies(params: ModelParams, r_eq: Optional[float] = None) -> LinearizedParams:
    """Closed-form frequencies omega_R = sqrt(2 A beta e^(-beta r_eq^2)) and
    omega_eps = sqrt(2k + 2 A beta e^(-beta r_eq^2)).

    omega_eps is the stretch frequency of a harmonic bond of stiffness k and
    rest half-length r_eq in the well; it omits the repulsion curvature, so
    it is not the model pair's stretch frequency (sqrt(2(n+2)k) when free).
    r_eq defaults to the free equilibrium separation; pass r_eq/2 for the
    half-separation reading.  omega_eps^2 - omega_R^2 == 2k by construction.
    """
    if r_eq is None:
        r_eq = equilibrium_separation(params)
    q = _well_curvature(params, r_eq)
    omega_r = math.sqrt(q)
    omega_eps = math.sqrt(2.0 * params.k + q)
    if params.A == 0.0:
        delta = 0.0
    else:
        delta = _offset(params, r_eq)
    return LinearizedParams(omega_R=omega_r, omega_eps=omega_eps, delta=delta, r_eq=r_eq)


def _offset(params: ModelParams, r_eq: float) -> float:
    return -r_eq / (1.0 + (params.k / (params.A * params.beta)) * math.exp(params.beta * r_eq * r_eq))


def delta_offset(params: ModelParams, r_eq: Optional[float] = None) -> float:
    """Static shift of the stretch equilibrium inside the well:
    -r_eq / (1 + (k/(A beta)) e^(beta r_eq^2)).

    Negative for an attractive well (the pair shrinks).  With A = 0 the well
    is absent and the offset is undefined; returns 0.0 and warns WellAbsent.
    """
    if r_eq is None:
        r_eq = equilibrium_separation(params)
    if params.A == 0.0:
        warnings.warn("A = 0: no well, stretch offset undefined; returning 0.0", WellAbsent, stacklevel=2)
        return 0.0
    return _offset(params, r_eq)


def closed_form_trajectory(lp: LinearizedParams, initial: CMState, t: float) -> CMState:
    """Evaluate the linearized motion at time t from the given initial condition.

    R oscillates at omega_R about 0; the relative coordinate oscillates at
    omega_eps about lp.r_eq + lp.delta.  With omega_R = 0 (no well) the CM
    drifts freely.  The initial condition is taken at initial.t.
    """
    tau = t - initial.t
    w_r, w_e = lp.omega_R, lp.omega_eps
    if w_r > 0.0:
        c, s = math.cos(w_r * tau), math.sin(w_r * tau)
        R = initial.R * c + (initial.V / w_r) * s
        V = -initial.R * w_r * s + initial.V * c
    else:
        R = initial.R + initial.V * tau
        V = initial.V
    center = lp.r_eq + lp.delta
    eps0 = initial.r - center
    if w_e > 0.0:
        c, s = math.cos(w_e * tau), math.sin(w_e * tau)
        eps = eps0 * c + (initial.w / w_e) * s
        w = -eps0 * w_e * s + initial.w * c
    else:
        eps = eps0 + initial.w * tau
        w = initial.w
    return CMState(t=t, R=R, V=V, r=center + eps, w=w)


def dominant_frequency(ts: np.ndarray, xs: np.ndarray) -> float:
    """Angular frequency from mean-crossing timing.

    Crossings of the series about its mean are located by linear interpolation
    and debounced with a hysteresis band of 5% of the peak deviation, so small
    measurement noise does not register spurious crossings.  The estimate is
    pi over the mean half-period.  Raises InsufficientOscillations when fewer
    than 4 debounced crossings exist.
    """
    import numpy as np

    ts = np.asarray(ts, dtype=float)
    xs = np.asarray(xs, dtype=float)
    if ts.ndim != 1 or ts.shape != xs.shape:
        raise ValueError("ts and xs must be 1-d arrays of equal length")
    if ts.size < 2:
        raise InsufficientOscillations(0)
    d = xs - xs.mean()
    amp = float(np.max(np.abs(d))) if d.size else 0.0
    if amp == 0.0:
        raise InsufficientOscillations(0)
    band = 0.05 * amp

    crossings: list[float] = []
    armed = 0  # sign of the band last left
    last_zero_t = None
    for i in range(1, d.size):
        a, b = d[i - 1], d[i]
        if (a > 0.0 and b <= 0.0) or (a >= 0.0 and b < 0.0) or (a < 0.0 and b >= 0.0) or (a <= 0.0 and b > 0.0):
            if b != a:
                last_zero_t = ts[i - 1] + (ts[i] - ts[i - 1]) * (0.0 - a) / (b - a)
            else:
                last_zero_t = ts[i - 1]
        if b > band:
            if armed == -1 and last_zero_t is not None:
                crossings.append(last_zero_t)
            armed = 1
        elif b < -band:
            if armed == 1 and last_zero_t is not None:
                crossings.append(last_zero_t)
            armed = -1
    if len(crossings) < 4:
        raise InsufficientOscillations(len(crossings))
    half_periods = np.diff(np.asarray(crossings))
    return math.pi / float(half_periods.mean())


def measured_frequency(
    params: ModelParams,
    cm0: CMState,
    cfg: IntegratorConfig,
    t_max: float,
    use_cm_coordinate: bool,
) -> tuple[float, Trajectory]:
    """Integrate from cm0 to t_max, sampling every 0.01 time units, and time
    the mean crossings of R(t) (use_cm_coordinate) or r(t).

    Returns the dominant_frequency estimate and the sampled trajectory.
    """
    stride = sample_stride(0.01, cfg.dt)
    traj = integrate(from_cm(cm0), params, cfg, t_max, record_every=stride).trajectory
    series = traj.R if use_cm_coordinate else traj.r
    return dominant_frequency(traj.t, series), traj


def in_well_equilibrium_separation(params: ModelParams) -> float:
    """Separation minimizing the full potential for the pair centered in the well.

    Solves k s - n alpha / s^(n+1) + A beta s e^(-beta s^2 / 4) = 0 by
    bisection.  For A > 0 the root sits below the free equilibrium (the pair
    shrinks inside the well); for A = 0 it is the free equilibrium itself.
    """
    s_free = equilibrium_separation(params)
    if params.A == 0.0:
        return s_free

    def net(s: float) -> float:
        return (
            params.k * s
            - params.n * params.alpha / s ** (params.n + 1)
            + params.A * params.beta * s * math.exp(-params.beta * s * s / 4.0)
        )

    hi = s_free
    if net(hi) < 0.0:
        # Repulsive bump (A < 0): the pair dilates instead; search upward.
        while net(hi) < 0.0:
            hi *= 2.0
            if hi > 1e6 * s_free:
                raise ValueError("no in-well equilibrium found; external term dominates")
        lo = hi / 2.0
    else:
        lo = hi / 2.0
        while net(lo) > 0.0:
            lo *= 0.5
            if lo < 1e-12 * s_free:
                raise ValueError("no in-well equilibrium found; repulsion never balances")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if net(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
