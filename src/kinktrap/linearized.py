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

from . import _kernels
from ._record import record
from .dynamics import CMState, ModelParams, State, accelerations, equilibrium_separation, from_cm
from .integrator import IntegratorConfig, Trajectory, integrate, sample_stride

__all__ = [
    "LinearizedParams",
    "InsufficientOscillations",
    "linearized_frequencies",
    "dominant_frequency",
    "measured_frequency",
    "in_well_equilibrium_separation",
]


class InsufficientOscillations(RuntimeError):
    """Raised when a series has fewer than 4 crossings about its mean."""

    def __init__(self, crossings: int):
        self.crossings = crossings
        super().__init__(
            f"need at least 4 mean crossings to estimate a frequency, found {crossings}"
        )


@record
class LinearizedParams:
    """Small-oscillation constants: CM frequency, stretch frequency, offset, and the r_eq used."""

    omega_R: float
    omega_eps: float
    delta: float
    r_eq: float


def _well_curvature(params: ModelParams, r_eq: float) -> float:
    # 2 A beta exp(-beta r_eq^2): the squared CM frequency in the wide-well limit.
    return 2.0 * params.A * params.beta * math.exp(-params.beta * r_eq * r_eq)


def linearized_frequencies(params: ModelParams, r_eq: float | None = None) -> LinearizedParams:
    """Closed-form frequencies omega_R = sqrt(2 A beta e^(-beta r_eq^2)) and
    omega_eps = sqrt(2k + 2 A beta e^(-beta r_eq^2)), and the static shift of
    the stretch center inside the well, delta = -r_eq / (1 + (k/(A beta))
    e^(beta r_eq^2)): negative for an attractive well (the pair shrinks),
    and 0.0 for A = 0, where no well shifts it.

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
        delta = -r_eq / (1.0 + (params.k / (params.A * params.beta))
                         * math.exp(params.beta * r_eq * r_eq))
    return LinearizedParams(omega_R=omega_r, omega_eps=omega_eps, delta=delta, r_eq=r_eq)


def dominant_frequency(ts, xs) -> float:
    """Angular frequency from mean-crossing timing.

    ts and xs are 1-D float64 buffers of one length (trajectory columns,
    numpy arrays); anything else, a plain list too, raises ValueError.
    Crossings of the series about its fsum mean are located by linear
    interpolation and debounced with a hysteresis band of 5% of the peak
    deviation, so small measurement noise does not register spurious
    crossings.  The estimate is pi over the fsum mean half-period.  Raises
    InsufficientOscillations when fewer than 4 debounced crossings exist.
    """
    views = _kernels.float64_views((ts, xs), "ts and xs")
    if _kernels._one_length(views, "ts and xs") < 2:
        raise InsufficientOscillations(0)
    # the views are iterated as they are: a list of Python floats per column
    # would cost more memory than the columns themselves
    ts, xs = views
    mean = math.fsum(xs) / len(xs)
    amp = max(abs(x - mean) for x in xs)
    if amp == 0.0:
        raise InsufficientOscillations(0)
    band = 0.05 * amp

    crossings: list[float] = []
    armed = 0  # sign of the band last left
    last_zero_t = None
    t_prev, a = ts[0], xs[0] - mean
    for t, x in zip(ts[1:], xs[1:]):
        b = x - mean
        if (a > 0.0 and b <= 0.0) or (a >= 0.0 and b < 0.0) or (a < 0.0 and b >= 0.0) or (a <= 0.0 and b > 0.0):
            if b != a:
                last_zero_t = t_prev + (t - t_prev) * (0.0 - a) / (b - a)
            else:
                last_zero_t = t_prev
        if b > band:
            if armed == -1 and last_zero_t is not None:
                crossings.append(last_zero_t)
            armed = 1
        elif b < -band:
            if armed == 1 and last_zero_t is not None:
                crossings.append(last_zero_t)
            armed = -1
        t_prev, a = t, b
    if len(crossings) < 4:
        raise InsufficientOscillations(len(crossings))
    half_periods = [b - a for a, b in zip(crossings, crossings[1:])]
    return math.pi / (math.fsum(half_periods) / len(half_periods))


def measured_frequency(
    params: ModelParams,
    cm0: CMState,
    cfg: IntegratorConfig,
    t_max: float,
    use_cm_coordinate: bool,
) -> tuple[float, Trajectory]:
    """Integrate from cm0 to t_max, sampling every 0.01 time units, and time
    the mean crossings of R(t) (use_cm_coordinate) or r(t).

    Returns the dominant_frequency estimate and the sampled trajectory.  A
    t_max at or before cm0.t raises ValueError.
    """
    if not t_max > cm0.t:
        raise ValueError(f"t_max must be after the start time {cm0.t!r}, got {t_max!r}")
    stride = sample_stride(0.01, cfg.dt)
    traj = integrate(from_cm(cm0), params, cfg, t_max, record_every=stride).trajectory
    series = traj.R if use_cm_coordinate else traj.r
    return dominant_frequency(traj.t, series), traj


def in_well_equilibrium_separation(params: ModelParams) -> float:
    """Separation minimizing the full potential for the pair centered in the well.

    Solves k s - n alpha / s^(n+1) + A beta s e^(-beta s^2 / 4) = 0, the
    force dynamics.accelerations gives on the left particle of the pair at
    -s/2 and s/2, by bisection of that force.  For A > 0 the root sits below the free equilibrium (the pair
    shrinks inside the well); for A = 0 it is the free equilibrium itself.
    """
    s_free = equilibrium_separation(params)
    if params.A == 0.0:
        return s_free

    def net(s: float) -> float:
        return accelerations(State(0.0, -0.5 * s, 0.0, 0.5 * s, 0.0), params)[0]

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
