"""Velocity sweeps and divergence (chaos) diagnostics.

Grid points are always computed as v_min + i*dv from the integer index, never
by accumulation.  A point's record is run_scattering's OutcomeRecord for that
launch speed, or an Error record when the run fails, so every record is a pure
function of (spec, index).
Workers only change wall time: results are collected by index, so sweep
output is identical for 1, 4, or N workers.  With one worker each point is
classified in turn; with more, every point is prepared and finished here and
their runs go to _kernels.run_batch at once, which picks the threads or
processes that run them.
"""

from __future__ import annotations

import math
import os

from . import _kernels
from ._record import fields, record, replace
from .dynamics import ModelParams
from .integrator import RUN_ERRORS, IntegratorConfig, integrate, sample_stride
from .scattering import (Outcome, OutcomeRecord, Scenario, _check_exit_radius, _launch,
                         initial_state, run_scattering)

__all__ = [
    "SweepSpec",
    "DivergenceReport",
    "grid_size",
    "grid_v0",
    "sweep",
    "sensitivity",
]

# The most grid points a SweepSpec may hold; sweep lists every launch speed
# before the first point runs.
MAX_GRID_POINTS = 10**7

# The phase-space distance at which sensitivity's twins count as apart: the
# exponent fit ends at 1% of it.
DIVERGENCE_SCALE = 1.0


@record
class SweepSpec:
    """A family of scattering scenarios differing only in launch speed.

    The launch settings are Scenario's, checked up front as run_scattering
    checks them, so a bad exit radius fails before the first point runs.
    """

    params: ModelParams
    v_min: float = 0.05
    v_max: float = 0.30
    dv: float = 0.001
    launch_offset: float = Scenario.launch_offset
    separation: float | None = Scenario.separation
    t_max: float = Scenario.t_max
    exit_radius: float = Scenario.exit_radius
    cfg: IntegratorConfig = IntegratorConfig()

    def __post_init__(self):
        if not (self.v_min > 0.0 and math.isfinite(self.v_min)):
            raise ValueError(f"v_min must be positive and finite, got {self.v_min!r}")
        if not math.isfinite(self.v_max):
            raise ValueError(f"v_max must be finite, got {self.v_max!r}")
        if not (self.v_max >= self.v_min):
            raise ValueError(f"v_max must be >= v_min, got {self.v_max!r} < {self.v_min!r}")
        if not (self.dv > 0.0 and math.isfinite(self.dv)):
            raise ValueError(f"dv must be positive and finite, got {self.dv!r}")
        ratio = (self.v_max - self.v_min) / self.dv
        if ratio > MAX_GRID_POINTS - 1:
            raise ValueError(f"v_min..v_max = {self.v_min!r}..{self.v_max!r} in steps of "
                             f"dv = {self.dv!r} gives {ratio + 1:.3g} grid points, "
                             f"more than {MAX_GRID_POINTS}")
        _check_exit_radius(self.scenario(self.v_min))

    def scenario(self, v0: float) -> Scenario:
        """The scenario at launch speed v0; every other Scenario field is this spec's."""
        return Scenario(v0=v0, **{name: getattr(self, name)
                                  for name in fields(Scenario) if name != "v0"})


def grid_size(spec: SweepSpec) -> int:
    """Number of grid points; the interval count tolerates last-bit slop in
    (v_max - v_min)/dv so intended endpoints are included."""
    ratio = (spec.v_max - spec.v_min) / spec.dv
    return int(math.floor(ratio + max(1e-9, 4e-12 * ratio))) + 1


def grid_v0(spec: SweepSpec, i: int) -> float:
    return spec.v_min + i * spec.dv


def _error_row(v0: float, exc: Exception) -> OutcomeRecord:
    return OutcomeRecord(
        v0=v0,
        outcome=Outcome.ERROR,
        v_final=math.nan,
        t_end=math.nan,
        energy_drift=math.nan,
        steps=getattr(exc, "steps", 0),
        error=type(exc).__name__,
    )


def _classify_point(spec: SweepSpec, v0: float) -> OutcomeRecord:
    try:
        return run_scattering(spec.scenario(v0), spec.cfg)
    except RUN_ERRORS as exc:
        return _error_row(v0, exc)


def _classify_in_batch(spec: SweepSpec, v0s: list, size: int) -> list[OutcomeRecord]:
    """_classify_point at each of v0s, with the runs in one batch on size
    workers.  Each point is prepared and finished as run_scattering does it,
    so each record is _classify_point's."""
    records = [None] * len(v0s)
    launched = []  # (index, runner, runner arguments, finish) of each point that runs
    for i, v0 in enumerate(v0s):
        try:
            launched.append((i, *_launch(spec.scenario(v0), spec.cfg)))
        except RUN_ERRORS as exc:
            records[i] = _error_row(v0, exc)
    runner = launched[0][1] if launched else None  # one scheme, so one runner
    results = _kernels.run_batch(runner, [args for _, _, args, _ in launched], size)
    for (i, _, _, finish), result in zip(launched, results):
        try:
            records[i] = finish(result)
        except RUN_ERRORS as exc:
            records[i] = _error_row(v0s[i], exc)
    return records


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def sweep(spec: SweepSpec, workers: int = 1) -> list[OutcomeRecord]:
    """Classify every grid point v_min + i*dv.

    Per-point integration failures become Outcome.ERROR rows; they never abort
    the sweep.  The result is byte-identical for any worker count; workers < 1
    raises ValueError.
    """
    if not (isinstance(workers, int) and workers >= 1):
        raise ValueError(f"workers must be a positive integer, got {workers!r}")
    v0s = [grid_v0(spec, i) for i in range(grid_size(spec))]
    # never more workers than there are points or CPUs
    size = min(workers, len(v0s), _usable_cpus())
    if size <= 1:
        return [_classify_point(spec, v0) for v0 in v0s]
    return _classify_in_batch(spec, v0s, size)


@record
class DivergenceReport:
    """Phase-space separation of two runs d(t) plus a finite-time exponent fit.

    times and distances are read-only float64 memoryviews (format 'd'), as
    a Trajectory's columns are; np.asarray views either without a copy.  The
    metric is the Euclidean distance over (x1, x2, v1, v2).  The exponent is
    the least-squares slope of ln d(t) between the first sample with
    d > 10*seed_delta and the first with d > 0.01*scale; when either bound is
    never reached, or d never grows a hundredfold, lambda_ is None and the
    motion is flagged degenerate (non-chaotic).  divergence computes d, the
    bounds and the slope.
    """

    times: memoryview
    distances: memoryview
    seed_delta: float
    lambda_: float | None
    window: tuple[float, float] | None
    t_first_unit: float | None
    sample_interval: float

    @property
    def metric(self) -> str:
        """The distance d(t) measures, as the sensitivity CSV names it."""
        return "euclidean(x1, x2, v1, v2)"

    @property
    def degenerate(self) -> bool:
        """No exponent was fitted: the motion reads as non-chaotic."""
        return self.lambda_ is None

    @property
    def scale(self) -> float:
        """The scale whose hundredth ends the exponent fit: DIVERGENCE_SCALE."""
        return DIVERGENCE_SCALE


def divergence(t, a, b, seed_delta):
    """The distance d of twin runs a and b, each given as its (x1, x2, v1,
    v2) columns sampled at times t, and the finite-time exponent fit of
    sensitivity: one pass over the samples, then two over the window.

    d is the square root of the squared differences summed in the order x1,
    x2, v1, v2.  The fit window runs from the first sample with
    d > 10*seed_delta to the first with d > 0.01*DIVERGENCE_SCALE; it forms
    only when seed_delta > 0, the peak of d exceeds 100*seed_delta and the
    end follows the start.  The slope is that of the least-squares line
    through (t, log d) over the window's samples with d > 0, mean-centred in
    two passes, and is fitted only when those samples span time.  Columns of
    unequal length raise ValueError.  Returns (d, unit, fit): d a read-only
    float64 buffer, unit the index of the first sample with d > 1 or None,
    fit (lo, hi, slope) or None.
    """
    (d,) = _kernels.float_buffers(1, len(t))
    unit = lo = hi = -1
    peak = 0.0
    for i, (_, p1, p2, p3, p4, q1, q2, q3, q4) in enumerate(zip(t, *a, *b, strict=True)):
        e1, e2, e3, e4 = p1 - q1, p2 - q2, p3 - q3, p4 - q4
        d[i] = di = math.sqrt(e1 * e1 + e2 * e2 + e3 * e3 + e4 * e4)
        if unit < 0 and di > 1.0:
            unit = i
        if lo < 0 and di > 10.0 * seed_delta:
            lo = i
        if hi < 0 and di > 0.01 * DIVERGENCE_SCALE:
            hi = i
        if di > peak:
            peak = di
    fit = None
    if seed_delta > 0.0 and peak > 100.0 * seed_delta and lo >= 0 and hi > lo:
        window = [i for i in range(lo, hi + 1) if d[i] > 0.0]
        sum_t = sum_y = 0.0
        for i in window:
            sum_t += t[i]
            sum_y += math.log(d[i])
        mean_t, mean_y = sum_t / len(window), sum_y / len(window)
        sxx = sxy = 0.0
        for i in window:
            u = t[i] - mean_t
            sxx += u * u
            sxy += u * (math.log(d[i]) - mean_y)
        if sxx > 0.0:
            fit = (lo, hi, sxy / sxx)
    return d.toreadonly(), (unit if unit >= 0 else None), fit


def sensitivity(
    sc: Scenario,
    cfg: IntegratorConfig,
    seed_delta: float = 1e-9,
    sample_interval: float = 1.0,
) -> DivergenceReport:
    """Integrate the scenario and a twin with launch speed v0 + seed_delta to
    t_max (no exit stop; escaped pairs keep flying) and report d(t).

    Both runs share dt and horizon so samples align exactly.  The scale that
    ends the exponent fit is fixed at DIVERGENCE_SCALE (1.0).
    """
    if not (seed_delta >= 0.0 and math.isfinite(seed_delta)):
        raise ValueError(f"seed_delta must be >= 0 and finite, got {seed_delta!r}")
    if not (sample_interval > 0.0 and math.isfinite(sample_interval)):
        raise ValueError(f"sample_interval must be positive and finite, got {sample_interval!r}")
    stride = sample_stride(sample_interval, cfg.dt)

    state_a = initial_state(sc)
    state_b = initial_state(replace(sc, v0=sc.v0 + seed_delta))
    ta = integrate(state_a, sc.params, cfg, sc.t_max, record_every=stride).trajectory
    tb = integrate(state_b, sc.params, cfg, sc.t_max, record_every=stride).trajectory

    d, unit, fit = divergence(ta.t, (ta.x1, ta.x2, ta.v1, ta.v2),
                              (tb.x1, tb.x2, tb.v1, tb.v2), seed_delta)
    lam = window = None
    if fit is not None:
        lo, hi, lam = fit
        window = (ta.t[lo], ta.t[hi])
    return DivergenceReport(
        times=ta.t,
        distances=d,
        seed_delta=seed_delta,
        lambda_=lam,
        window=window,
        t_first_unit=None if unit is None else ta.t[unit],
        sample_interval=sample_interval,
    )
