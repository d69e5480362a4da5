"""Velocity sweeps, boundary zooming, and divergence (chaos) diagnostics.

Grid points are always computed as v_min + i*dv from the integer index, never
by accumulation.  A point's record is run_scattering's OutcomeRecord for that
launch speed, or an Error record when the run fails, so every record is a pure
function of (spec, index).
Workers (threads over the C kernel, forked processes over the Python
reference) only change wall time: results are collected by index, so sweep
output is identical for 1, 4, or N workers.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields, replace
from functools import partial
from typing import TYPE_CHECKING, Optional

from . import _kernels
from .dynamics import CoincidentParticles, ModelParams
from .integrator import IntegratorConfig, StepBudgetExhausted, integrate, sample_stride
from .scattering import Outcome, OutcomeRecord, Scenario, initial_state, run_scattering

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "SweepSpec",
    "ZoomRow",
    "DivergenceReport",
    "grid_size",
    "grid_v0",
    "sweep",
    "zoom",
    "sensitivity",
]

# The most grid points a SweepSpec, or one zoom level, may hold; both list
# every launch speed before the first point runs.
MAX_GRID_POINTS = 10**7


@dataclass(frozen=True)
class SweepSpec:
    """A family of scattering scenarios differing only in launch speed.

    The launch settings are Scenario's, which checks them.
    """

    params: ModelParams
    v_min: float = 0.05
    v_max: float = 0.30
    dv: float = 0.001
    launch_offset: float = Scenario.launch_offset
    separation: Optional[float] = Scenario.separation
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
        self.scenario(self.v_min)

    def scenario(self, v0: float) -> Scenario:
        """The scenario at launch speed v0; every other Scenario field is this spec's."""
        return Scenario(v0=v0, **{f.name: getattr(self, f.name)
                                  for f in fields(Scenario) if f.name != "v0"})


@dataclass(frozen=True)
class ZoomRow:
    """A sweep record tagged with its refinement depth; interval is the parent
    grid pair it refines (None at depth 0)."""

    depth: int
    interval: Optional[tuple[float, float]]
    record: OutcomeRecord


def grid_size(spec: SweepSpec) -> int:
    """Number of grid points; the interval count tolerates last-bit slop in
    (v_max - v_min)/dv so intended endpoints are included."""
    ratio = (spec.v_max - spec.v_min) / spec.dv
    return int(math.floor(ratio + max(1e-9, 4e-12 * ratio))) + 1


def grid_v0(spec: SweepSpec, i: int) -> float:
    return spec.v_min + i * spec.dv


def _classify_point(spec: SweepSpec, v0: float) -> OutcomeRecord:
    try:
        return run_scattering(spec.scenario(v0), spec.cfg)
    except (CoincidentParticles, StepBudgetExhausted) as exc:
        return OutcomeRecord(
            v0=v0,
            outcome=Outcome.ERROR,
            v_final=math.nan,
            t_end=math.nan,
            energy_drift=math.nan,
            steps=getattr(exc, "steps", 0),
            error=type(exc).__name__,
        )


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_points(spec: SweepSpec, v0s: list[float], workers: int) -> list[OutcomeRecord]:
    if not (isinstance(workers, int) and workers >= 1):
        raise ValueError(f"workers must be a positive integer, got {workers!r}")
    # a process pool starts all of its workers at once, so never ask for more
    # than there are points or CPUs
    size = min(workers, len(v0s), _usable_cpus())
    if size <= 1:
        return [_classify_point(spec, v0) for v0 in v0s]
    # imported here: the pools cost every other import of the package
    if _kernels.BACKEND == "c":
        # ctypes releases the GIL for each whole C run and the C kernel keeps
        # no mutable state, so threads run points in parallel with no fork,
        # no pickling and no worker start-up.
        from concurrent.futures import ThreadPoolExecutor

        executor = ThreadPoolExecutor(max_workers=size)
    else:
        # the Python reference holds the GIL, so only processes run it in
        # parallel; fork starts them without re-importing the package.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        executor = ProcessPoolExecutor(max_workers=size,
                                       mp_context=multiprocessing.get_context("fork"))
    # map() preserves order
    with executor as pool:
        return list(pool.map(partial(_classify_point, spec), v0s))


def sweep(spec: SweepSpec, workers: int = 1) -> list[OutcomeRecord]:
    """Classify every grid point v_min + i*dv.

    Per-point integration failures become Outcome.ERROR rows; they never abort
    the sweep.  The result is byte-identical for any worker count; workers < 1
    raises ValueError.
    """
    n = grid_size(spec)
    v0s = [grid_v0(spec, i) for i in range(n)]
    return _run_points(spec, v0s, workers)


def zoom(
    spec: SweepSpec,
    refinement_factor: int = 5,
    depth: int = 1,
    workers: int = 1,
) -> list[ZoomRow]:
    """Sweep, then recursively re-sweep every interval whose endpoints changed
    outcome class at dv/refinement_factor per level.

    Returns all levels' rows, depth 0 first; endpoint records are reused from
    the parent level verbatim, so a grid point shared between depths carries
    the identical record at both.  A level of more than MAX_GRID_POINTS points
    raises ValueError before its grid is listed.
    """
    if not (isinstance(refinement_factor, int) and refinement_factor >= 2):
        raise ValueError(f"refinement_factor must be an integer >= 2, got {refinement_factor!r}")
    if not (isinstance(depth, int) and depth >= 0):
        raise ValueError(f"depth must be a non-negative integer, got {depth!r}")

    base = sweep(spec, workers=workers)
    rows = [ZoomRow(depth=0, interval=None, record=rec) for rec in base]
    frontier: list[tuple[list[OutcomeRecord], float]] = [(base, spec.dv)]

    for level in range(1, depth + 1):
        # (lo record, hi record, sub grid spacing) per class-changing interval
        intervals: list[tuple[OutcomeRecord, OutcomeRecord, float]] = []
        for records, dv in frontier:
            sub_dv = dv / refinement_factor
            for lo, hi in zip(records, records[1:]):
                if lo.outcome != hi.outcome:
                    intervals.append((lo, hi, sub_dv))
        if not intervals:
            break
        count = len(intervals) * (refinement_factor - 1)
        if count > MAX_GRID_POINTS:
            raise ValueError(f"zoom depth {level}: {len(intervals)} class-changing intervals "
                             f"at factor {refinement_factor} give {count} points, "
                             f"more than {MAX_GRID_POINTS}")
        v0s = [
            lo.v0 + j * sub_dv
            for lo, _, sub_dv in intervals
            for j in range(1, refinement_factor)
        ]
        interior = _run_points(spec, v0s, workers)
        next_frontier: list[tuple[list[OutcomeRecord], float]] = []
        per_interval = refinement_factor - 1
        for ordinal, (lo, hi, sub_dv) in enumerate(intervals):
            inner = interior[ordinal * per_interval : (ordinal + 1) * per_interval]
            sub_records = [lo, *inner, hi]
            rows.extend(
                ZoomRow(depth=level, interval=(lo.v0, hi.v0), record=rec) for rec in sub_records
            )
            next_frontier.append((sub_records, sub_dv))
        frontier = next_frontier
    return rows


@dataclass(frozen=True)
class DivergenceReport:
    """Phase-space separation of two runs d(t) plus a finite-time exponent fit.

    The metric is the Euclidean distance over (x1, x2, v1, v2).  The exponent
    is the least-squares slope of ln d(t) between the first sample with
    d > 10*seed_delta and the first with d > 0.01*scale; when either bound is
    never reached, or d never grows a hundredfold, the motion is flagged
    degenerate (non-chaotic) and lambda_ is None.
    """

    times: np.ndarray
    distances: np.ndarray
    seed_delta: float
    lambda_: Optional[float]
    degenerate: bool
    window: Optional[tuple[float, float]]
    t_first_unit: Optional[float]
    scale: float
    sample_interval: float
    metric: str = "euclidean(x1, x2, v1, v2)"


def sensitivity(
    sc: Scenario,
    cfg: IntegratorConfig,
    seed_delta: float = 1e-9,
    sample_interval: float = 1.0,
    scale: float = 1.0,
) -> DivergenceReport:
    """Integrate the scenario and a twin with launch speed v0 + seed_delta to
    t_max (no exit stop; escaped pairs keep flying) and report d(t).

    Both runs share dt and horizon so samples align exactly.
    """
    import numpy as np

    if not (seed_delta >= 0.0 and math.isfinite(seed_delta)):
        raise ValueError(f"seed_delta must be >= 0, got {seed_delta!r}")
    if not (sample_interval > 0.0 and math.isfinite(sample_interval)):
        raise ValueError(f"sample_interval must be positive and finite, got {sample_interval!r}")
    stride = sample_stride(sample_interval, cfg.dt)

    state_a = initial_state(sc)
    state_b = initial_state(replace(sc, v0=sc.v0 + seed_delta))
    ta = integrate(state_a, sc.params, cfg, sc.t_max, record_every=stride).trajectory
    tb = integrate(state_b, sc.params, cfg, sc.t_max, record_every=stride).trajectory

    times = ta.t
    d = np.sqrt(
        (ta.x1 - tb.x1) ** 2
        + (ta.x2 - tb.x2) ** 2
        + (ta.v1 - tb.v1) ** 2
        + (ta.v2 - tb.v2) ** 2
    )

    def first_above(threshold: float) -> Optional[int]:
        idx = np.nonzero(d > threshold)[0]
        return int(idx[0]) if idx.size else None

    t_first_unit = None
    i_unit = first_above(1.0)
    if i_unit is not None:
        t_first_unit = float(times[i_unit])

    lam: Optional[float] = None
    window: Optional[tuple[float, float]] = None
    degenerate = True
    if seed_delta > 0.0 and float(d.max(initial=0.0)) > 100.0 * seed_delta:
        lo = first_above(10.0 * seed_delta)
        hi = first_above(0.01 * scale)
        if lo is not None and hi is not None and hi > lo:
            seg_t = times[lo : hi + 1]
            seg_d = d[lo : hi + 1]
            mask = seg_d > 0.0
            if int(mask.sum()) >= 2:
                coeffs = np.polyfit(seg_t[mask], np.log(seg_d[mask]), 1)
                lam = float(coeffs[0])
                window = (float(seg_t[0]), float(seg_t[-1]))
                degenerate = False

    return DivergenceReport(
        times=times,
        distances=d,
        seed_delta=seed_delta,
        lambda_=lam,
        degenerate=degenerate,
        window=window,
        t_first_unit=t_first_unit,
        scale=scale,
        sample_interval=sample_interval,
    )
