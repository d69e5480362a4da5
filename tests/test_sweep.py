"""Sweep grid semantics, worker invariance, zoom bookkeeping, divergence reports."""

import concurrent.futures
import importlib
import math
import multiprocessing
import os
import tracemalloc

import numpy as np
import pytest

from kinktrap import (
    IntegratorConfig,
    ModelParams,
    Outcome,
    Scenario,
    SweepSpec,
    grid_size,
    grid_v0,
    run_scattering,
    sensitivity,
    sweep,
    zoom,
)
from kinktrap import _kernels
from kinktrap.sweep import MAX_GRID_POINTS

# the module, which the package's `sweep` function shadows as an attribute
sweep_module = importlib.import_module("kinktrap.sweep")


@pytest.fixture(scope="module")
def small_sweep():
    # 11 points spanning all three classes; t_max kept short
    spec = SweepSpec(params=ModelParams(), v_min=0.1, v_max=0.3, dv=0.02, t_max=300.0)
    return spec, sweep(spec)


class TestGrid:
    def test_reference_grid_has_251_points(self):
        spec = SweepSpec(params=ModelParams())
        assert (spec.v_min, spec.v_max, spec.dv) == (0.05, 0.30, 0.001)
        assert grid_size(spec) == 251

    @pytest.mark.parametrize("v_min,v_max,dv,n", [
        (0.1, 0.2, 0.05, 3),
        (0.1, 0.1, 0.001, 1),
        (0.05, 0.30, 0.025, 11),
    ])
    def test_point_counts(self, v_min, v_max, dv, n):
        spec = SweepSpec(params=ModelParams(), v_min=v_min, v_max=v_max, dv=dv)
        assert grid_size(spec) == n

    def test_points_come_from_the_index_not_accumulation(self):
        spec = SweepSpec(params=ModelParams())
        assert grid_v0(spec, 0) == spec.v_min
        assert grid_v0(spec, 1) == spec.v_min + spec.dv
        assert grid_v0(spec, 250) == spec.v_min + 250 * spec.dv
        assert grid_v0(spec, 250) == pytest.approx(0.30, abs=1e-12)
        vs = [grid_v0(spec, i) for i in range(grid_size(spec))]
        assert all(b > a for a, b in zip(vs, vs[1:]))

    @pytest.mark.parametrize("kwargs", [
        {"v_min": 0.0},
        {"v_min": -0.1},
        {"v_min": 0.3, "v_max": 0.2},
        {"dv": 0.0},
        {"dv": -0.001},
        {"exit_radius": -1.0},
        {"t_max": math.inf},
        {"launch_offset": -math.inf},
        {"v_min": math.inf},
        {"v_max": math.inf},
        {"dv": math.inf},
        {"dv": math.nan},
        {"dv": 1e-300},
        {"v_max": 1e300},
        {"dv": 2.5e-8},
        {"v_min": 0.5, "v_max": 0.5 + MAX_GRID_POINTS * 2**-26, "dv": 2**-26},
    ])
    def test_bad_specs_are_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SweepSpec(params=ModelParams(), **kwargs)

    def test_the_largest_grid_is_accepted(self):
        spec = SweepSpec(params=ModelParams(), dv=(0.30 - 0.05) / (MAX_GRID_POINTS - 1))
        assert grid_size(spec) == MAX_GRID_POINTS

    def test_scenario_carries_the_spec_settings(self):
        spec = SweepSpec(params=ModelParams(), launch_offset=-12.0, t_max=750.0,
                         exit_radius=11.0, separation=1.5)
        sc = spec.scenario(0.2)
        assert (sc.v0, sc.launch_offset, sc.t_max, sc.exit_radius, sc.separation) == \
               (0.2, -12.0, 750.0, 11.0, 1.5)


class TestSweep:
    def test_every_point_gets_a_clean_classification(self, small_sweep):
        spec, records = small_sweep
        assert len(records) == grid_size(spec)
        seen = set()
        for i, rec in enumerate(records):
            assert rec.v0 == grid_v0(spec, i)
            assert rec.outcome in (Outcome.TRANSMITTED, Outcome.REFLECTED, Outcome.TRAPPED)
            assert rec.error == ""
            seen.add(rec.outcome)
            if rec.outcome is Outcome.TRANSMITTED:
                assert rec.v_final > 0.0
            elif rec.outcome is Outcome.REFLECTED:
                assert rec.v_final < 0.0
            else:
                assert rec.v_final == 0.0
                assert rec.steps == 300_000
        assert len(seen) == 3  # this window spans all three classes

    def test_free_pair_always_transmits_at_launch_speed(self):
        spec = SweepSpec(params=ModelParams(A=0.0), v_min=0.1, v_max=0.2,
                         dv=0.05, t_max=300.0)
        records = sweep(spec)
        assert len(records) == 3
        for rec in records:
            assert rec.outcome is Outcome.TRANSMITTED
            assert abs(rec.v_final - rec.v0) < 1e-10

    def test_each_record_is_run_scatterings_record(self, small_sweep):
        spec, records = small_sweep
        for i in (0, 5, len(records) - 1):
            v0 = grid_v0(spec, i)
            assert records[i] == run_scattering(spec.scenario(v0), spec.cfg)

    def test_worker_count_never_changes_the_records(self, small_sweep):
        spec, serial = small_sweep
        for workers in (2, 5):
            assert sweep(spec, workers=workers) == serial

    def test_integration_failures_become_error_rows(self):
        spec = SweepSpec(params=ModelParams(), v_min=0.1, v_max=0.1,
                         cfg=IntegratorConfig(max_steps=100))
        records = sweep(spec)
        assert len(records) == 1
        rec = records[0]
        assert rec.outcome is Outcome.ERROR
        assert rec.error == "StepBudgetExhausted"
        assert rec.steps == 100
        assert math.isnan(rec.v_final) and math.isnan(rec.t_end) and math.isnan(rec.energy_drift)


# three free-pair points: cheap, and every one transmits
TINY = SweepSpec(params=ModelParams(A=0.0), v_min=0.1, v_max=0.2, dv=0.05, t_max=300.0)


class _SpyExecutor:
    """Stands in for an executor: records its kind and max_workers and maps
    serially, so no thread or process is ever started."""

    def __init__(self, kind, made, max_workers, **_):
        made.append((kind, max_workers))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


class TestWorkers:
    @pytest.fixture
    def pools(self, monkeypatch):
        made = []
        for kind in ("ThreadPoolExecutor", "ProcessPoolExecutor"):
            monkeypatch.setattr(concurrent.futures, kind,
                                lambda kind=kind, **kw: _SpyExecutor(kind, made, **kw))
        return made

    @pytest.mark.parametrize("backend, kind", [
        ("c", "ThreadPoolExecutor"),
        ("python", "ProcessPoolExecutor"),
    ])
    @pytest.mark.parametrize("workers, cpus, size", [
        (100_000, 64, 3),
        (100_000, 2, 2),
        (2, 64, 2),
        (3, 1, None),
    ])
    def test_the_pool_never_outgrows_the_points_or_the_cpus(
            self, pools, monkeypatch, backend, kind, workers, cpus, size):
        monkeypatch.setattr(_kernels, "BACKEND", backend)
        monkeypatch.setattr(sweep_module, "_usable_cpus", lambda: cpus)
        assert sweep(TINY, workers=workers) == sweep(TINY)
        assert pools == ([] if size is None else [(kind, size)])

    def test_a_single_point_never_starts_a_pool(self, pools):
        spec = SweepSpec(params=ModelParams(A=0.0), v_min=0.1, v_max=0.1, t_max=300.0)
        assert len(sweep(spec, workers=100_000)) == 1
        assert pools == []

    @pytest.mark.parametrize("workers", [0, -3, 1.5, None])
    def test_bad_worker_counts_are_rejected(self, pools, workers):
        for run in (sweep, zoom):
            with pytest.raises(ValueError, match="workers must be a positive integer"):
                run(TINY, workers=workers)
        assert pools == []

    def test_c_kernel_points_run_on_threads_in_this_process(self, monkeypatch):
        monkeypatch.setattr(_kernels, "BACKEND", "c")
        monkeypatch.setattr(sweep_module, "_usable_cpus", lambda: 2)

        def no_fork(*args, **kwargs):
            raise AssertionError("the C backend must not start processes")

        monkeypatch.setattr(multiprocessing, "get_context", no_fork)
        classify = sweep_module._classify_point
        pids = []

        def spy(spec, v0):
            pids.append(os.getpid())
            return classify(spec, v0)

        monkeypatch.setattr(sweep_module, "_classify_point", spy)
        records = sweep(TINY, workers=2)
        assert pids == [os.getpid()] * len(records) == [os.getpid()] * grid_size(TINY)
        monkeypatch.setattr(sweep_module, "_classify_point", classify)
        assert records == sweep(TINY)


class TestZoom:
    def test_uniform_window_is_never_refined(self):
        spec = SweepSpec(params=ModelParams(A=0.0), v_min=0.1, v_max=0.2,
                         dv=0.05, t_max=300.0)
        rows = zoom(spec, refinement_factor=5, depth=3)
        assert len(rows) == 3
        assert all(row.depth == 0 and row.interval is None for row in rows)

    def test_refinement_brackets_a_class_change(self):
        spec = SweepSpec(params=ModelParams(), v_min=0.256, v_max=0.260, dv=0.002)
        rows = zoom(spec, refinement_factor=2, depth=2)
        base = [r for r in rows if r.depth == 0]
        deeper = [r for r in rows if r.depth >= 1]
        assert len(base) == 3
        assert deeper, "the window straddles a boundary, so refinement must fire"
        base_by_v0 = {r.record.v0: r.record for r in base}
        for row in deeper:
            lo, hi = row.interval
            width = hi - lo
            assert width == pytest.approx(spec.dv / 2 ** (row.depth - 1), rel=1e-12)
            assert lo <= row.record.v0 <= hi
            # endpoints reuse the parent record verbatim, never a re-run
            if row.record.v0 in base_by_v0:
                assert row.record == base_by_v0[row.record.v0]
        # each refined interval contributes factor+1 rows (endpoints + interior)
        for depth in sorted({r.depth for r in deeper}):
            level = [r for r in deeper if r.depth == depth]
            intervals = {r.interval for r in level}
            assert len(level) == 3 * len(intervals)

    def test_depth_zero_is_just_the_sweep(self, small_sweep):
        spec, records = small_sweep
        rows = zoom(spec, refinement_factor=5, depth=0)
        assert [row.record for row in rows] == records

    @pytest.mark.parametrize("kwargs", [
        {"refinement_factor": 1},
        {"refinement_factor": 2.5},
        {"depth": -1},
        {"depth": 1.5},
    ])
    def test_bad_zoom_arguments_are_rejected(self, kwargs):
        spec = SweepSpec(params=ModelParams(), v_min=0.1, v_max=0.1, t_max=10.0)
        with pytest.raises(ValueError):
            zoom(spec, **kwargs)


    def test_an_oversized_level_is_rejected_before_its_grid_is_built(self):
        # 0.22 reflects and 0.24 transmits at this horizon: one class change
        spec = SweepSpec(params=ModelParams(), v_min=0.22, v_max=0.24, dv=0.02, t_max=300.0)
        assert [r.outcome for r in sweep(spec)] == [Outcome.REFLECTED, Outcome.TRANSMITTED]
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as info:
                zoom(spec, refinement_factor=10**7 + 2, depth=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert str(info.value) == (f"zoom depth 1: 1 class-changing intervals at factor "
                                   f"10000002 give 10000001 points, more than "
                                   f"{MAX_GRID_POINTS}")
        # the refined grid would hold 10**7 floats, about 300 MB as a list
        assert peak < 20e6

    def test_the_largest_level_is_accepted(self, monkeypatch):
        spec = SweepSpec(params=ModelParams(), v_min=0.22, v_max=0.24, dv=0.02, t_max=300.0)
        monkeypatch.setattr(sweep_module, "MAX_GRID_POINTS", 4)
        rows = zoom(spec, refinement_factor=5, depth=1)
        assert [row.depth for row in rows] == [0, 0] + [1] * 6
        with pytest.raises(ValueError, match="give 5 points, more than 4"):
            zoom(spec, refinement_factor=6, depth=1)


class TestSensitivity:
    def test_zero_seed_gives_identical_twins(self):
        sc = Scenario(params=ModelParams(), v0=0.12, t_max=50.0)
        rep = sensitivity(sc, IntegratorConfig(), seed_delta=0.0)
        assert np.all(rep.distances == 0.0)
        assert rep.degenerate is True
        assert rep.lambda_ is None and rep.window is None and rep.t_first_unit is None

    def test_free_flight_separates_linearly_not_exponentially(self):
        # without the well, dv stays put and dx grows as delta*t; the fit
        # window can never form because d never reaches 1% of the scale
        sc = Scenario(params=ModelParams(A=0.0), v0=0.1, t_max=1000.0)
        rep = sensitivity(sc, IntegratorConfig())
        assert rep.degenerate is True
        assert rep.lambda_ is None
        assert rep.t_first_unit is None
        analytic = 1e-9 * math.sqrt(2.0 * 1000.0 ** 2 + 2.0)
        assert float(rep.distances.max()) == pytest.approx(analytic, rel=1e-2)

    def test_trapped_launch_diverges_exponentially(self):
        sc = Scenario(params=ModelParams(), v0=0.056, t_max=600.0)
        rep = sensitivity(sc, IntegratorConfig())
        assert rep.degenerate is False
        assert rep.lambda_ is not None and 0.01 < rep.lambda_ < 0.2
        lo, hi = rep.window
        assert 0.0 < lo < hi <= 600.0
        assert rep.t_first_unit is not None and lo < rep.t_first_unit <= 600.0
        # growth spans many decades between the seed and saturation
        assert float(rep.distances.max()) > 1e4 * rep.seed_delta

    def test_report_metadata_and_sampling(self):
        sc = Scenario(params=ModelParams(), v0=0.12, t_max=50.0)
        rep = sensitivity(sc, IntegratorConfig(), seed_delta=1e-9,
                          sample_interval=1.0, scale=2.0)
        assert rep.metric == "euclidean(x1, x2, v1, v2)"
        assert rep.seed_delta == 1e-9
        assert rep.scale == 2.0
        assert rep.sample_interval == 1.0
        assert rep.times[0] == 0.0
        assert len(rep.times) == 51
        assert np.allclose(np.diff(rep.times), 1.0, atol=1e-9)
        # both runs launch with the same positions, velocities delta apart
        assert rep.distances[0] == pytest.approx(1e-9 * math.sqrt(2.0), rel=1e-6)

    def test_bad_arguments_are_rejected(self):
        sc = Scenario(params=ModelParams(), v0=0.12, t_max=10.0)
        with pytest.raises(ValueError):
            sensitivity(sc, IntegratorConfig(), seed_delta=-1e-9)
        with pytest.raises(ValueError):
            sensitivity(sc, IntegratorConfig(), sample_interval=0.0)
        with pytest.raises(ValueError, match="sample_interval must be positive and finite"):
            sensitivity(sc, IntegratorConfig(), sample_interval=math.inf)
        with pytest.raises(ValueError, match=r"^dt = 1e-320 is too small"):
            sensitivity(sc, IntegratorConfig(dt=1e-320))
