"""Sweep grid semantics, worker invariance, divergence reports."""

import concurrent.futures
import importlib
import math
import multiprocessing
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from kinktrap import (
    IntegratorConfig,
    ModelParams,
    Outcome,
    Scenario,
    Scheme,
    SweepSpec,
    grid_size,
    grid_v0,
    run_scattering,
    sensitivity,
    sweep,
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
        {"launch_offset": -5.0},  # inside the default exit radius
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

    def test_an_overflowing_point_becomes_an_error_row(self):
        spec = SweepSpec(params=ModelParams(A=1e300), v_min=0.3, v_max=0.3, t_max=10.0)
        [rec] = sweep(spec)
        assert (rec.outcome, rec.error, rec.steps) == (Outcome.ERROR, "NonFiniteState", 10_000)
        assert math.isnan(rec.v_final) and math.isnan(rec.t_end) and math.isnan(rec.energy_drift)


# three free-pair points: cheap, and every one transmits
TINY = SweepSpec(params=ModelParams(A=0.0), v_min=0.1, v_max=0.2, dv=0.05, t_max=300.0)
TINY_RK4 = SweepSpec(params=ModelParams(A=0.0), v_min=0.1, v_max=0.2, dv=0.05, t_max=300.0,
                     cfg=IntegratorConfig(scheme=Scheme.RK4))


class _SpyExecutor:
    """Stands in for a process pool: records its kind and max_workers and
    maps serially, so no process is ever started."""

    def __init__(self, kind, made, max_workers, **_):
        made.append((kind, max_workers))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


# Runs under python -S with src first on sys.path: a three-point sweep on two
# threads under each scheme, then the number of C batch runner calls of the
# Verlet sweep, the number of RK4 runner calls and which executor modules got
# loaded.
POOLED_SWEEP_IMPORTS = """
import importlib, sys
sys.path.insert(0, sys.argv[1])
from kinktrap import IntegratorConfig, ModelParams, Scheme, SweepSpec, _kernels
module = importlib.import_module("kinktrap.sweep")
module._usable_cpus = lambda: 2
calls = []
def spy(name, fn):
    return lambda *args: calls.append(name) or fn(*args)
_kernels._run_verlet_lanes = spy("lanes", _kernels._run_verlet_lanes)
_kernels._run_rk4 = spy("rk4", _kernels._run_rk4)
for scheme in Scheme:
    module.sweep(SweepSpec(params=ModelParams(A=0.0), v_min=0.1, v_max=0.2, dv=0.05,
                           t_max=30.0, cfg=IntegratorConfig(scheme=scheme)), workers=2)
print(calls.count("lanes"), calls.count("rk4"),
      sorted(name for name in ("concurrent.futures", "multiprocessing") if name in sys.modules))
"""


class TestWorkers:
    @pytest.fixture
    def pools(self, monkeypatch):
        """What ran a sweep's points besides the calling thread alone: each
        process pool made, as (kind, max_workers), and the threads that ran
        a batch, the calling one included, as ("ThreadPool", their number)."""
        made, helpers = [], []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            lambda **kw: _SpyExecutor("ProcessPoolExecutor", made, **kw))

        class Helper(threading.Thread):
            def run(self):
                helpers.append(self)
                super().run()

        monkeypatch.setattr(threading, "Thread", Helper)

        def seen():
            """What ran since the last call."""
            pools = made + ([("ThreadPool", len(helpers) + 1)] if helpers else [])
            made.clear()
            helpers.clear()
            return pools

        return seen

    @pytest.mark.parametrize("backend, kind", [
        ("c", "ThreadPool"),
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
        if backend == "c" and _kernels.BACKEND != "c":
            pytest.skip("no C kernel")
        monkeypatch.setattr(_kernels, "BACKEND", backend)
        monkeypatch.setattr(sweep_module, "_usable_cpus", lambda: cpus)
        for spec in (TINY, TINY_RK4):
            assert sweep(spec, workers=workers) == sweep(spec)
            assert pools() == ([] if size is None else [(kind, size)])

    def test_a_single_point_never_starts_a_pool(self, pools):
        spec = SweepSpec(params=ModelParams(A=0.0), v_min=0.1, v_max=0.1, t_max=300.0)
        assert len(sweep(spec, workers=100_000)) == 1
        assert pools() == []

    @pytest.mark.parametrize("workers", [0, -3, 1.5, None])
    def test_bad_worker_counts_are_rejected(self, pools, workers):
        with pytest.raises(ValueError, match="workers must be a positive integer"):
            sweep(TINY, workers=workers)
        assert pools() == []

    def test_c_kernel_points_run_on_threads_in_this_process(self, monkeypatch):
        """Over C, the two threads of a Verlet batch each call the lanes
        once, and the RK4 runner runs each of the three points."""
        if _kernels.BACKEND != "c":
            pytest.skip("no C kernel")
        monkeypatch.setattr(sweep_module, "_usable_cpus", lambda: 2)

        def no_fork(*args, **kwargs):
            raise AssertionError("the C backend must not start processes")

        monkeypatch.setattr(multiprocessing, "get_context", no_fork)
        monkeypatch.setattr(os, "fork", no_fork)
        for spec, callee, calls in ((TINY, "_run_verlet_lanes", 2), (TINY_RK4, "_run_rk4", 3)):
            real = getattr(_kernels, callee)
            pids = []

            def spy(*args):
                pids.append(os.getpid())
                return real(*args)

            monkeypatch.setattr(_kernels, callee, spy)
            records = sweep(spec, workers=2)
            assert pids == [os.getpid()] * calls
            monkeypatch.setattr(_kernels, callee, real)
            assert records == sweep(spec)

    def test_a_c_pooled_sweep_loads_no_executor(self):
        """Threads over the C runners need neither concurrent.futures nor
        multiprocessing, so a pooled sweep under either scheme does not
        import them."""
        if _kernels.BACKEND != "c":
            pytest.skip("no C kernel")
        src = str(Path(_kernels.__file__).resolve().parent.parent)
        proc = subprocess.run([sys.executable, "-S", "-c", POOLED_SWEEP_IMPORTS, src],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["2", "3", "[]"]

    @pytest.mark.parametrize("spec, error", [
        (SweepSpec(params=ModelParams(), separation=1e-13, v_min=0.1, v_max=0.3, dv=0.05,
                   t_max=50.0), "CoincidentParticles"),
        (SweepSpec(params=ModelParams(), v_min=0.05, v_max=0.3, dv=0.05, t_max=500.0,
                   cfg=IntegratorConfig(max_steps=150_000)), "StepBudgetExhausted"),
        (SweepSpec(params=ModelParams(A=1e300), v_min=0.1, v_max=0.3, dv=0.1, t_max=10.0),
         "NonFiniteState"),
        (SweepSpec(params=ModelParams(), v_min=0.05, v_max=0.3, dv=0.05, t_max=500.0,
                   cfg=IntegratorConfig(scheme=Scheme.RK4, max_steps=150_000)),
         "StepBudgetExhausted"),
    ], ids=["CoincidentParticles", "StepBudgetExhausted", "NonFiniteState", "RK4"])
    def test_pooled_error_rows_are_the_serial_ones(self, monkeypatch, spec, error):
        """Points that fail before their run starts (coincident at launch)
        or at its end (out of budget, beside points that exit; an overflow),
        under both schemes: the pooled records equal the serial ones."""
        monkeypatch.setattr(sweep_module, "_usable_cpus", lambda: 2)
        serial = sweep(spec)
        assert sweep(spec, workers=2) == serial
        assert {rec.error for rec in serial} - {""} == {error}
        if error == "StepBudgetExhausted":
            assert {rec.outcome for rec in serial} == \
                {Outcome.ERROR, Outcome.REFLECTED, Outcome.TRANSMITTED}


class TestSensitivity:
    def test_zero_seed_gives_identical_twins(self):
        sc = Scenario(params=ModelParams(), v0=0.12, t_max=50.0)
        rep = sensitivity(sc, IntegratorConfig(), seed_delta=0.0)
        assert np.all(np.asarray(rep.distances) == 0.0)
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
        assert float(np.asarray(rep.distances).max()) == pytest.approx(analytic, rel=1e-2)

    def test_trapped_launch_diverges_exponentially(self):
        sc = Scenario(params=ModelParams(), v0=0.056, t_max=600.0)
        rep = sensitivity(sc, IntegratorConfig())
        assert rep.degenerate is False
        assert rep.lambda_ is not None and 0.01 < rep.lambda_ < 0.2
        lo, hi = rep.window
        assert 0.0 < lo < hi <= 600.0
        assert rep.t_first_unit is not None and lo < rep.t_first_unit <= 600.0
        # growth spans many decades between the seed and saturation
        assert float(np.asarray(rep.distances).max()) > 1e4 * rep.seed_delta

    def test_report_metadata_and_sampling(self):
        sc = Scenario(params=ModelParams(), v0=0.12, t_max=50.0)
        rep = sensitivity(sc, IntegratorConfig(), seed_delta=1e-9, sample_interval=1.0)
        assert rep.metric == "euclidean(x1, x2, v1, v2)"
        assert rep.seed_delta == 1e-9
        assert rep.scale == 1.0
        assert rep.sample_interval == 1.0
        assert rep.times[0] == 0.0
        assert len(rep.times) == 51
        assert np.allclose(np.diff(rep.times), 1.0, atol=1e-9)
        # both runs launch with the same positions, velocities delta apart
        assert rep.distances[0] == pytest.approx(1e-9 * math.sqrt(2.0), rel=1e-6)

    def test_the_exit_radius_is_not_checked_against_the_launch_point(self):
        """The twins run to t_max with no exit test, so a launch inside the
        default exit radius is a valid start."""
        sc = Scenario(params=ModelParams(), v0=0.1, launch_offset=-5.0, t_max=20.0)
        rep = sensitivity(sc, IntegratorConfig())
        assert len(rep.times) == 21 and rep.times[-1] == 20.0

    def test_bad_arguments_are_rejected(self):
        sc = Scenario(params=ModelParams(), v0=0.12, t_max=10.0)
        with pytest.raises(ValueError):
            sensitivity(sc, IntegratorConfig(), seed_delta=-1e-9)
        with pytest.raises(ValueError, match=r"^seed_delta must be >= 0 and finite, got inf"):
            sensitivity(sc, IntegratorConfig(), seed_delta=math.inf)
        with pytest.raises(ValueError):
            sensitivity(sc, IntegratorConfig(), sample_interval=0.0)
        with pytest.raises(ValueError, match="sample_interval must be positive and finite"):
            sensitivity(sc, IntegratorConfig(), sample_interval=math.inf)
        with pytest.raises(ValueError, match=r"^dt = 1e-320 is too small"):
            sensitivity(sc, IntegratorConfig(dt=1e-320))
