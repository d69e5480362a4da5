"""Integrator behavior: stepping, stop conditions, recording, determinism.

The velocity Verlet production path and the RK4 cross-check never share
update code, so agreement between them is evidence about the physics, not
about a shared bug.
"""

import math
import random

import numpy as np
import pytest

from kinktrap import (
    CoincidentParticles,
    IntegratorConfig,
    ModelParams,
    NonFiniteState,
    Scheme,
    State,
    StepBudgetExhausted,
    StopReason,
    equilibrium_separation,
    integrate,
    total_energy,
)
from kinktrap import _kernels
from kinktrap.dynamics import DEFAULT_COINCIDENCE_FLOOR
from modified_energy import modified_energy

R0 = equilibrium_separation(ModelParams())


def _free_pair(v=0.0):
    # equilibrium separation, so internal forces cancel to rounding
    return State(0.0, -R0 / 2, v, R0 / 2, v)


def _launch(v0):
    return State(0.0, -10.0 - R0 / 2, v0, -10.0 + R0 / 2, v0)


def _one_step(s, p, cfg):
    """One fixed step of integrate: a horizon half a step ahead asks for
    exactly one (a horizon of t + dt may ask for two at a large t)."""
    r = integrate(s, p, cfg, s.t + 0.5 * cfg.dt)
    assert r.steps == 1
    return r.final


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"dt": 0.0},
        {"dt": -1e-3},
        {"dt": math.inf},
        {"max_steps": 0},
        {"max_steps": 10.0},
        {"max_steps": 2**63},
        {"max_steps": 2**64},
    ])
    def test_bad_config_is_rejected(self, kwargs):
        with pytest.raises(ValueError):
            IntegratorConfig(**kwargs)

    def test_bad_stop_conditions_are_rejected(self):
        for bounds in ({"t_max": math.nan}, {"t_max": math.inf},
                       {"t_max": 1.0, "exit_radius": 0.0}, {"t_max": 1.0, "exit_radius": -5.0},
                       {"t_max": 1.0, "exit_radius": math.nan},
                       {"t_max": 1.0, "exit_radius": math.inf}):
            with pytest.raises(ValueError):
                integrate(_free_pair(), ModelParams(), IntegratorConfig(), **bounds)


class TestSingleStep:
    @pytest.mark.parametrize("scheme", [Scheme.VELOCITY_VERLET, Scheme.RK4])
    def test_large_start_time_changes_only_the_clock(self, scheme):
        """From t = 1e5 a step moves the pair exactly as from t = 0 and
        advances t by dt."""
        p = ModelParams()
        cfg = IntegratorConfig(scheme=scheme)
        late = State(1e5, -0.7, 0.2, 0.6, -0.1)
        a = _one_step(late, p, cfg)
        b = _one_step(State(0.0, late.x1, late.v1, late.x2, late.v2), p, cfg)
        assert (a.x1, a.v1, a.x2, a.v2) == (b.x1, b.v1, b.x2, b.v2)
        assert a.t == late.t + cfg.dt
        assert b.t == cfg.dt

    def test_scheme_gap_shrinks_at_third_order(self):
        # |VV - RK4| after one step is dominated by the Verlet O(dt^3) local
        # error, so halving dt should shrink it by about 8.
        p = ModelParams()
        s = State(0.0, -1.0, 0.3, 0.4, -0.2)
        diffs = []
        for dt in (1e-2, 5e-3, 2.5e-3):
            a = _one_step(s, p, IntegratorConfig(scheme=Scheme.VELOCITY_VERLET, dt=dt))
            b = _one_step(s, p, IntegratorConfig(scheme=Scheme.RK4, dt=dt))
            diffs.append(math.sqrt((a.x1 - b.x1) ** 2 + (a.v1 - b.v1) ** 2
                                   + (a.x2 - b.x2) ** 2 + (a.v2 - b.v2) ** 2))
        for lo, hi in zip(diffs[1:], diffs[:-1]):
            assert 6.0 < hi / lo < 10.0


class TestStopConditions:
    def test_time_limit_at_start_time_runs_zero_steps(self):
        s = _free_pair(0.1)
        r = integrate(s, ModelParams(), IntegratorConfig(), 0.0)
        assert r.reason is StopReason.TIME_LIMIT
        assert r.steps == 0
        assert (r.final.x1, r.final.v1, r.final.x2, r.final.v2) == (s.x1, s.v1, s.x2, s.v2)

    @pytest.mark.parametrize("t_max,expected", [
        (0.123, 123),
        (1.0, 1000),
        (457.351, 457351),
    ])
    def test_step_count_is_exact_for_dt_multiples(self, t_max, expected):
        # t_max/dt lands on an integer; last-bit slop must not add a step
        p = ModelParams(A=0.0)
        r = integrate(_free_pair(), p, IntegratorConfig(dt=1e-3), t_max)
        assert r.steps == expected

    def test_incoming_pair_beyond_radius_is_not_an_exit(self):
        """|R| >= radius only stops the run when the pair is moving outward."""
        p = ModelParams(A=0.0)
        s = State(0.0, -12.0 - R0 / 2, 0.3, -12.0 + R0 / 2, 0.3)
        r = integrate(s, p, IntegratorConfig(), 500.0, exit_radius=9.0)
        assert r.reason is StopReason.EXIT_RADIUS
        R = 0.5 * (r.final.x1 + r.final.x2)
        V = 0.5 * (r.final.v1 + r.final.v2)
        assert R >= 9.0 and V > 0.0  # crossed the well, left on the far side
        assert R < 9.0 + 0.3 * 2e-3  # fired on the first outward step past 9

    def test_time_limit_binds_before_a_far_exit_radius(self):
        r = integrate(_free_pair(), ModelParams(), IntegratorConfig(), 3.0, exit_radius=50.0)
        assert r.reason is StopReason.TIME_LIMIT
        assert r.steps == 3000

    def test_budget_exhaustion_raises_with_count(self):
        cfg = IntegratorConfig(max_steps=100)
        with pytest.raises(StepBudgetExhausted) as exc:
            integrate(_free_pair(0.1), ModelParams(), cfg, 10.0)
        assert exc.value.steps == 100

    def test_step_count_that_overflows_a_float_names_dt(self):
        # 10 / 1e-320 is inf: no step count, and no NaN from the slop term
        cfg = IntegratorConfig(dt=1e-320)
        with pytest.raises(ValueError, match=r"^dt = 1e-320 is too small"):
            integrate(_free_pair(0.1), ModelParams(), cfg, 10.0)


class TestFreeFlight:
    def test_cm_advances_linearly_and_energy_is_flat(self):
        p = ModelParams(A=0.0)
        s = _free_pair(0.25)
        r = integrate(s, p, IntegratorConfig(), 5.0)
        assert r.reason is StopReason.TIME_LIMIT
        dR = 0.5 * (r.final.x1 + r.final.x2) - 0.5 * (s.x1 + s.x2)
        assert abs(dR - 0.25 * 5.0) < 1e-10
        assert r.max_energy_drift < 1e-12


class TestCoincidence:
    def test_rk4_stage_breach_reports_the_breaching_pair(self):
        """Closing head-on at relative speed 2, the pair meets exactly at
        RK4's first half-step stage while both ends of the step are 0.001
        apart; the error must name the stage pair."""
        p = ModelParams(alpha=1e-30, n=1)
        cfg = IntegratorConfig(scheme=Scheme.RK4)
        s = State(0.0, -5e-4, 1.0, 5e-4, -1.0)
        with pytest.raises(CoincidentParticles) as exc:
            integrate(s, p, cfg, cfg.dt)
        assert abs(exc.value.x1 - exc.value.x2) < DEFAULT_COINCIDENCE_FLOOR


class TestNonFiniteState:
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_an_overflowing_run_raises_instead_of_ending_on_nan(self, scheme):
        """A well of depth 1e300 flings the pair to an infinite speed within
        a few steps; the run must not end as a clean time-limit stop."""
        p = ModelParams(A=1e300)
        with pytest.raises(NonFiniteState) as exc:
            integrate(_launch(0.3), p, IntegratorConfig(scheme=scheme), 10.0)
        assert exc.value.steps == 10_000
        assert "not finite after 10000 steps" in str(exc.value)


class TestKernelEnergyParity:
    @pytest.mark.parametrize("runner", [_kernels._run_verlet, _kernels._run_rk4],
                             ids=["verlet", "rk4"])
    def test_inline_energy_equals_total_energy_bitwise(self, runner):
        """The C runners have their own pair_energy (in _kernels.c, called by
        after_step); after one step the peak drift must be
        |total_energy(final) - e0| to the last bit."""
        rng = random.Random(11)
        empty = np.empty(0)
        for _ in range(200):
            p = ModelParams(k=rng.uniform(0.5, 2.0), alpha=rng.uniform(0.5, 2.0),
                            n=rng.randint(1, 4), A=rng.uniform(-1.0, 3.0),
                            beta=rng.uniform(0.1, 2.0))
            x1 = rng.uniform(-3.0, 3.0)
            s = State(0.0, x1, rng.uniform(-1.0, 1.0),
                      x1 + rng.uniform(0.4, 2.5), rng.uniform(-1.0, 1.0))
            e0 = total_energy(s, p)
            status, steps, fx1, fv1, fx2, fv2, maxd, _ = runner(
                s.x1, s.v1, s.x2, s.v2, 0.0, 1e-2, 1,
                p.k, p.alpha, p.n, p.A, p.beta,
                1e-12, -1.0, e0, 0, empty, empty, empty, empty, empty,
            )
            assert (status, steps) == (_kernels.STATUS_RAN_ALL, 1)
            assert maxd == abs(total_energy(State(0.0, fx1, fv1, fx2, fv2), p) - e0)


class TestSchemeCrossCheck:
    def test_production_scheme_matches_fine_rk4_through_the_well(self):
        """Transit at v0 = 0.300: final pair velocity agrees to 1e-4."""
        p = ModelParams()
        s = _launch(0.300)
        a = integrate(s, p, IntegratorConfig(scheme=Scheme.VELOCITY_VERLET, dt=1e-3),
                      5000.0, exit_radius=10.0)
        b = integrate(s, p, IntegratorConfig(scheme=Scheme.RK4, dt=1e-4),
                      5000.0, exit_radius=10.0)
        assert a.reason is StopReason.EXIT_RADIUS
        assert b.reason is StopReason.EXIT_RADIUS
        Va = 0.5 * (a.final.v1 + a.final.v2)
        Vb = 0.5 * (b.final.v1 + b.final.v2)
        assert Va > 0.0 and Vb > 0.0
        assert abs(Va - Vb) < 1e-4


class TestTimeReversal:
    def test_transit_retraces_to_launch_under_velocity_flip(self):
        p = ModelParams()
        s = _launch(0.300)
        fwd = integrate(s, p, IntegratorConfig(), 5000.0, exit_radius=10.0)
        f = fwd.final
        back = State(f.t, f.x1, -f.v1, f.x2, -f.v2)
        rev = integrate(back, p, IntegratorConfig(), f.t + f.t)
        assert rev.steps == fwd.steps
        g = rev.final
        err = max(abs(g.x1 - s.x1), abs(g.x2 - s.x2),
                  abs(g.v1 + s.v1), abs(g.v2 + s.v2))
        assert err < 1e-9


class TestDeterminism:
    def test_identical_runs_are_bitwise_identical(self):
        p = ModelParams()
        s = _launch(0.12)
        cfg = IntegratorConfig()
        runs = [integrate(s, p, cfg, 50.0, record_every=7) for _ in range(2)]
        a, b = runs
        assert (a.final.x1, a.final.v1, a.final.x2, a.final.v2) == \
               (b.final.x1, b.final.v1, b.final.x2, b.final.v2)
        assert a.max_energy_drift == b.max_energy_drift
        for name in ("t", "x1", "v1", "x2", "v2"):
            assert np.array_equal(getattr(a.trajectory, name),
                                  getattr(b.trajectory, name))


class TestRecording:
    def test_stride_keeps_head_interior_and_tail(self):
        p = ModelParams(A=0.0)
        s = _free_pair(0.1)
        cfg = IntegratorConfig(dt=1e-3)
        r = integrate(s, p, cfg, 0.105, record_every=10)
        traj = r.trajectory
        assert r.steps == 105
        # initial point, samples at steps 10..100, off-stride final point
        assert len(traj) == 12
        assert traj.t[0] == s.t
        assert traj.t[-1] == r.final.t
        for j in range(1, 11):
            assert traj.t[j] == s.t + (10 * j) * cfg.dt
        assert traj.x1[-1] == r.final.x1 and traj.v2[-1] == r.final.v2

    def test_aligned_final_step_is_not_duplicated(self):
        p = ModelParams(A=0.0)
        r = integrate(_free_pair(0.1), p, IntegratorConfig(dt=1e-3),
                      0.1, record_every=10)
        traj = r.trajectory
        assert r.steps == 100
        assert len(traj) == 11
        assert traj.t[-1] == r.final.t

    def test_cm_views_match_raw_columns(self):
        p = ModelParams()
        r = integrate(_launch(0.2), p, IntegratorConfig(), 2.0, record_every=100)
        traj = r.trajectory
        x1, v1, x2, v2 = (np.asarray(c) for c in (traj.x1, traj.v1, traj.x2, traj.v2))
        assert np.array_equal(np.asarray(traj.R), 0.5 * (x1 + x2))
        assert np.array_equal(np.asarray(traj.r), 0.5 * (x2 - x1))
        assert np.array_equal(np.asarray(traj.V), 0.5 * (v1 + v2))
        assert np.array_equal(np.asarray(traj.w), 0.5 * (v2 - v1))

    def test_reading_a_derived_column_derives_it_alone(self, monkeypatch):
        """The first read of R asks derived_column for R and the trajectory
        keeps it; no other derived column is computed or held until it is
        read."""
        calls = []
        derive = _kernels.derived_column

        def spy(*args):
            calls.append(args[-1])
            return derive(*args)

        monkeypatch.setattr(_kernels, "derived_column", spy)
        traj = integrate(_launch(0.2), ModelParams(), IntegratorConfig(), 2.0,
                         record_every=100).trajectory
        assert traj.R is traj.R
        assert calls == ["R"]
        assert [name for name in _kernels.DERIVED if name in vars(traj)] == ["R"]
        assert traj.E is traj.E
        assert calls == ["R", "E"]
        assert [name for name in _kernels.DERIVED if name in vars(traj)] == ["R", "E"]

    def test_energy_column_is_the_total_energy_of_each_state(self):
        """E is total_energy of each recorded state under the run's model,
        here one whose five constants all differ from the defaults."""
        p = ModelParams(k=1.3, alpha=0.7, n=3, A=1.5, beta=0.8)
        traj = integrate(_launch(0.2), p, IntegratorConfig(), 20.0, record_every=100).trajectory
        assert traj.params is p
        states = zip(traj.t, traj.x1, traj.v1, traj.x2, traj.v2)
        assert list(traj.E) == [total_energy(State(*s), p) for s in states]

    def test_columns_are_read_only_float64_buffers(self):
        """Arithmetic on a column raises instead of concatenating, and no
        column can be written."""
        traj = integrate(_launch(0.2), ModelParams(), IntegratorConfig(), 0.05,
                         record_every=7).trajectory
        for name in ("t", "x1", "v1", "x2", "v2", "R", "V", "r", "w", "E"):
            column = getattr(traj, name)
            assert column.readonly and column.format == "d" and len(column) == len(traj), name
            with pytest.raises(TypeError):
                column[0] = 1.0
        with pytest.raises(TypeError):
            traj.x1 + traj.x2
        with pytest.raises(TypeError):
            traj.x1 * 2

    @pytest.mark.parametrize("stride, steps", [(1, 50), (7, 70), (7, 75), (100, 1000),
                                               (100, 1050)])
    def test_columns_equal_the_concatenated_recording(self, stride, steps):
        """np.asarray of each column has the bytes of the initial state, the
        runner's recording into numpy buffers and, when the last step was off
        the stride, the final state, concatenated."""
        p, cfg, s = ModelParams(), IntegratorConfig(), _launch(0.3)
        r = integrate(s, p, cfg, steps * cfg.dt, record_every=stride)
        assert r.steps == steps
        rec = [np.zeros(steps // stride + 1) for _ in range(5)]
        *_, nrec = _kernels._run_verlet(
            s.x1, s.v1, s.x2, s.v2, s.t, cfg.dt, steps, p.k, p.alpha, p.n, p.A, p.beta,
            DEFAULT_COINCIDENCE_FLOOR, -1.0, total_energy(s, p), stride, *rec)
        tail = [r.final] if steps % stride else []
        for name, recorded in zip(("t", "x1", "v1", "x2", "v2"), rec):
            expected = np.concatenate(
                ([getattr(s, name)], recorded[:nrec], [getattr(f, name) for f in tail]))
            column = np.asarray(getattr(r.trajectory, name))
            assert column.dtype == np.float64 and column.tobytes() == expected.tobytes(), name

    @pytest.mark.parametrize("bad", [0, -3, 2.0, 2**63, 2**64 + 1])
    def test_record_every_must_be_a_positive_integer(self, bad):
        with pytest.raises(ValueError):
            integrate(_free_pair(), ModelParams(), IntegratorConfig(),
                      0.01, record_every=bad)

    def test_largest_stride_and_budget_record_only_the_ends(self):
        cfg = IntegratorConfig(max_steps=2**63 - 1)
        r = integrate(_free_pair(0.1), ModelParams(A=0.0), cfg, 1.0, record_every=2**63 - 1)
        assert r.steps == 1000
        assert list(r.trajectory.t) == [0.0, r.final.t]


class TestEnergyDriftInvariant:
    def test_peak_drift_through_the_well_is_below_one_part_per_million(self):
        """Energy is conserved to 1e-6 across a full pass through the well.

        The v0 = 0.12 launch enters the well and reflects, leaving through
        the exit radius at t = 457.351.  Velocity Verlet does not conserve E
        step by step: E makes a bounded O(dt^2) excursion of 1.9e-5 at the
        deepest compression (t = 122.548, separation 0.469), which the run
        reports as its peak drift.  What the scheme does conserve is the
        modified energy H~ (see modified_energy.py), so the test asserts
        (a) the net change in E from launch to exit, and (b) the peak
        deviation of H~ at every step of the run, both against 1e-6.
        """
        p = ModelParams()
        cfg = IntegratorConfig()
        s = _launch(0.12)
        r = integrate(s, p, cfg, 5000.0, exit_radius=10.0, record_every=1)
        assert r.reason is StopReason.EXIT_RADIUS
        e0 = total_energy(s, p)
        net = abs(total_energy(r.final, p) - e0) / abs(e0)
        traj = r.trajectory
        h = modified_energy(*(np.asarray(c) for c in (traj.x1, traj.v1, traj.x2, traj.v2)),
                            p, cfg.dt)
        peak_h = float(np.max(np.abs(h - h[0]))) / abs(e0)
        assert net < 1e-6, f"net relative change in E {net:.3e}"
        assert peak_h < 1e-6, f"peak relative deviation of H~ {peak_h:.3e}"
