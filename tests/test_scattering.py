"""Scattering protocol: launch construction, classification, symmetries."""

import math

import pytest

from kinktrap import scattering
from kinktrap import (
    IntegratorConfig,
    ModelParams,
    Outcome,
    Scenario,
    equilibrium_separation,
    initial_state,
    run_scattering,
    to_cm,
    total_energy,
)

CFG = IntegratorConfig()


# First trapped point of the reference grid.  Written as grid arithmetic, not
# as the literal 0.051: the two differ by one ulp, and near a band edge that
# one bit is enough to flip the outcome (the literal reflects at t = 919).
TRAPPED_V0 = 0.05 + 0.001


@pytest.fixture(scope="module")
def trapped_record():
    sc = Scenario(params=ModelParams(), v0=TRAPPED_V0)
    return run_scattering(sc, CFG)


class TestScenario:
    @pytest.mark.parametrize("kwargs,msg", [
        ({"v0": 0.0}, "v0 must be positive"),
        ({"v0": -0.1}, "v0 must be positive"),
        ({"v0": math.nan}, "v0 must be positive"),
        ({"v0": 0.1, "t_max": 0.0}, "t_max must be positive"),
        ({"v0": 0.1, "exit_radius": -1.0}, "exit_radius must be positive"),
        ({"v0": 0.1, "launch_offset": 0.0}, "launch_offset must be nonzero"),
        ({"v0": 0.1, "exit_radius": math.nan}, "exit_radius must be positive"),
        ({"v0": 0.1, "separation": 0.0}, "separation must be positive"),
        ({"v0": 0.1, "t_max": math.inf}, "t_max must be positive and finite"),
        ({"v0": 0.1, "launch_offset": -math.inf}, "launch_offset must be finite"),
        ({"v0": 0.1, "launch_offset": math.nan}, "launch_offset must be finite"),
        ({"v0": 0.1, "separation": math.inf}, "separation must be positive and finite"),
    ])
    def test_invalid_scenarios_are_rejected(self, kwargs, msg):
        with pytest.raises(ValueError, match=msg):
            Scenario(params=ModelParams(), **kwargs)

    def test_separation_defaults_to_free_equilibrium(self):
        p = ModelParams()
        assert Scenario(params=p, v0=0.1).resolved_separation == equilibrium_separation(p)
        assert Scenario(params=p, v0=0.1, separation=2.0).resolved_separation == 2.0

    def test_direction_follows_launch_side(self):
        p = ModelParams()
        assert Scenario(params=p, v0=0.1, launch_offset=-10.0).direction == 1.0
        assert Scenario(params=p, v0=0.1, launch_offset=10.0).direction == -1.0


class TestInitialState:
    def test_launch_geometry(self):
        p = ModelParams()
        sc = Scenario(params=p, v0=0.1)
        s = initial_state(sc)
        half = 0.5 * equilibrium_separation(p)
        assert s.x1 == -10.0 - half
        assert s.x2 == -10.0 + half
        assert s.v1 == 0.1 and s.v2 == 0.1
        assert s.t == 0.0
        cm = to_cm(s)
        assert cm.R == pytest.approx(-10.0, abs=1e-13)
        assert cm.V == 0.1 and cm.w == 0.0

    def test_positive_side_launch_moves_left(self):
        sc = Scenario(params=ModelParams(), v0=0.2, launch_offset=10.0)
        s = initial_state(sc)
        assert s.v1 == -0.2 and s.v2 == -0.2
        assert 0.5 * (s.x1 + s.x2) == pytest.approx(10.0, abs=1e-13)

    def test_launch_energy_is_internal_rest_energy_plus_kinetic(self):
        # far from the well the potential is the pair's own sqrt(2) plus v0^2
        p = ModelParams()
        for v0 in (0.05, 0.123, 0.3, 2.0):
            s = initial_state(Scenario(params=p, v0=v0))
            assert total_energy(s, p) == pytest.approx(math.sqrt(2.0) + v0 * v0, rel=1e-12)


class TestClassification:
    def test_no_well_means_clean_transmission(self):
        sc = Scenario(params=ModelParams(A=0.0), v0=0.25)
        rec = run_scattering(sc, CFG)
        assert rec.outcome is Outcome.TRANSMITTED
        assert abs(rec.v_final - 0.25) < 1e-10
        # 20 length units at constant speed, exit check lands next step
        assert rec.t_end == pytest.approx(20.0 / 0.25, abs=0.01)

    def test_fast_launch_transmits_with_some_energy_left_behind(self):
        sc = Scenario(params=ModelParams(), v0=2.0)
        rec = run_scattering(sc, CFG)
        assert rec.outcome is Outcome.TRANSMITTED
        assert 0.0 < rec.v_final <= 2.0 + 1e-9
        # the transit excites the internal mode, so the pair leaves slower
        assert rec.v_final < 2.0 - 0.1
        assert rec.v_final == pytest.approx(1.785098482, abs=1e-6)

    def test_reference_transmission_point(self):
        rec = run_scattering(Scenario(params=ModelParams(), v0=0.300), CFG)
        assert rec.outcome is Outcome.TRANSMITTED
        assert rec.v_final == pytest.approx(0.1311082887980848, abs=1e-9)
        assert abs(rec.v_final) <= 0.300 + 1e-9

    def test_reference_reflection_point(self):
        rec = run_scattering(Scenario(params=ModelParams(), v0=0.258), CFG)
        assert rec.outcome is Outcome.REFLECTED
        assert rec.v_final < 0.0
        assert abs(rec.v_final) <= 0.258 + 1e-9

    def test_trapped_launch_times_out_with_zero_final_velocity(self, trapped_record):
        rec = trapped_record
        assert rec.outcome is Outcome.TRAPPED
        assert rec.v_final == 0.0
        assert rec.t_end == pytest.approx(5000.0, abs=1e-9)
        assert rec.steps == 5_000_000


class TestMirrorSymmetry:
    def test_opposite_launch_is_an_exact_reflection(self):
        """The force law is odd, so the mirrored run is the same arithmetic
        with every sign flipped; results agree bit for bit."""
        p = ModelParams()
        a = run_scattering(Scenario(params=p, v0=0.300, launch_offset=-10.0), CFG)
        b = run_scattering(Scenario(params=p, v0=0.300, launch_offset=10.0), CFG)
        assert a.outcome is b.outcome
        assert a.v_final == -b.v_final
        assert a.t_end == b.t_end
        assert a.steps == b.steps
        # particle labels swap under the mirror
        assert a.final_state.x1 == -b.final_state.x2
        assert a.final_state.x2 == -b.final_state.x1
        assert a.final_state.v1 == -b.final_state.v2
        assert a.final_state.v2 == -b.final_state.v1


class TestExitRadiusInvariance:
    def test_an_exit_radius_beyond_the_launch_point_is_rejected_before_the_run(
            self, monkeypatch):
        """The scenario itself is valid (sensitivity runs it with no exit
        test); run_scattering, which tests the exit, refuses it."""
        def no_run(*args, **kwargs):
            raise AssertionError("integrate ran")

        monkeypatch.setattr(scattering, "integrate", no_run)
        sc = Scenario(params=ModelParams(), v0=0.1, exit_radius=12.0)
        with pytest.raises(ValueError, match=r"^exit_radius \(12\.0\) must not exceed "
                                             r"\|launch_offset\| \(10\.0\)"):
            run_scattering(sc, CFG)

    def test_classification_does_not_depend_on_the_detector_position(self):
        # launch from -12 so both exit radii fit inside the launch offset
        p = ModelParams()
        v0s = [0.05 + 0.025 * i for i in range(11)]
        for v0 in v0s:
            recs = [
                run_scattering(
                    Scenario(params=p, v0=v0, launch_offset=-12.0,
                             t_max=1000.0, exit_radius=radius),
                    CFG,
                )
                for radius in (10.0, 12.0)
            ]
            assert recs[0].outcome is recs[1].outcome, f"v0={v0}"
            if recs[0].outcome is not Outcome.TRAPPED:
                # CM coasts between the two radii, far outside the well
                assert abs(recs[0].v_final - recs[1].v_final) < 1e-6, f"v0={v0}"
