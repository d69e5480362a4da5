"""Small-oscillation model: closed forms, trajectory evaluation, frequency extraction.

Oracle values are written out as independent expressions rather than read back
from the module, so a regression in the formulas cannot hide behind itself.
"""

import math
import random

import numpy as np
import pytest

from kinktrap import (
    CMState,
    InsufficientOscillations,
    IntegratorConfig,
    ModelParams,
    State,
    WellAbsent,
    closed_form_trajectory,
    delta_offset,
    dominant_frequency,
    equilibrium_separation,
    external_force,
    in_well_equilibrium_separation,
    integrate,
    linearized_frequencies,
)


def _random_attractive(rng):
    return ModelParams(k=rng.uniform(0.2, 5.0), alpha=rng.uniform(0.2, 5.0),
                       n=rng.choice((1, 2, 3, 4)), A=rng.uniform(0.1, 3.0),
                       beta=rng.uniform(0.05, 2.0))


class TestClosedForms:
    def test_default_frequencies_match_independent_expressions(self):
        # k = 1, A = 2, beta = 1, r_eq = 2^(1/4), so beta r_eq^2 = sqrt(2)
        lp = linearized_frequencies(ModelParams())
        root2 = math.sqrt(2.0)
        assert lp.omega_R == pytest.approx(math.sqrt(4.0 * math.exp(-root2)), rel=1e-13)
        assert lp.omega_eps == pytest.approx(math.sqrt(2.0 + 4.0 * math.exp(-root2)), rel=1e-13)
        assert lp.delta == pytest.approx(-2.0 ** 0.25 / (1.0 + 0.5 * math.exp(root2)), rel=1e-13)
        assert lp.r_eq == equilibrium_separation(ModelParams())

    def test_half_separation_reading(self):
        p = ModelParams()
        half = equilibrium_separation(p) / 2.0
        lp = linearized_frequencies(p, r_eq=half)
        assert lp.r_eq == half
        q = 2.0 * p.A * p.beta * math.exp(-p.beta * half * half)
        assert lp.omega_eps == pytest.approx(math.sqrt(2.0 * p.k + q), rel=1e-13)
        # stretch centers for the two readings, used by the comparison command
        full = linearized_frequencies(p)
        assert full.r_eq + full.delta == pytest.approx(0.800148253899938, abs=1e-12)
        assert lp.r_eq + lp.delta == pytest.approx(0.24730046779071785, abs=1e-12)

    def test_frequency_identity_holds_for_random_parameters(self):
        """omega_eps^2 - omega_R^2 == 2k whatever the well looks like."""
        rng = random.Random(11)
        for _ in range(200):
            p = _random_attractive(rng)
            r_eq = rng.uniform(0.3, 3.0)
            lp = linearized_frequencies(p, r_eq=r_eq)
            lhs = lp.omega_eps ** 2 - lp.omega_R ** 2
            assert lhs == pytest.approx(2.0 * p.k, rel=1e-13)

    def test_no_well_collapses_to_bare_spring(self):
        p = ModelParams(A=0.0)
        lp = linearized_frequencies(p)
        assert lp.omega_R == 0.0
        assert lp.omega_eps == math.sqrt(2.0 * p.k)
        assert lp.delta == 0.0

    def test_offset_warns_and_returns_zero_without_a_well(self):
        with pytest.warns(WellAbsent):
            d = delta_offset(ModelParams(A=0.0))
        assert d == 0.0

    def test_offset_agrees_between_entry_points(self):
        p = ModelParams()
        assert delta_offset(p) == linearized_frequencies(p).delta

    def test_offset_sign_and_limits(self):
        rng = random.Random(13)
        for _ in range(100):
            p = _random_attractive(rng)
            d = delta_offset(p)
            assert d < 0.0  # attractive well always shrinks the pair
            assert abs(d) < equilibrium_separation(p)
        p = ModelParams()
        r_eq = equilibrium_separation(p)
        # stiffer spring resists the shrink; deeper well wins it back
        assert abs(delta_offset(ModelParams(k=10.0))) < abs(delta_offset(p))
        assert delta_offset(ModelParams(A=1e8)) == pytest.approx(-r_eq, rel=1e-6)


class TestClosedFormTrajectory:
    def test_initial_time_reproduces_initial_condition(self):
        lp = linearized_frequencies(ModelParams())
        c0 = CMState(t=2.5, R=0.3, V=-0.1, r=0.7, w=0.2)
        c = closed_form_trajectory(lp, c0, 2.5)
        assert (c.R, c.V, c.w) == (c0.R, c0.V, c0.w)
        assert c.r == pytest.approx(c0.r, rel=1e-14)
        assert c.t == 2.5

    def test_cm_is_periodic_at_its_own_period(self):
        lp = linearized_frequencies(ModelParams())
        c0 = CMState(t=0.0, R=0.4, V=0.05, r=0.8, w=0.0)
        c = closed_form_trajectory(lp, c0, 2.0 * math.pi / lp.omega_R)
        assert c.R == pytest.approx(c0.R, abs=1e-9)
        assert c.V == pytest.approx(c0.V, abs=1e-9)

    def test_stretch_center_is_a_fixed_point(self):
        lp = linearized_frequencies(ModelParams())
        center = lp.r_eq + lp.delta
        c0 = CMState(t=0.0, R=0.0, V=0.0, r=center, w=0.0)
        for t in (0.1, 1.0, 7.3, 42.0):
            c = closed_form_trajectory(lp, c0, t)
            assert c.r == center
            assert c.w == 0.0

    def test_both_oscillators_conserve_their_quadratic_invariants(self):
        lp = linearized_frequencies(ModelParams())
        c0 = CMState(t=0.0, R=0.3, V=-0.2, r=1.0, w=0.15)
        center = lp.r_eq + lp.delta
        cm0 = lp.omega_R ** 2 * c0.R ** 2 + c0.V ** 2
        st0 = lp.omega_eps ** 2 * (c0.r - center) ** 2 + c0.w ** 2
        for t in np.linspace(0.0, 20.0, 101):
            c = closed_form_trajectory(lp, c0, float(t))
            assert lp.omega_R ** 2 * c.R ** 2 + c.V ** 2 == pytest.approx(cm0, rel=1e-10)
            assert lp.omega_eps ** 2 * (c.r - center) ** 2 + c.w ** 2 == pytest.approx(st0, rel=1e-10)

    def test_cm_drifts_freely_when_the_well_is_absent(self):
        lp = linearized_frequencies(ModelParams(A=0.0))
        c0 = CMState(t=1.0, R=-3.0, V=0.25, r=0.6, w=0.0)
        c = closed_form_trajectory(lp, c0, 9.0)
        assert c.R == pytest.approx(-3.0 + 0.25 * 8.0, rel=1e-14)
        assert c.V == 0.25


class TestDominantFrequency:
    def test_recovers_a_clean_sine(self):
        t = np.arange(0.0, 40.0, 0.01)
        f = dominant_frequency(t, np.sin(1.5 * t))
        assert f == pytest.approx(1.5, abs=1e-3)

    def test_survives_percent_level_noise(self):
        rng = np.random.default_rng(3)
        t = np.arange(0.0, 60.0, 0.01)
        xs = np.sin(1.2 * t) + 0.01 * rng.standard_normal(t.size)
        f = dominant_frequency(t, xs)
        assert f == pytest.approx(1.2, abs=1e-2)

    def test_offset_and_amplitude_do_not_matter(self):
        # mean subtraction and the relative hysteresis band make the estimate
        # invariant under x -> a + b*x, up to rounding in the interpolation
        t = np.arange(0.0, 50.0, 0.01)
        bare = dominant_frequency(t, np.sin(0.8 * t))
        shifted = dominant_frequency(t, 5.0 + 0.03 * np.sin(0.8 * t))
        assert shifted == pytest.approx(bare, rel=1e-6)
        assert shifted == pytest.approx(0.8, abs=5e-3)

    def test_flat_series_raises(self):
        t = np.arange(0.0, 10.0, 0.1)
        with pytest.raises(InsufficientOscillations) as exc:
            dominant_frequency(t, np.ones_like(t))
        assert exc.value.crossings == 0

    def test_too_few_crossings_raises_with_count(self):
        t = np.arange(0.0, 4.0, 0.01)  # barely over half a period of sin
        with pytest.raises(InsufficientOscillations) as exc:
            dominant_frequency(t, np.sin(t))
        assert exc.value.crossings < 4

    def test_shape_mismatch_is_rejected(self):
        with pytest.raises(ValueError):
            dominant_frequency(np.arange(5.0), np.arange(6.0))
        with pytest.raises(ValueError):
            dominant_frequency(np.arange(6.0).reshape(2, 3), np.arange(6.0).reshape(2, 3))


class TestInWellEquilibrium:
    def test_root_zeroes_the_net_force(self):
        rng = random.Random(17)
        for _ in range(60):
            p = _random_attractive(rng)
            s = in_well_equilibrium_separation(p)
            net = (p.k * s - p.n * p.alpha / s ** (p.n + 1)
                   + p.A * p.beta * s * math.exp(-p.beta * s * s / 4.0))
            assert abs(net) < 1e-9

    def test_default_root_is_stable(self):
        assert in_well_equilibrium_separation(ModelParams()) == pytest.approx(
            0.9359141408358356, abs=1e-12)

    def test_attractive_well_shrinks_the_pair(self):
        p = ModelParams()
        assert in_well_equilibrium_separation(p) < equilibrium_separation(p)

    def test_repulsive_bump_dilates_the_pair(self):
        p = ModelParams(A=-0.5)
        s = in_well_equilibrium_separation(p)
        assert s > equilibrium_separation(p)
        net = (p.k * s - p.n * p.alpha / s ** (p.n + 1)
               + p.A * p.beta * s * math.exp(-p.beta * s * s / 4.0))
        assert abs(net) < 1e-9

    def test_no_well_returns_the_free_equilibrium(self):
        p = ModelParams(A=0.0)
        assert in_well_equilibrium_separation(p) == equilibrium_separation(p)


class TestStretchFrequencyInvariant:
    def test_full_dynamics_matches_a_linearized_reading(self):
        """Each omega_eps reading is the stretch frequency of its own spring.

        omega_eps = sqrt(2k + 2 A beta e^(-beta r_eq^2)) linearizes a harmonic
        bond of stiffness k and rest half-length r_eq in the well; it omits
        the repulsion curvature, so it is not the stretch frequency of the
        model's bond (stiffness (n+2)k at rest).  Integrate, through the
        accel_fn seam, exactly that bond plus the model's well force, started
        0.01 off the stretch center with R = 0, and measure the frequency of
        r.  In this wide, deep well (beta = 0.01, A = 50) the well term moves
        omega_eps by 22% off the bare sqrt(2k), so a 10% tolerance still
        catches a wrong well term; the readings match within 0.1%.
        """
        p = ModelParams(A=50.0, beta=0.01)
        r0 = equilibrium_separation(p)
        for r_eq in (r0, r0 / 2.0):
            rest = 2.0 * r_eq

            def bond_and_well(x1, x2):
                pull = p.k * ((x2 - x1) - rest)
                return pull + external_force(x1, p), -pull + external_force(x2, p)

            lp = linearized_frequencies(p, r_eq=r_eq)
            r = lp.r_eq + lp.delta + 0.01
            state = State(0.0, -r, 0.0, r, 0.0)
            run = integrate(state, p, IntegratorConfig(), 60.0, record_every=10,
                            accel_fn=bond_and_well)
            traj = run.trajectory
            measured = dominant_frequency(traj.t, traj.r)
            gap = abs(measured - lp.omega_eps) / lp.omega_eps
            assert gap < 0.10, f"r_eq={r_eq}: measured {measured:.6f} vs omega_eps {lp.omega_eps:.6f}"
