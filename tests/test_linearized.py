"""Small-oscillation model: closed forms and frequency extraction.

Oracle values are written out as independent expressions rather than read back
from the module, so a regression in the formulas cannot hide behind itself.
"""

import math
import random
import tracemalloc

import numpy as np
import pytest

from kinktrap import (
    CMState,
    InsufficientOscillations,
    IntegratorConfig,
    ModelParams,
    State,
    accelerations,
    dominant_frequency,
    equilibrium_separation,
    in_well_equilibrium_separation,
    linearized_frequencies,
    measured_frequency,
)
from kinktrap._record import replace


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

    def test_offset_sign_and_limits(self):
        rng = random.Random(13)
        for _ in range(100):
            p = _random_attractive(rng)
            d = linearized_frequencies(p).delta
            assert d < 0.0  # attractive well always shrinks the pair
            assert abs(d) < equilibrium_separation(p)
        p = ModelParams()
        r_eq = equilibrium_separation(p)
        # stiffer spring resists the shrink; deeper well wins it back
        def delta(params):
            return linearized_frequencies(params).delta

        assert abs(delta(ModelParams(k=10.0))) < abs(delta(p))
        assert delta(ModelParams(A=1e8)) == pytest.approx(-r_eq, rel=1e-6)


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
        with pytest.raises(ValueError):  # float64 buffers only
            dominant_frequency([0.0, 1.0, 0.0], [0.0, 1.0, 0.0])

    def test_a_long_probe_is_timed_without_copying_its_columns(self):
        """One call on a linear-compare probe's 500,001 samples allocates
        less than half of one 4 MB float64 column: the samples are read
        from their buffers, never gathered into Python lists."""
        t = np.arange(500_001) * 0.01
        xs = np.sin(1.3 * t)
        tracemalloc.start()
        try:
            f = dominant_frequency(t, xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert f == pytest.approx(1.3, abs=1e-3)
        assert peak < 2e6


class TestMeasuredFrequency:
    @pytest.mark.parametrize("t_max", [-5.0, 0.0, 2.5])
    def test_a_horizon_not_after_the_start_is_rejected(self, t_max):
        """A probe that cannot run a step is bad input, not a run that found
        no oscillation."""
        c0 = CMState(t=2.5, R=0.1, V=0.0, r=0.5, w=0.0)
        with pytest.raises(ValueError, match=r"^t_max must be after the start time 2\.5"):
            measured_frequency(ModelParams(), c0, IntegratorConfig(), t_max,
                               use_cm_coordinate=True)


class TestInWellEquilibrium:
    def test_root_zeroes_the_net_force(self):
        rng = random.Random(17)
        for _ in range(60):
            p = _random_attractive(rng)
            s = in_well_equilibrium_separation(p)
            net = (p.k * s - p.n * p.alpha / s ** (p.n + 1)
                   + p.A * p.beta * s * math.exp(-p.beta * s * s / 4.0))
            assert abs(net) < 1e-9

    def test_root_is_a_sign_change_of_the_kernels_force(self):
        """The force accelerations gives on the left particle of the pair
        centered in the well goes from <= 0 to > 0 between the root's
        neighbouring floats: the root of the force the runs integrate."""
        def force(p, s):
            return accelerations(State(0.0, -0.5 * s, 0.0, 0.5 * s, 0.0), p)[0]

        rng = random.Random(19)
        for i in range(400):
            p = _random_attractive(rng)
            if i % 4 == 0:
                p = replace(p, A=-rng.uniform(0.05, 0.5) * p.k / p.beta)
            s = in_well_equilibrium_separation(p)
            below, above = math.nextafter(s, 0.0), math.nextafter(s, math.inf)
            assert (force(p, below) <= 0.0 < force(p, s)
                    or force(p, s) <= 0.0 < force(p, above)), p

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
        model's bond (stiffness (n+2)k at rest).  That bond plus the model's
        well force is not the package's model, so this test integrates it
        with its own velocity Verlet loop (dt = 1e-3 to t = 60, a sample
        every 10 steps), started 0.01 off the stretch center with R = 0, and
        measures the frequency of r.  In this wide, deep well (beta = 0.01,
        A = 50) the well term moves omega_eps by 22% off the bare sqrt(2k),
        so a 10% tolerance still catches a wrong well term; the readings
        match within 0.1%.
        """
        p = ModelParams(A=50.0, beta=0.01)
        r0 = equilibrium_separation(p)
        dt = 1e-3

        def well(x):
            return -2.0 * p.A * p.beta * x * math.exp(-p.beta * x * x)

        for r_eq in (r0, r0 / 2.0):
            rest = 2.0 * r_eq

            def bond_and_well(x1, x2):
                pull = p.k * ((x2 - x1) - rest)
                return pull + well(x1), -pull + well(x2)

            lp = linearized_frequencies(p, r_eq=r_eq)
            r = lp.r_eq + lp.delta + 0.01
            x1, v1, x2, v2 = -r, 0.0, r, 0.0
            a1, a2 = bond_and_well(x1, x2)
            ts, rs = [0.0], [r]
            for i in range(1, 60_001):
                v1 += 0.5 * dt * a1
                v2 += 0.5 * dt * a2
                x1 += dt * v1
                x2 += dt * v2
                a1, a2 = bond_and_well(x1, x2)
                v1 += 0.5 * dt * a1
                v2 += 0.5 * dt * a2
                if i % 10 == 0:
                    ts.append(i * dt)
                    rs.append(0.5 * (x2 - x1))
            measured = dominant_frequency(np.array(ts), np.array(rs))
            gap = abs(measured - lp.omega_eps) / lp.omega_eps
            assert gap < 0.10, f"r_eq={r_eq}: measured {measured:.6f} vs omega_eps {lp.omega_eps:.6f}"
