"""Forces, energies, and coordinate transforms of the bound-pair model."""

import math
import random

import pytest

from kinktrap.dynamics import (
    CoincidentParticles,
    ModelParams,
    State,
    accelerations,
    equilibrium_separation,
    external_force,
    external_potential,
    from_cm,
    to_cm,
    total_energy,
)
from kinktrap.integrator import IntegratorConfig, Scheme, integrate
from kinktrap.scattering import Scenario, initial_state


def _random_params(rng, attractive_only=False):
    lo = 0.1 if attractive_only else -3.0
    return ModelParams(
        k=rng.uniform(0.2, 5.0),
        alpha=rng.uniform(0.2, 5.0),
        n=rng.choice([1, 2, 3, 4]),
        A=rng.uniform(lo, 3.0),
        beta=rng.uniform(0.05, 2.0),
    )


def _random_state(rng):
    x1 = rng.uniform(-3.0, 3.0)
    # keep the pair comfortably off contact so the repulsion stays finite
    gap = rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 3.0)
    return State(t=0.0, x1=x1, v1=rng.uniform(-1.0, 1.0),
                 x2=x1 + gap, v2=rng.uniform(-1.0, 1.0))


def _potential(x1, x2, p):
    dx = x1 - x2
    return (0.5 * p.k * dx * dx + p.alpha / abs(dx) ** p.n
            - p.A * math.exp(-p.beta * x1 * x1)
            - p.A * math.exp(-p.beta * x2 * x2))


class TestModelParams:
    def test_defaults_are_the_reference_configuration(self):
        p = ModelParams()
        assert (p.k, p.alpha, p.n, p.A, p.beta) == (1.0, 1.0, 2, 2.0, 1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [dict(k=0.0), dict(k=-1.0), dict(alpha=0.0), dict(beta=-2.0),
         dict(n=0), dict(n=-1), dict(A=math.inf), dict(A=math.nan),
         dict(k=math.inf), dict(k=math.nan), dict(alpha=math.inf), dict(alpha=math.nan),
         dict(beta=math.inf), dict(beta=math.nan),
         # the free rest length (n alpha / k)^(1/(n+2)) overflows or underflows
         dict(k=1e308, alpha=1e308), dict(k=1e-300, alpha=1e300),
         dict(k=1e300, alpha=1e-320),
         # the kernels take n + 2 as a C int64
         dict(n=2**63 - 2), dict(n=2**64)],
    )
    def test_rejects_invalid_parameters(self, kwargs):
        with pytest.raises((ValueError, TypeError)):
            ModelParams(**kwargs)

    def test_largest_exponent_is_accepted(self):
        assert ModelParams(n=2**63 - 3).n == 2**63 - 3


class TestEquilibriumSeparation:
    def test_reference_parameters(self):
        assert equilibrium_separation(ModelParams()) == pytest.approx(
            2.0 ** 0.25, rel=1e-15)

    def test_scale_invariance_in_simultaneous_doubling(self):
        a = equilibrium_separation(ModelParams(k=1.0, alpha=1.0, n=2))
        b = equilibrium_separation(ModelParams(k=2.0, alpha=2.0, n=2))
        assert a == b

    def test_linear_repulsion_gives_unit_separation(self):
        assert equilibrium_separation(ModelParams(k=1.0, alpha=1.0, n=1)) == 1.0

    def test_balances_spring_against_repulsion(self):
        rng = random.Random(7)
        for _ in range(50):
            p = _random_params(rng)
            r0 = equilibrium_separation(p)
            # force balance: k*r0 == n*alpha/r0^(n+1)
            assert p.k * r0 == pytest.approx(p.n * p.alpha / r0 ** (p.n + 1),
                                             rel=1e-12)


class TestExternalForce:
    def test_vanishes_at_origin(self):
        assert external_force(0.0, ModelParams()) == 0.0

    def test_unit_displacement_reference_value(self):
        got = external_force(1.0, ModelParams(A=2.0, beta=1.0))
        assert got == pytest.approx(-4.0 * math.exp(-1.0), rel=1e-15)

    def test_decays_far_from_the_well(self):
        assert abs(external_force(50.0, ModelParams())) < 1e-100

    def test_is_minus_gradient_of_potential(self):
        rng = random.Random(11)
        h = 1e-6
        for _ in range(100):
            p = _random_params(rng)
            x = rng.uniform(-2.5, 2.5)
            fd = -(external_potential(x + h, p) - external_potential(x - h, p)) / (2 * h)
            f = external_force(x, p)
            assert abs(f - fd) <= 1e-6 * max(1.0, abs(f))

    def test_odd_under_reflection_exactly(self):
        rng = random.Random(13)
        for _ in range(100):
            p = _random_params(rng)
            x = rng.uniform(-4.0, 4.0)
            assert external_force(-x, p) == -external_force(x, p)


class TestAccelerations:
    def test_zero_at_free_equilibrium(self):
        p = ModelParams(A=0.0)
        r0 = equilibrium_separation(p)
        a1, a2 = accelerations(State(0.0, -r0 / 2, 0.0, r0 / 2, 0.0), p)
        assert abs(a1) < 1e-14 and abs(a2) < 1e-14

    def test_internal_forces_cancel_far_from_well(self):
        # shifted equilibrium pair: a1 - a2 equals the external force difference
        p = ModelParams()
        r0 = equilibrium_separation(p)
        s = State(0.0, -10.0 - r0 / 2, 0.0, -10.0 + r0 / 2, 0.0)
        a1, a2 = accelerations(s, p)
        df = external_force(s.x1, p) - external_force(s.x2, p)
        assert a1 - a2 == pytest.approx(df, abs=1e-14)

    def test_matches_finite_difference_gradient(self):
        rng = random.Random(17)
        h = 1e-6
        for _ in range(200):
            p = _random_params(rng)
            s = _random_state(rng)
            a1, a2 = accelerations(s, p)
            fd1 = -(_potential(s.x1 + h, s.x2, p) - _potential(s.x1 - h, s.x2, p)) / (2 * h)
            fd2 = -(_potential(s.x1, s.x2 + h, p) - _potential(s.x1, s.x2 - h, p)) / (2 * h)
            assert abs(a1 - fd1) <= 1e-6 * max(1.0, abs(a1))
            assert abs(a2 - fd2) <= 1e-6 * max(1.0, abs(a2))

    def test_exchange_symmetry_is_exact(self):
        rng = random.Random(19)
        for _ in range(100):
            p = _random_params(rng)
            s = _random_state(rng)
            swapped = State(s.t, s.x2, s.v2, s.x1, s.v1)
            a1, a2 = accelerations(s, p)
            b1, b2 = accelerations(swapped, p)
            assert (b1, b2) == (a2, a1)
            assert total_energy(swapped, p) == total_energy(s, p)

    def test_parity_symmetry_is_exact(self):
        rng = random.Random(23)
        for _ in range(100):
            p = _random_params(rng)
            s = _random_state(rng)
            mirrored = State(s.t, -s.x1, -s.v1, -s.x2, -s.v2)
            a1, a2 = accelerations(s, p)
            b1, b2 = accelerations(mirrored, p)
            assert (b1, b2) == (-a1, -a2)
            assert total_energy(mirrored, p) == total_energy(s, p)


class TestTotalEnergy:
    def test_rest_at_equilibrium_far_from_well(self):
        # spring and repulsion each contribute sqrt(2)/2 at the rest length
        p = ModelParams()
        r0 = equilibrium_separation(p)
        s = State(0.0, -10.0 - r0 / 2, 0.0, -10.0 + r0 / 2, 0.0)
        assert total_energy(s, p) == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_cm_boost_adds_exactly_v_squared(self):
        p = ModelParams()
        r0 = equilibrium_separation(p)
        for v in (0.1, 0.25, 2.0):
            rest = State(0.0, -10.0 - r0 / 2, 0.0, -10.0 + r0 / 2, 0.0)
            moving = State(0.0, rest.x1, v, rest.x2, v)
            gain = total_energy(moving, p) - total_energy(rest, p)
            assert gain == pytest.approx(v * v, rel=1e-12)

    def test_static_energy_without_well_is_internal_only(self):
        p = ModelParams(A=0.0)
        s = State(0.0, -0.4, 0.0, 0.8, 0.0)
        dx = s.x1 - s.x2
        assert total_energy(s, p) == 0.5 * p.k * dx * dx + p.alpha / abs(dx) ** p.n


class TestMomentumBranches:
    def test_conserved_without_external_force(self):
        p = ModelParams(A=0.0)
        cfg = IntegratorConfig(scheme=Scheme.VELOCITY_VERLET, dt=1e-3)
        s0 = State(0.0, -0.9, 0.4, 0.5, -0.2)
        res = integrate(s0, p, cfg, 2.0)
        before = s0.v1 + s0.v2
        after = res.final.v1 + res.final.v2
        assert abs(after - before) < 1e-12

    def test_violated_inside_the_well(self):
        p = ModelParams()
        cfg = IntegratorConfig(scheme=Scheme.VELOCITY_VERLET, dt=1e-3)
        s0 = initial_state(Scenario(params=p, v0=0.3, launch_offset=-2.0,
                                    exit_radius=2.0))
        res = integrate(s0, p, cfg, 10.0)
        before = s0.v1 + s0.v2
        after = res.final.v1 + res.final.v2
        assert abs(after - before) > 1e-3


class TestCMTransform:
    def test_reference_points(self):
        c = to_cm(State(0.0, 0.0, 0.0, 0.0, 0.0))
        assert (c.R, c.r, c.V, c.w) == (0.0, 0.0, 0.0, 0.0)
        c = to_cm(State(0.0, -1.0, 0.0, 1.0, 0.0))
        assert (c.R, c.r) == (0.0, 1.0)

    def test_round_trip_within_one_pair_scale_ulp(self):
        # Round-trip error rides on the pair sum x1 + x2, so for arbitrary
        # magnitudes the per-component bound is one ulp of the larger partner.
        rng = random.Random(29)
        for _ in range(300):
            s = _random_state(rng)
            back = from_cm(to_cm(s))
            xu = math.ulp(max(abs(s.x1), abs(s.x2)))
            vu = math.ulp(max(abs(s.v1), abs(s.v2)))
            assert abs(back.x1 - s.x1) <= xu
            assert abs(back.x2 - s.x2) <= xu
            assert abs(back.v1 - s.v1) <= vu
            assert abs(back.v2 - s.v2) <= vu
            assert back.t == s.t

    def test_round_trip_exact_to_one_ulp_in_scattering_regime(self):
        # Launch-like states: same-signed nearby positions subtract exactly
        # (Sterbenz), a shared pair velocity splits exactly, so the stricter
        # bound of one ulp of each component itself holds here.
        rng = random.Random(31)
        for _ in range(300):
            sign = rng.choice((-1.0, 1.0))
            x1 = sign * rng.uniform(2.0, 12.0)
            x2 = x1 + rng.uniform(0.5, 1.5)
            v0 = rng.choice((-1.0, 1.0)) * rng.uniform(0.05, 0.5)
            s = State(rng.uniform(0.0, 50.0), x1, v0, x2, v0)
            back = from_cm(to_cm(s))
            for a, b in ((s.x1, back.x1), (s.v1, back.v1),
                         (s.x2, back.x2), (s.v2, back.v2)):
                assert abs(a - b) <= math.ulp(max(abs(a), abs(b)))


class TestCoincidenceGuard:
    def test_contact_raises_with_diagnostics(self):
        p = ModelParams()
        s = State(0.0, 1.0, 0.0, 1.0, 0.0)
        with pytest.raises(CoincidentParticles) as exc:
            accelerations(s, p)
        assert exc.value.x1 == 1.0 and exc.value.x2 == 1.0
        assert exc.value.floor == 1e-12
        with pytest.raises(CoincidentParticles):
            total_energy(s, p)

    def test_floor_is_configurable(self):
        p = ModelParams()
        s = State(0.0, 0.0, 0.0, 1e-13, 0.0)
        with pytest.raises(CoincidentParticles):
            accelerations(s, p)  # default floor 1e-12
        a1, a2 = accelerations(s, p, coincidence_floor=1e-16)
        assert math.isfinite(a1) and math.isfinite(a2)
