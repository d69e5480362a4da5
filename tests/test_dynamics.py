"""Forces, energies, and coordinate transforms of the bound-pair model."""

import math
import pickle
import random

import pytest

from kinktrap._record import fields, replace
from kinktrap.dynamics import (
    DEFAULT_COINCIDENCE_FLOOR,
    MAX_EXPONENT,
    CMState,
    CoincidentParticles,
    ModelParams,
    State,
    accelerations,
    equilibrium_separation,
    from_cm,
    to_cm,
    total_energy,
)
from kinktrap.integrator import IntegratorConfig, Scheme, integrate
from kinktrap.scattering import Outcome, OutcomeRecord, Scenario, initial_state, run_scattering
from kinktrap.sweep import SweepSpec


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
         # the floor's power (n + 2 factors) underflows to zero past n = 24
         dict(n=25), dict(n=2**63 - 2), dict(n=2**64)],
    )
    def test_rejects_invalid_parameters(self, kwargs):
        with pytest.raises((ValueError, TypeError)):
            ModelParams(**kwargs)

    def test_largest_exponent_is_accepted(self):
        assert ModelParams(n=24).n == 24

    def test_the_floors_power_is_positive_up_to_the_largest_exponent(self):
        """The kernels' power loop on the coincidence floor: n + 2 factors
        stay above zero at MAX_EXPONENT and underflow to zero one past it."""
        def power(n):
            p = 1.0
            for _ in range(n + 2):
                p *= DEFAULT_COINCIDENCE_FLOOR
            return p

        assert power(MAX_EXPONENT) > 0.0
        assert power(MAX_EXPONENT + 1) == 0.0


class TestRecords:
    """The frozen-record behaviour every value class shares (kinktrap._record)."""

    def test_fields_can_be_neither_assigned_nor_deleted(self):
        p = ModelParams()
        with pytest.raises(AttributeError):
            p.k = 2.0
        with pytest.raises(AttributeError):
            p.extra = 1.0
        with pytest.raises(AttributeError):
            del p.k
        assert p == ModelParams()

    def test_equality_and_hash_go_by_class_and_field_values(self):
        a = State(0.0, 1.0, 2.0, 3.0, 4.0)
        assert a == State(0.0, 1.0, 2.0, 3.0, 4.0)
        assert hash(a) == hash(State(0.0, 1.0, 2.0, 3.0, 4.0))
        assert a != State(0.0, 1.0, 2.0, 3.0, 5.0)
        # same field names and values, another class
        assert a != CMState(0.0, 1.0, 2.0, 3.0, 4.0)
        assert len({ModelParams(), ModelParams(), ModelParams(A=1.0)}) == 2

    def test_repr_lists_the_fields_in_order(self):
        assert fields(ModelParams) == ("k", "alpha", "n", "A", "beta")
        assert repr(ModelParams(A=0.5)) == "ModelParams(k=1.0, alpha=1.0, n=2, A=0.5, beta=1.0)"
        assert repr(CMState(0.0, 1.0, 2.0, 3.0, 4.0)) == \
            "CMState(t=0.0, R=1.0, V=2.0, r=3.0, w=4.0)"

    @pytest.mark.parametrize("args, kwargs", [
        ((), {"kappa": 1.0}),                          # unknown
        ((0.0, 1.0, 2.0, 3.0), {}),                    # missing
        ((0.0, 1.0, 2.0, 3.0, 4.0), {"t": 0.0}),       # repeated
        ((0.0, 1.0, 2.0, 3.0, 4.0, 5.0), {}),          # too many
    ])
    def test_bad_arguments_raise_type_error(self, args, kwargs):
        with pytest.raises(TypeError):
            State(*args, **kwargs)

    def test_replace_validates_again(self):
        assert replace(ModelParams(), A=0.5) == ModelParams(A=0.5)
        with pytest.raises(ValueError):
            replace(ModelParams(), n=0)
        with pytest.raises(TypeError):
            replace(ModelParams(), kappa=1.0)

    def test_sweep_records_survive_pickle(self):
        """The Python fallback's fork pool pickles specs and records."""
        spec = SweepSpec(params=ModelParams(A=1.5), v_min=0.1, v_max=0.2)
        rec = run_scattering(spec.scenario(0.3), IntegratorConfig(), None)
        error = OutcomeRecord(v0=0.1, outcome=Outcome.ERROR, v_final=math.nan,
                              t_end=math.nan, energy_drift=math.nan, steps=3,
                              error="StepBudgetExhausted")
        for obj in (spec, rec):
            assert pickle.loads(pickle.dumps(obj)) == obj
        back = pickle.loads(pickle.dumps(error))
        assert repr(back) == repr(error) and back.outcome is Outcome.ERROR

    def test_scenario_takes_params_by_position(self):
        """The positional call the benchmark's set-up probe makes."""
        sc = Scenario(ModelParams(), v0=0.3, t_max=1.0)
        assert (sc.params, sc.v0, sc.t_max, sc.launch_offset) == (ModelParams(), 0.3, 1.0, -10.0)
        assert run_scattering(sc, IntegratorConfig()).outcome is Outcome.TRAPPED


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


def _partner(x, p):
    """Where particle 2 sits when particle 1 is at x: the bond's rest length
    away, on the side away from the origin, so the pair at -x is the mirror
    image of the pair at x and the internal force is at the rounding level."""
    return x + math.copysign(equilibrium_separation(p), x)


def _well_force(x1, x2, p):
    """The kernels' well force on particle 1: its acceleration in the well
    minus its acceleration with A = 0, which cancels the internal terms."""
    s = State(0.0, x1, 0.0, x2, 0.0)
    return accelerations(s, p)[0] - accelerations(s, replace(p, A=0.0))[0]


def _well_energy(x1, x2, p):
    """The kernels' well energy of the pair: total_energy in the well minus
    total_energy with A = 0."""
    s = State(0.0, x1, 0.0, x2, 0.0)
    return total_energy(s, p) - total_energy(s, replace(p, A=0.0))


class TestExternalForce:
    """The well's force, -2 A beta x exp(-beta x^2), as accelerations
    computes it (its one formula, _kernels._accel)."""

    def test_vanishes_at_origin(self):
        p = ModelParams()
        assert _well_force(0.0, _partner(0.0, p), p) == 0.0

    def test_unit_displacement_reference_value(self):
        p = ModelParams(A=2.0, beta=1.0)
        got = _well_force(1.0, _partner(1.0, p), p)
        assert got == pytest.approx(-4.0 * math.exp(-1.0), rel=1e-15)

    def test_decays_far_from_the_well(self):
        p = ModelParams()
        assert abs(_well_force(50.0, _partner(50.0, p), p)) < 1e-100

    def test_is_minus_gradient_of_potential(self):
        """Against the well energy of _kernels.pair_energy, the partner held
        still while particle 1 moves."""
        rng = random.Random(11)
        h = 1e-6
        for _ in range(100):
            p = _random_params(rng)
            x = rng.uniform(-2.5, 2.5)
            x2 = _partner(x, p)
            fd = -(_well_energy(x + h, x2, p) - _well_energy(x - h, x2, p)) / (2 * h)
            f = _well_force(x, x2, p)
            assert abs(f - fd) <= 1e-6 * max(1.0, abs(f))

    def test_odd_under_reflection_exactly(self):
        rng = random.Random(13)
        for _ in range(100):
            p = _random_params(rng)
            x = rng.uniform(-4.0, 4.0)
            assert _well_force(-x, _partner(-x, p), p) == -_well_force(x, _partner(x, p), p)


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
        # the well force -2 A beta x exp(-beta x^2) on each particle
        df = (-2.0 * p.A * p.beta) * (s.x1 * math.exp(-p.beta * s.x1 * s.x1)
                                      - s.x2 * math.exp(-p.beta * s.x2 * s.x2))
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
        """accelerations always checks DEFAULT_COINCIDENCE_FLOOR; total_energy
        takes the floor as an argument."""
        p = ModelParams()
        s = State(0.0, 0.0, 0.0, 1e-13, 0.0)
        with pytest.raises(CoincidentParticles):
            accelerations(s, p)  # default floor 1e-12
        with pytest.raises(CoincidentParticles):
            total_energy(s, p)
        assert math.isfinite(total_energy(s, p, 1e-16))
