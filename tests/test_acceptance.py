"""Acceptance gate: every release-blocking behavior in one module.

Each test prints one line naming its criterion and the measured values, so
`pytest -s tests/test_acceptance.py` reads as a checklist.  Reference
values for the comparison table come with wide tolerances on settling time
(the source integrator and settling rule are not documented) and
order-of-magnitude tolerance (factor of three) on the norm columns, whose
sampling convention is likewise undocumented.
"""

import filecmp
import math
from dataclasses import replace

import numpy as np
import pytest

from presto import galerkin_coefficients, load_scenario, run_scenario
from presto.cli import main as cli_main
from presto.config import load_beam_params
from presto.estimator import augmented_transition, transition_jacobian
from presto.mathcore import ExponentPair, prescribed_time_bound, signed_pow
from presto.plant import DisturbanceSpec, DisturbanceTerm
from presto.tuner import PsoConfig, pso_run
from test_plant import ORACLE_PARAMS, worst_quadrature_error


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{name}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{name}: {detail}"


class TestCriterion1UnsaturatedSettling:
    def test_settling_time_and_runtime(self, bundled_runs):
        _, _, report, seconds = bundled_runs["s71"]
        lo, hi = 1.9 * 0.7, 1.9 * 1.3
        ok = report.t_s is not None and lo <= report.t_s <= hi and seconds < 10.0
        _report(
            "criterion 1",
            ok,
            f"unsaturated settling t_s={report.t_s} in [{lo:.2f}, {hi:.2f}], "
            f"runtime {seconds:.2f}s < 10s",
        )


class TestCriterion2SaturatedSettling:
    def test_settling_time_and_containment(self, bundled_runs):
        sc, trace, report, _ = bundled_runs["s72"]
        lo, hi = 2.6 * 0.7, 2.6 * 1.3
        u = trace.column("u")
        contained = bool(np.all(u >= -30.0) and np.all(u <= 10.0))
        ok = report.t_s is not None and lo <= report.t_s <= hi and contained
        _report(
            "criterion 2",
            ok,
            f"saturated settling t_s={report.t_s} in [{lo:.2f}, {hi:.2f}], "
            f"u range [{u.min():.3f}, {u.max():.3f}] inside [-30, 10]",
        )


class TestCriterion3BaselineOrdering:
    def test_smc_is_slowest_and_in_band(self, bundled_runs):
        _, _, r71, _ = bundled_runs["s71"]
        _, _, r72, _ = bundled_runs["s72"]
        _, _, r74, _ = bundled_runs["s74"]
        lo, hi = 6.7 * 0.6, 6.7 * 1.4
        ok = (
            r74.t_s is not None
            and lo <= r74.t_s <= hi
            and r71.t_s is not None
            and r72.t_s is not None
            and r74.t_s > r71.t_s
            and r74.t_s > r72.t_s
        )
        _report(
            "criterion 3",
            ok,
            f"baseline t_s={r74.t_s} in [{lo:.2f}, {hi:.2f}] and slower than "
            f"terminal laws ({r71.t_s}, {r72.t_s})",
        )


def _k1_entry_time(trace, k1_true: float) -> float:
    """The time from which K1_hat stays inside +/-5% of k1_true to the end:
    the first sample time, the sample after the last one outside, or inf
    when the last sample is outside."""
    k1 = trace.column("K1_hat")
    t = trace.times()
    outside = np.nonzero((k1 < k1_true * 0.95) | (k1 > k1_true * 1.05))[0]
    if outside.size == 0:
        return float(t[0])
    if outside[-1] + 1 < len(k1):
        return float(t[outside[-1] + 1])
    return math.inf


class TestCriterion4ParameterConvergence:
    def test_ten_seeded_realizations(self):
        base = load_scenario("s73")
        k1_true = base.plant.K1
        enters = [_k1_entry_time(run_scenario(replace(base, seed=seed))[0], k1_true)
                  for seed in range(10)]
        ok = all(te <= 5.0 for te in enters)
        _report(
            "criterion 4",
            ok,
            f"stiffness estimate inside +/-5% of {k1_true} from "
            f"t={max(enters):.3f} at the latest (10 seeds, must be <= 5)",
        )


class TestReducedBeamClosedLoop:
    """The bundled s71, s72 and s73 gains on the paper's plant, the closed-form
    Galerkin reduction of `beam.cfg`: K1 = 90.846, K2 = +24.35, g = -24.

    lambda = 12 is `beam.cfg`'s bundled value, and it sets g = -2*lambda.
    lambda = 0.545 would give the bundled g = -1.09, so choosing it would be
    a calibration to the bundled plant, not a property of the beam.
    Criteria 1-3's bands are calibrated to the published table on the
    bundled plant, so none of them applies here, and this sets no band of
    its own.  It checks the paper's qualitative claims: the terminal laws
    settle, the saturated commands stay in their clamp, and the stiffness
    estimate meets criterion 4's rule around the reduced K1.  s74 stays out:
    its [smc] interval [94.8, 100] excludes the reduced K1, which `presto
    validate` warns about, and it diverges at t = 9.3154.
    """

    def test_bundled_gains_settle_and_estimate_the_reduced_k1(self):
        plant = galerkin_coefficients(load_beam_params("beam"))
        runs = {name: run_scenario(replace(load_scenario(name), plant=plant))
                for name in ("s71", "s72")}
        s73 = replace(load_scenario("s73"), plant=plant)
        seeded = [run_scenario(replace(s73, seed=seed))[0] for seed in range(10)]
        enters = [_k1_entry_time(trace, plant.K1) for trace in seeded]
        sat = s73.tsmc.sat
        assert load_scenario("s72").tsmc.sat == sat
        contained = all(bool(np.all((trace.column("u") >= sat.u_min)
                                    & (trace.column("u") <= sat.u_max)))
                        for trace in [runs["s72"][0], *seeded])
        t_s = {name: report.t_s for name, (_, report) in runs.items()}
        ok = None not in t_s.values() and contained and all(te <= 5.0 for te in enters)
        _report(
            "reduced beam",
            ok,
            f"t_s {t_s} settled, u inside [{sat.u_min:g}, {sat.u_max:g}] for s72 and "
            f"s73, K1_hat inside +/-5% of {plant.K1:.5g} from t={max(enters):.3f} at the "
            "latest (10 seeds, must be <= 5)",
        )


class TestCriterion5ObserverDeadline:
    def test_fifty_randomized_runs(self):
        base = load_scenario("s71")
        og = base.observer
        gamma = (og.e0.p + og.e0.q) / (2 * og.e0.q)
        xi = og.eps * 2**gamma
        rng = np.random.default_rng(550)
        worst_margin = math.inf
        for trial in range(50):
            s0 = float(rng.uniform(-2.0, 2.0))
            amp1 = float(rng.uniform(0.0, 0.45 * og.beta0))
            amp2 = float(rng.uniform(0.0, 0.45 * og.beta0))
            spec = DisturbanceSpec(
                terms=(
                    DisturbanceTerm(amp1, "sin_linear", float(rng.uniform(0.05, 0.5))),
                    DisturbanceTerm(amp2, "sin_sqrt", float(rng.uniform(0.05, 0.5))),
                )
            )
            sc = replace(
                base,
                disturbance=spec,
                z0_offset=s0,
                horizon=0.5,
                decimation=1,
            )
            trace, _ = run_scenario(sc)
            s = trace.column("s")
            hits = np.nonzero(np.abs(s) <= 1e-3)[0]
            bound = prescribed_time_bound(theta=2 * og.k, xi=xi, gamma=gamma, V0=0.5 * s0 * s0)
            assert hits.size > 0, f"trial {trial}: auxiliary error never reached 1e-3"
            crossing = float(trace.times()[hits[0]])
            worst_margin = min(worst_margin, bound - crossing)
            assert crossing <= bound, (
                f"trial {trial}: crossing {crossing:.4f} exceeded deadline {bound:.4f}"
            )
        _report(
            "criterion 5",
            worst_margin >= 0.0,
            f"50/50 randomized runs reached |s|<=1e-3 before the deadline "
            f"(worst margin {worst_margin:.4f})",
        )


class TestCriterion6SlidingDynamicsOracle:
    def test_finite_difference_matches_decay_law(self, ideal_s71):
        # the first 2.0 s of the idealized loop, which feeds d_hat = d
        sc, trace = ideal_s71
        dt = sc.dt
        s2 = trace.column("s2")[: int(round(2.0 / dt))]
        delta, mu = sc.tsmc.delta, sc.tsmc.mu
        e2 = sc.tsmc.e2
        band = 10 * dt * (sc.observer.beta0 + sc.observer.eps)
        worst = 0.0
        checked = 0
        for i in range(len(s2) - 1):
            if abs(s2[i]) <= band:
                continue
            fd = (s2[i + 1] - s2[i]) / dt
            model = -delta * s2[i] - mu * signed_pow(float(s2[i]), e2)
            rel = abs(fd - model) / abs(model)
            worst = max(worst, rel)
            checked += 1
        ok = checked > 5000 and worst < 5 * dt
        _report(
            "criterion 6",
            ok,
            f"finite-difference surface rate matches the decay law: worst "
            f"relative error {worst:.2e} < {5 * dt:.0e} over {checked} samples",
        )


class TestCriterion7QuadratureOracle:
    def test_mode_integrals_match_closed_forms(self):
        # the library's closed-form K1, K2, g against the test-side Galerkin
        # assembly from quadrature of all seven mode integrals
        worst = worst_quadrature_error(ORACLE_PARAMS)
        _report(
            "criterion 7",
            worst < 1e-8,
            f"closed-form K1, K2, g match the assembly from seven quadrature mode "
            f"integrals (worst rel err {worst:.2e})",
        )


class TestCriterion8EstimatorAlgebra:
    def test_jacobian_and_scalar_oracles(self):
        from presto.estimator import EkfConfig, EkfState, ekf_predict, ekf_update

        cfg = EkfConfig(
            Ts=1e-3,
            q_diag=(1e-4, 1e-4, 1e-2),
            R=0.01,
            p0_diag=(1.0, 1.0, 1.0),
            x0_hat=(0.0, 0.0, 0.0),
        )
        rng = np.random.default_rng(88)
        worst = 0.0
        for _ in range(100):
            x = rng.uniform(-1, 1, size=3) * np.array([2.0, 10.0, 100.0])
            F = transition_jacobian(x, cfg, -19.97)
            h = 1e-6
            for j in range(3):
                e = np.zeros(3)
                e[j] = h
                fd = (
                    augmented_transition(x + e, 0.4, cfg, -19.97, -1.09)
                    - augmented_transition(x - e, 0.4, cfg, -19.97, -1.09)
                ) / (2 * h)
                for i in range(3):
                    # entries can cancel to ~0; floor the scale at the
                    # matrix's natural unit (its diagonal is exactly 1)
                    scale = max(abs(F[i, j]), abs(fd[i]), 1.0)
                    worst = max(worst, abs(F[i, j] - fd[i]) / scale)
        jac_ok = worst < 1e-6

        cfg0 = EkfConfig(
            Ts=0.0, q_diag=(1.0, 0.0, 0.0), R=1.0, p0_diag=(1.0, 1.0, 1.0), x0_hat=(0.0, 0.0, 0.0)
        )
        st = EkfState(x_hat=(0.0, 0.0, 0.0), P=(1.0, 0.0, 0.0, 0.0, 0.0, 0.0))
        st = ekf_predict(st, 0.0, cfg0, -19.97, -1.09)
        predict_ok = abs(st.P[0] - 2.0) < 1e-12
        st, _ = ekf_update(st, 2.0, cfg0)
        update_ok = (
            abs(st.x_hat[0] - 4.0 / 3.0) < 1e-12 and abs(st.P[0] - 2.0 / 3.0) < 1e-12
        )
        ok = jac_ok and predict_ok and update_ok
        _report(
            "criterion 8",
            ok,
            f"jacobian vs central differences worst rel err {worst:.2e} < 1e-6; "
            f"scalar oracle P: 1->2->2/3 and mean 0->4/3 to 1e-12",
        )


class TestCriterion9SwarmSanity:
    def test_sphere_benchmark_ten_seeds(self):
        center = np.array([0.5, -1.2, 2.3])

        def sphere(x, bound):
            return float(np.sum((x - center) ** 2))

        worst_cost = 0.0
        for seed in range(10):
            cfg = PsoConfig(
                bounds=((-5.0, 5.0),) * 3, swarm_size=20, max_generations=100, seed=seed
            )
            res = pso_run(sphere, cfg)
            assert all(
                b <= a + 1e-18 for a, b in zip(res.history, res.history[1:])
            ), f"seed {seed}: best-cost history increased"
            worst_cost = max(worst_cost, res.best_cost)
        _report(
            "criterion 9",
            worst_cost < 1e-4,
            f"sphere benchmark reached cost < 1e-4 on 10/10 seeds "
            f"(worst {worst_cost:.2e}); histories nonincreasing",
        )


class TestCriterion10Determinism:
    def test_repeated_comparison_is_byte_identical(self, tmp_path):
        names = ["s71", "s72", "s73", "s74"]
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        assert cli_main(["compare", *names, "--out", str(dir_a)]) == 0
        assert cli_main(["compare", *names, "--out", str(dir_b)]) == 0
        files = sorted(p.name for p in dir_a.iterdir())
        assert files == sorted(p.name for p in dir_b.iterdir())
        mismatched = [
            name
            for name in files
            if not filecmp.cmp(dir_a / name, dir_b / name, shallow=False)
        ]
        _report(
            "criterion 10",
            not mismatched,
            f"two comparison runs produced byte-identical outputs ({len(files)} files)"
            + (f"; mismatched: {mismatched}" if mismatched else ""),
        )


REFERENCE_TABLE = {
    # published comparison rows: u_l2, u_linf, ey_l2, ey_linf
    "s71": (1316.9, 999.3451, 6.6577, 1.0117),
    "s72": (399.9741, None, 17.0777, 1.1759),  # u_linf checked by containment only
    "s74": (894.6961, 73.1680, 25.8225, 2.4259),
}


class TestComparisonTableAgreement:
    """Order-of-magnitude checks on the norm columns (factor of three)."""

    @pytest.mark.parametrize("name", ["s71", "s72", "s74"])
    def test_norms_within_factor_three(self, bundled_runs, name):
        _, _, report, _ = bundled_runs[name]
        ref_u2, ref_uinf, ref_ey2, ref_eyinf = REFERENCE_TABLE[name]
        checks = [
            ("u_l2", report.u_l2, ref_u2),
            ("u_linf", report.u_linf, ref_uinf),
            ("ey_l2", report.ey_l2, ref_ey2),
            ("ey_linf", report.ey_linf, ref_eyinf),
        ]
        bad = []
        for label, got, ref in checks:
            if ref is None:
                continue
            if not (ref / 3.0 <= got <= ref * 3.0):
                bad.append(f"{label}={got:.4g} vs {ref}")
        _report(
            f"table row {name}",
            not bad,
            "norms within factor 3 of the published row"
            + (f"; out of band: {bad}" if bad else ""),
        )

    def test_adaptive_row_effort_within_factor_three(self, bundled_runs):
        _, _, report, _ = bundled_runs["s73"]
        ok = 229.5822 / 3.0 <= report.u_l2 <= 229.5822 * 3.0
        _report(
            "table row s73",
            ok,
            f"adaptive clamped-effort norm u_l2={report.u_l2:.4g} within factor 3 "
            f"of 229.5822 (estimation-error cells are not reproducible and are "
            f"not asserted)",
        )

    def test_saturation_reduces_control_effort(self, bundled_runs):
        _, _, r71, _ = bundled_runs["s71"]
        _, _, r72, _ = bundled_runs["s72"]
        ok = r72.u_l2 < r71.u_l2 and r72.u_linf < r71.u_linf
        _report(
            "table ordering",
            ok,
            f"clamped run uses less effort: u_l2 {r72.u_l2:.1f} < {r71.u_l2:.1f}, "
            f"u_linf {r72.u_linf:.1f} < {r71.u_linf:.1f}",
        )

    def test_estimation_error_only_in_adaptive_row(self, bundled_runs):
        _, _, r73, _ = bundled_runs["s73"]
        ok = r73.ex_l2 is not None and r73.ex_linf is not None
        for name in ("s71", "s72", "s74"):
            _, _, r, _ = bundled_runs[name]
            ok = ok and r.ex_l2 is None and r.ex_linf is None
        _report(
            "table columns",
            ok,
            "estimation-error norms reported only for the adaptive row",
        )
