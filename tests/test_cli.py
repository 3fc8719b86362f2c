import textwrap
import warnings

import pytest

from conftest import edit_config
from presto.cli import main
from presto.config import resolve_config_path


class TestUsage:
    def test_no_arguments(self, capsys):
        assert main([]) == 1

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate", "x.cfg"]) == 1

    def test_help_exits_clean(self):
        assert main(["--help"]) == 0


class TestValidate:
    def test_bundled_configs_pass(self, capsys):
        for name in ("s71", "s72", "s73", "s74", "compare", "tune_s71"):
            assert main(["validate", name]) == 0
        out = capsys.readouterr().out
        assert "OK" in out

    def test_gate_violation_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(
            textwrap.dedent(
                """
                [scenario]
                kind = tsmc
                x0 = 1.0, 5.0

                [plant]
                K1 = 97.4
                K2 = -19.97
                g = -1.09

                [observer]
                k = 4.0
                beta0 = 7.0
                eps = 10.0
                p0 = 1
                q0 = 7

                [controller]
                alpha1 = 100.0
                beta1 = 9.0
                delta = 5.0
                mu = 1e-4
                p1 = 1
                q1 = 3
                p2 = 1
                q2 = 3
                """
            )
        )
        assert main(["validate", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "p1/q1 > 1/2" in err

    def test_tune_job_checks_pso(self, tmp_path, capsys):
        cfg = tmp_path / "job.cfg"
        cfg.write_text(resolve_config_path("s71").read_text() + "\n[pso]\ntune = warp\n")
        assert main(["validate", str(cfg)]) == 1
        assert "warp" in capsys.readouterr().err

    def test_missing_config_exits_one(self, capsys):
        assert main(["validate", "nope.cfg"]) == 1

    def test_oversized_disturbance_warns_but_passes(self, tmp_path, capsys):
        cfg = tmp_path / "loud.cfg"
        base = textwrap.dedent(
            """
            [scenario]
            kind = tsmc
            x0 = 1.0, 5.0

            [plant]
            K1 = 97.4
            K2 = -19.97
            g = -1.09

            [disturbance]
            terms = 9.0 sin_linear 0.1

            [observer]
            k = 4.0
            beta0 = 7.0
            eps = 10.0
            p0 = 1
            q0 = 7

            [controller]
            alpha1 = 100.0
            beta1 = 9.0
            delta = 5.0
            mu = 1e-4
            p1 = 3
            q1 = 5
            p2 = 1
            q2 = 3
            """
        )
        cfg.write_text(base)
        assert main(["validate", str(cfg)]) == 0
        err = capsys.readouterr().err
        assert "beta0" in err


class TestCoeffs:
    def test_prints_both_variants(self, capsys):
        assert main(["coeffs", "beam"]) == 0
        # the variant lines byte for byte, below the parameter header
        assert capsys.readouterr().out.splitlines()[1:] == [
            "  mass_term=as_printed   K1=10.01299716  K2=2.684082998  g=-2.645255849",
            "  mass_term=phi_squared  K1=90.84638519  K2=24.35227276  g=-24",
        ]

    def test_mass_term_must_name_a_variant(self, tmp_path, capsys):
        cfg = tmp_path / "beam.cfg"
        cfg.write_text("[beam]\nalpha = 0.1\nbeta = 0.05\nmass_term = phi\n")
        assert main(["coeffs", str(cfg)]) == 1
        assert "mass_term must be one of as_printed, phi_squared, got 'phi'" in capsys.readouterr().err

    def test_beam_error_names_the_file(self, tmp_path, capsys):
        cfg = tmp_path / "badbeam.cfg"
        cfg.write_text("[beam]\nalpha = abc\nbeta = 0.05\n")
        assert main(["coeffs", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert f"error: {cfg}: [beam] alpha: could not convert" in err


class TestSimulate:
    def test_bundled_scenario(self, tmp_path, capsys):
        assert main(["simulate", "s71", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "s71.csv").exists()
        assert (tmp_path / "s71_report.txt").exists()
        assert (tmp_path / "s71_report.csv").exists()
        out = capsys.readouterr().out
        assert "t_s" in out or "scenario" in out

    def test_divergent_scenario_exits_two(self, tmp_path, capsys):
        # unstable spring, clamp far too weak to hold it
        cfg = tmp_path / "diverge.cfg"
        cfg.write_text(
            textwrap.dedent(
                """
                [scenario]
                kind = tsmc_saturated
                x0 = 1.0, 5.0
                dt = 1e-4
                horizon = 4.0
                label = boom

                [plant]
                K1 = -50.0
                K2 = -19.97
                g = -1.09

                [observer]
                k = 5.0
                beta0 = 6.0
                eps = 10.0
                p0 = 1
                q0 = 7

                [controller]
                alpha1 = 4.9
                beta1 = 3.0
                delta = 3.0
                mu = 0.01
                tau = 3.7
                u_min = -0.1
                u_max = 0.1
                p1 = 3
                q1 = 5
                p2 = 1
                q2 = 3
                """
            )
        )
        assert main(["simulate", str(cfg), "--out", str(tmp_path)]) == 2
        assert (tmp_path / "boom_partial.csv").exists()

    def test_divergence_before_first_sample_keeps_the_header(self, tmp_path, capsys):
        # the first EKF update runs away before the first sample is logged
        edited = edit_config(S73_TEXT, ("x0_hat = 1.0, 5.0, 20.0", "x0_hat = 1.0e110, 5.0, 20.0"),
                             ("horizon = 8.0", "horizon = 0.1"))
        cfg = tmp_path / "early.cfg"
        cfg.write_text(edited)
        header = "t,x1,x2,u,d,d_hat,s,s2,v_r,u_c,x1_hat,x2_hat,K1_hat,e_x,innov,P_trace\n"
        assert main(["simulate", str(cfg), "--out", str(tmp_path)]) == 2
        assert "EKF diverged at t=0.0000" in capsys.readouterr().err
        assert (tmp_path / "early_partial.csv").read_text() == header
        assert main(["compare", str(cfg), "--out", str(tmp_path / "cmp")]) == 2
        assert (tmp_path / "cmp" / "early.csv").read_text() == header

    def test_singular_filter_exits_two(self, tmp_path, capsys):
        # r = 0 with a filter certain of everything but x1: the first update
        # leaves P = 0, Q = 0 keeps it there, and the second update, at
        # t = Ts, divides by S = P[0,0] + r = 0
        edited = edit_config(S73_TEXT, ("horizon = 8.0", "horizon = 0.1"),
                             ("q_diag = 2.025e-11, 2.25e-6, 1e-2", "q_diag = 0.0, 0.0, 0.0"),
                             ("r = 0.01", "r = 0.0"),
                             ("p0_diag = 0.01, 0.01, 6000.0", "p0_diag = 1.0, 0.0, 0.0"))
        cfg = tmp_path / "singular.cfg"
        cfg.write_text(edited)
        assert main(["validate", str(cfg)]) == 0
        assert main(["simulate", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "EKF diverged at t=0.0060 (singular innovation covariance S=0.0)" in err
        assert "Traceback" not in err
        lines = (tmp_path / "singular_partial.csv").read_text().splitlines()
        assert lines[0].startswith("t,x1,x2,") and len(lines) == 1 + 6
        out = tmp_path / "cmp"
        assert main(["compare", "s71", str(cfg), "--out", str(out)]) == 2
        rows = (out / "report.txt").read_text().splitlines()
        assert rows[1].startswith("s71") and "FAILED" not in rows[1]
        assert rows[2].startswith("singular") and "FAILED: EKF diverged" in rows[2]

    def test_beta0_note_is_printed_once(self, tmp_path, capsys):
        text = resolve_config_path("s71").read_text()
        cfg = tmp_path / "loud.cfg"
        cfg.write_text(edit_config(text, ("horizon = 8.0", "horizon = 1.0"), (
            "terms = 2.0 sin_linear 0.1; 3.0 sin_sqrt 0.2", "terms = 10.0 sin_linear 0.4")))
        for command in ("simulate", "compare"):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert main([command, str(cfg), "--out", str(tmp_path)]) == 0
            assert not caught, command
            err = capsys.readouterr().err
            assert err.count("beta0") == 1 and err.startswith("note"), (command, err)

    def test_tuning_job_runs_its_template_scenario(self, tmp_path, capsys):
        assert main(["simulate", "tune_s71", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "tune_s71.csv").exists()

    def test_clamp_on_tsmc_kind_exits_one(self, tmp_path, capsys):
        text = resolve_config_path("s71").read_text()
        cfg = tmp_path / "clamped.cfg"
        clamp = "[controller]\ntau = 3.7\nu_min = -1\nu_max = 1\n"
        cfg.write_text(edit_config(text, ("[controller]\n", clamp)))
        assert main(["simulate", str(cfg), "--out", str(tmp_path)]) == 1
        assert "saturated kinds only, not to tsmc" in capsys.readouterr().err
        assert not (tmp_path / "clamped.csv").exists()


class TestTune:
    def test_tiny_job(self, tmp_path, capsys):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(
            textwrap.dedent(
                """
                [scenario]
                kind = tsmc
                x0 = 1.0, 5.0
                dt = 1e-3
                horizon = 1.0
                decimation = 1
                threshold_fraction = 0.05
                hold_duration = 0.2

                [plant]
                K1 = 97.4
                K2 = -19.97
                g = -1.09

                [observer]
                k = 4.0
                beta0 = 7.0
                eps = 10.0
                p0 = 1
                q0 = 7

                [controller]
                alpha1 = 100.0
                beta1 = 9.0
                delta = 5.0
                mu = 1e-4
                p1 = 3
                q1 = 5
                p2 = 1
                q2 = 3

                [pso]
                swarm_size = 4
                generations = 3
                seed = 1
                tune = k 1 10; eps 1 15
                """
            )
        )
        assert main(["tune", str(cfg), "--out", str(tmp_path)]) == 0
        best = (tmp_path / "tiny_best.csv").read_text().splitlines()
        assert best[0] == "gain,value"
        assert best[1].startswith("k,")
        hist = (tmp_path / "tiny_history.csv").read_text().splitlines()
        assert len(hist) == 4  # header + 3 generations


class TestEnvSeed:
    def test_presto_seed_overrides(self, monkeypatch):
        from presto import load_scenario

        monkeypatch.setenv("PRESTO_SEED", "31337")
        assert load_scenario("s73").seed == 31337


TUNE_JOB = """
[scenario]
kind = tsmc
dt = 1e-3
horizon = 0.5

[plant]
K1 = 97.4
K2 = -19.97
g = -1.09

[observer]
k = 4.0
beta0 = 7.0
eps = 10.0
p0 = 1
q0 = 7

[controller]
alpha1 = 100.0
beta1 = 9.0
delta = 5.0
mu = 1e-4
p1 = 3
q1 = 5
p2 = 1
q2 = 3

[pso]
swarm_size = 2
generations = 1
tune = k
"""

S73_TEXT = resolve_config_path("s73").read_text()
ADAPTIVE_JOB = edit_config(S73_TEXT, ("horizon = 8.0", "horizon = 0.1")) + """
[pso]
swarm_size = 2
generations = 1
tune = k
"""

MALFORMED = {
    "percent_in_value": TUNE_JOB.replace("kind = tsmc", "kind = tsmc\nx0 = 1.0, 5.0%"),
    "no_section_header": "kind = tsmc\n" + TUNE_JOB,
    "duplicate_section": TUNE_JOB + "\n[plant]\nK1 = 1.0\n",
    "duplicate_option": TUNE_JOB.replace("K1 = 97.4", "K1 = 97.4\nK1 = 97.4"),
    "compare_without_scenarios": "[compare]\nlabels = a\n",
    "compare_empty_list": "[compare]\nscenarios = ,\n",
    "one_column_table": TUNE_JOB + "\n[disturbance]\ntable_file = one.csv\n",
    "empty_table": TUNE_JOB + "\n[disturbance]\ntable_file = empty.csv\n",
    "non_numeric_value": TUNE_JOB.replace("K1 = 97.4", "K1 = abc"),
    "missing_required_key": TUNE_JOB.replace("k = 4.0\n", ""),
    "removed_perfect_observer": TUNE_JOB.replace("[scenario]\n",
                                                 "[scenario]\nperfect_observer = true\n"),
    "removed_smooth_sgn_width": TUNE_JOB.replace("[observer]\n",
                                                 "[observer]\nsmooth_sgn_width = 1e-3\n"),
    "threshold_out_of_range": TUNE_JOB.replace("dt = 1e-3", "dt = 1e-3\nthreshold_fraction = 1.5"),
    "negative_hold": TUNE_JOB.replace("dt = 1e-3", "dt = 1e-3\nhold_duration = -0.5"),
    "infinite_hold": TUNE_JOB.replace("dt = 1e-3", "dt = 1e-3\nhold_duration = inf"),
    "nan_x0": TUNE_JOB.replace("dt = 1e-3", "dt = 1e-3\nx0 = nan, 5.0"),
    "infinite_z0_offset": TUNE_JOB.replace("q0 = 7", "q0 = 7\nz0_offset = inf"),
    "infinite_amplitude": TUNE_JOB + "\n[disturbance]\nterms = inf sin_linear 0.1\n",
    "nan_rate": TUNE_JOB + "\n[disturbance]\nterms = 2.0 sin_sqrt nan\n",
    "nan_table_time": TUNE_JOB + "\n[disturbance]\ntable_file = nan_time.csv\n",
    "nan_table_value": TUNE_JOB + "\n[disturbance]\ntable_file = nan_value.csv\n",
    "misspelled_key": TUNE_JOB.replace("horizon = 0.5", "horizn = 0.5"),
    "removed_integrator": TUNE_JOB.replace("[scenario]\n", "[scenario]\nintegrator = rk4\n"),
    # the adaptive kind, the one kind that used to take it
    "removed_process_noise": edit_config(ADAPTIVE_JOB,
                                         ("[scenario]\n", "[scenario]\nprocess_noise = true\n")),
    "removed_pso_workers": TUNE_JOB.replace("[pso]\n", "[pso]\nworkers = 2\n"),
    "removed_quadrature_points": edit_config(
        TUNE_JOB, ("[plant]\nK1 = 97.4\nK2 = -19.97\ng = -1.09",
                   "[beam]\nalpha = 0.1\nbeta = 0.05\nquadrature_points = 64")),
    "unread_section": TUNE_JOB + "\n[ekf]" + S73_TEXT.split("[ekf]")[1],
    "default_section": "[DEFAULT]\nhorizon = 0.5\n" + TUNE_JOB,
    "beam_beside_plant": TUNE_JOB + "\n[beam]\nalpha = 0.1\nbeta = 0.05\n",
    "misspelled_required_key": edit_config(ADAPTIVE_JOB, ("u_max = 10.0", "u_mx = 10.0")),
    # S = P0[0,0] + r is zero at the first update
    "singular_first_innovation": edit_config(ADAPTIVE_JOB, ("r = 0.01", "r = 0.0"),
                                             ("p0_diag = 0.01,", "p0_diag = 0.0,")),
    "non_finite_x0_hat": edit_config(ADAPTIVE_JOB, ("x0_hat = 1.0,", "x0_hat = nan,")),
    "infinite_q_diag": edit_config(ADAPTIVE_JOB, ("q_diag = 2.025e-11,", "q_diag = inf,")),
    "nan_p0_diag": edit_config(ADAPTIVE_JOB, ("p0_diag = 0.01, 0.01,", "p0_diag = 0.01, nan,")),
    "two_entry_q_diag": edit_config(ADAPTIVE_JOB, ("q_diag = 2.025e-11, 2.25e-6, 1e-2",
                                                   "q_diag = 2.025e-11, 2.25e-6")),
    "negative_q_diag": edit_config(ADAPTIVE_JOB, ("q_diag = 2.025e-11, 2.25e-6,",
                                                  "q_diag = 2.025e-11, -2.25e-6,")),
    "zero_vmax_fraction": TUNE_JOB.replace("[pso]\n", "[pso]\nvmax_fraction = 0\n"),
    "infinite_horizon": TUNE_JOB.replace("horizon = 0.5", "horizon = inf"),
    "infinite_observer_gain": TUNE_JOB.replace("k = 4.0", "k = inf"),
    "nan_controller_gain": TUNE_JOB.replace("mu = 1e-4", "mu = nan"),
}

# what the error must say, for the cases that name a key or a section
NAMED = {
    "misspelled_key": "[scenario] horizn: unknown key; did you mean horizon?",
    "removed_integrator": "[scenario] integrator: unknown key",
    "removed_process_noise": "[scenario] process_noise: unknown key",
    "removed_perfect_observer": "[scenario] perfect_observer: unknown key",
    "removed_smooth_sgn_width": "[observer] smooth_sgn_width: unknown key",
    "removed_pso_workers": "[pso] workers: unknown key",
    "removed_quadrature_points": "[beam] quadrature_points: unknown key",
    "unread_section": "[ekf]: unused section",
    "default_section": "[DEFAULT]: not supported",
    "beam_beside_plant": "[beam]: unused section",
    "misspelled_required_key": "missing required key [controller] u_max; "
                               "[controller] u_mx: unknown key; did you mean u_max?",
    "singular_first_innovation": "p0_diag[0] + R, the first innovation covariance, must be > 0",
    "non_finite_x0_hat": "x0_hat entries must be finite, got (nan, 5.0, 20.0)",
    "infinite_q_diag": "q_diag entries must be finite, got (inf, 2.25e-06, 0.01)",
    "nan_p0_diag": "p0_diag entries must be finite, got (0.01, nan, 6000.0)",
    "two_entry_q_diag": "q_diag must have 3 entries, got 2",
    "negative_q_diag": "q_diag entries must be >= 0, got (2.025e-11, -2.25e-06, 0.01)",
    "zero_vmax_fraction": "vmax_fraction must be finite and > 0, got 0.0",
    "infinite_horizon": "horizon must be finite and exceed dt, got inf",
    "infinite_observer_gain": "observer gain k must be finite and > 0, got inf",
    "nan_controller_gain": "gain mu must be finite and > 0, got nan",
    "infinite_hold": "hold_duration must be finite and >= 0, got inf",
    "nan_x0": "x0 entries must be finite, got (nan, 5.0)",
    "infinite_z0_offset": "z0_offset must be finite, got inf",
    "infinite_amplitude": "disturbance amplitude and rate must be finite, got inf and 0.1",
    "nan_rate": "disturbance amplitude and rate must be finite, got 2.0 and nan",
    "nan_table_time": "tabulated times and values must be finite",
    "nan_table_value": "tabulated times and values must be finite",
}


class TestMalformedConfig:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_every_command_exits_one(self, tmp_path, capsys, case):
        # main returning 1, rather than raising, is what keeps a traceback
        # off the terminal: the console entry point only wraps its result
        (tmp_path / "one.csv").write_text("0.0\n1.0\n2.0\n")
        (tmp_path / "empty.csv").write_text("")
        (tmp_path / "nan_time.csv").write_text("0.0,1.0\nnan,2.0\n1.0,0.0\n")
        (tmp_path / "nan_value.csv").write_text("0.0,1.0\n0.5,nan\n1.0,0.0\n")
        cfg = tmp_path / "case.cfg"
        cfg.write_text(MALFORMED[case])
        for command in ("validate", "simulate", "compare", "tune"):
            argv = [command, str(cfg)]
            if command != "validate":
                argv += ["--out", str(tmp_path / "out")]
            # a warning would print its own lines to stderr beside the error
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert main(argv) == 1, command
            assert not caught, (command, [str(w.message) for w in caught])
            err = capsys.readouterr().err
            assert "error:" in err, command
            assert NAMED.get(case, "") in err, command
            assert "Traceback" not in err, command

