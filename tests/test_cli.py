import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import pytest

import presto.config
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
        # with no warning either: a bundled disturbance bound above beta0, or
        # a baseline K1 outside [smc] K1_min..K1_max, fails here
        bundled = sorted(p.stem for p in resolve_config_path("s71").parent.glob("*.cfg"))
        assert bundled == ["beam", "compare", "s71", "s72", "s73", "s74", "tune_s71"]
        for name in bundled:
            assert main(["validate", name]) == 0, name
            out, err = capsys.readouterr()
            assert (err, out.endswith(")\n"), ": OK (" in out) == ("", True, True), name

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
        cfg.write_text(resolve_config_path("s71").read_text() + "\n[pso]\ntune = warp 0 1\n")
        assert main(["validate", str(cfg)]) == 1
        assert "warp" in capsys.readouterr().err

    def test_beam_file(self, tmp_path, capsys):
        # a file holding only [beam] gets the checks of `presto coeffs`
        path = resolve_config_path("beam")
        assert main(["validate", "beam"]) == 0
        assert capsys.readouterr().out == f"{path}: OK (beam)\n"
        cfg = tmp_path / "beam.cfg"
        cfg.write_text(edit_config(path.read_text(), ("alpha = 0.1", "alpha = -1")))
        assert main(["validate", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            f"error: {cfg}: [beam] alpha: must be finite and >= 0, got -1.0\n")

    def test_beam_file_with_a_stray_section(self, tmp_path, capsys):
        # without [scenario] or [compare], validate says what coeffs says
        cfg = tmp_path / "beam.cfg"
        cfg.write_text("[beam]\nalpha = 0.1\nbeta = 0.05\n\n[plnt]\nK1 = 1\n")
        for command in ("validate", "coeffs"):
            assert main([command, str(cfg)]) == 1
            assert capsys.readouterr().err == (
                f"error: {cfg}: [plnt]: unused section; this file reads [beam]\n"), command

    def test_missing_config_exits_one(self, capsys):
        assert main(["validate", "nope.cfg"]) == 1

    @pytest.mark.parametrize("name,reads", [("s71", 1), ("compare", 5), ("beam", 1)])
    def test_reads_each_file_once(self, monkeypatch, name, reads):
        # compare.cfg lists four scenario files: five files, five reads
        calls = []
        read = presto.config._read

        def counting_read(path):
            calls.append(path)
            return read(path)

        monkeypatch.setattr(presto.config, "_read", counting_read)
        assert main(["validate", name]) == 0
        assert len(calls) == len(set(calls)) == reads, calls

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

    def test_baseline_plant_outside_design_interval_warns(self, tmp_path, capsys):
        # the reduced beam's K1 = 90.85 lies below s74's [94.8, 100], and
        # s74 on that plant diverges at t = 9.3154
        assert main(["validate", "s74"]) == 0
        assert capsys.readouterr().err == ""
        cfg = tmp_path / "beam74.cfg"
        cfg.write_text(edit_config(resolve_config_path("s74").read_text(), (
            "[plant]\nK1 = 97.4\nK2 = -19.97\ng = -1.09", "[beam]\nalpha = 0.1\nbeta = 0.05")))
        assert main(["validate", str(cfg)]) == 0
        captured = capsys.readouterr()
        assert captured.out == f"{cfg}: OK (smc_baseline)\n"
        assert captured.err == ("warning [beam74]: plant K1=90.8464 lies outside [smc] "
                                "K1_min..K1_max = [94.8, 100]\n")


class TestCoeffs:
    def test_prints_one_line(self, capsys):
        assert main(["coeffs", "beam"]) == 0
        # the parameter header and the coefficient line, byte for byte
        assert capsys.readouterr().out == (
            "alpha=0.1 beta=0.05 lambda=12\n"
            "  K1=90.84638519  K2=24.35227276  g=-24\n"
        )

    @pytest.mark.parametrize("key,value", [("alpha", "nan"), ("beta", "inf"), ("lambda", "inf")])
    def test_non_finite_beam_parameter_exits_one(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "beam.cfg"
        params = {"alpha": "0.1", "beta": "0.05", "lambda": "12.0"} | {key: value}
        cfg.write_text("[beam]\n" + "".join(f"{k} = {v}\n" for k, v in params.items()))
        assert main(["coeffs", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert key in err and "must be finite" in err and f"got {value}" in err

    @pytest.mark.parametrize("params,line", [
        ({"alpha": "1e160"}, "  K1=0  K2=24.35227276  g=-2"),
        ({"alpha": "1e153", "lambda": "1e10"},
         "  K1=1.011312713e-305  K2=24.35227276  g=-2e+10"),
        # beta*beta is inf, but K1 ~ pi^4 (beta/alpha)^2 is not
        ({"alpha": "1e200", "beta": "1e200"}, "  K1=97.40909103  K2=24.35227276  g=-2"),
        ({"alpha": "1e150", "beta": "1e160"}, "  K1=9.740909103e+21  K2=24.35227276  g=-2"),
    ], ids=["alpha-1e160", "alpha-1e153-lambda-1e10", "alpha-1e200-beta-1e200",
            "alpha-1e150-beta-1e160"])
    def test_every_finite_alpha_reduces(self, tmp_path, capsys, params, line):
        # K2 = pi^4/4 and g = -2*lambda for every alpha; K1 is finite
        cfg = tmp_path / "beam.cfg"
        cfg.write_text("[beam]\n" + "".join(f"{k} = {v}\n" for k, v in
                                            ({"beta": "0.05"} | params).items()))
        assert main(["coeffs", str(cfg)]) == 0
        assert capsys.readouterr().out.splitlines()[1:] == [line]

    @pytest.mark.parametrize("key,value,coefficient",
                             [("beta", "1e200", "K1"), ("lambda", "1e308", "g")])
    def test_overflowing_beam_parameter_exits_one(self, tmp_path, capsys, key, value,
                                                  coefficient):
        # finite, so the range check passes, but the coefficient overflows
        cfg = tmp_path / "beam.cfg"
        params = {"alpha": "0.1", "beta": "0.05", "lambda": "12.0"} | {key: value}
        cfg.write_text("[beam]\n" + "".join(f"{k} = {v}\n" for k, v in params.items()))
        assert main(["coeffs", str(cfg)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {cfg}: [beam] {key}: {float(value):g} overflows {coefficient} in the assembly\n"

    @pytest.mark.parametrize("alpha", ["1e-3", "0"])
    def test_overflowing_k1_exits_one_at_any_alpha(self, tmp_path, capsys, alpha):
        # K1 ~ pi^6 beta^2 / (1 + pi^2 alpha^2) is past the float range here
        cfg = tmp_path / "beam.cfg"
        cfg.write_text(f"[beam]\nalpha = {alpha}\nbeta = 1e200\n")
        assert main(["coeffs", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            f"error: {cfg}: [beam] beta: 1e+200 overflows K1 in the assembly\n")

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

    # The one known file that `validate` passes and a run refuses, a stated
    # exception: validate allocates nothing, while the run's sample log, and
    # the adaptive kind's noise draw, outgrow any address space.  numpy's
    # MemoryError comes at once, and `run_scenario` turns it into this error.
    @pytest.mark.parametrize("command", ["simulate", "compare", "tune"])
    def test_unallocatable_horizon_exits_one(self, tmp_path, capsys, command):
        # 1e16 steps at dt 1e-4
        text = edit_config(resolve_config_path("s71").read_text(),
                           ("horizon = 8.0", "horizon = 1e12"))
        cfg = tmp_path / "long.cfg"
        cfg.write_text(text + ("\n[pso]\ntune = k 0.5 20\n" if command == "tune" else ""))
        assert main(["validate", str(cfg)]) == 0
        capsys.readouterr()
        assert main([command, str(cfg), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [scenario] horizon, dt: 1e+12 / 0.0001 steps do not fit "
                              "in memory for run 'long': "), err
        assert "Traceback" not in err

    # the same for the EKF-fed loop and for the bundled tuning job
    @pytest.mark.parametrize("name, command, horizon", [
        ("s73", "simulate", "horizon = 8.0"),
        ("tune_s71", "tune", "horizon = 4.0"),
    ])
    def test_validate_passes_an_unallocatable_run(self, tmp_path, capsys, name, command,
                                                  horizon):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(edit_config(resolve_config_path(name).read_text(),
                                   (horizon, "horizon = 1e12")))
        assert main(["validate", str(cfg)]) == 0
        capsys.readouterr()
        assert main([command, str(cfg), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [scenario] horizon, dt: 1e+12 / "), err
        assert f"for run {name!r}: " in err, err
        assert "Traceback" not in err


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
tune = k 0.5 20
"""

S71_TEXT = resolve_config_path("s71").read_text()
S73_TEXT = resolve_config_path("s73").read_text()
S74_TEXT = resolve_config_path("s74").read_text()
ADAPTIVE_JOB = edit_config(S73_TEXT, ("horizon = 8.0", "horizon = 0.1")) + """
[pso]
swarm_size = 2
generations = 1
tune = k 0.5 20
"""

MALFORMED = {
    "percent_in_value": TUNE_JOB.replace("kind = tsmc", "kind = tsmc\nx0 = 1.0, 5.0%"),
    "no_section_header": "kind = tsmc\n" + TUNE_JOB,
    "duplicate_section": TUNE_JOB + "\n[plant]\nK1 = 1.0\n",
    "duplicate_option": TUNE_JOB.replace("K1 = 97.4", "K1 = 97.4\nK1 = 97.4"),
    "garbage_line": TUNE_JOB.replace("g = -1.09", "g = -1.09\ngarbage line"),
    "compare_without_scenarios": "[compare]\n",
    # a run is named by its own file's [scenario] label
    "removed_compare_labels": "[compare]\nscenarios = s71.cfg\nlabels = a\n",
    "compare_empty_list": "[compare]\nscenarios = ,\n",
    "non_numeric_value": TUNE_JOB.replace("K1 = 97.4", "K1 = abc"),
    "missing_required_key": TUNE_JOB.replace("k = 4.0\n", ""),
    "removed_perfect_observer": TUNE_JOB.replace("[scenario]\n",
                                                 "[scenario]\nperfect_observer = true\n"),
    "removed_smooth_sgn_width": TUNE_JOB.replace("[observer]\n",
                                                 "[observer]\nsmooth_sgn_width = 1e-3\n"),
    "threshold_out_of_range": TUNE_JOB.replace("dt = 1e-3", "dt = 1e-3\nthreshold_fraction = 1.5"),
    # the settling hold and the swarm coefficients are constants, so their
    # old keys are refused at any value, even the one every bundled file gave
    "removed_hold_duration": TUNE_JOB.replace("dt = 1e-3", "dt = 1e-3\nhold_duration = 0.5"),
    "negative_hold": TUNE_JOB.replace("dt = 1e-3", "dt = 1e-3\nhold_duration = -0.5"),
    "removed_pso_w": TUNE_JOB.replace("[pso]\n", "[pso]\nw = 0.72\n"),
    "removed_pso_c1": TUNE_JOB.replace("[pso]\n", "[pso]\nc1 = 1.49\n"),
    "removed_pso_c2": TUNE_JOB.replace("[pso]\n", "[pso]\nc2 = 1.49\n"),
    "removed_vmax_fraction": TUNE_JOB.replace("[pso]\n", "[pso]\nvmax_fraction = 0.2\n"),
    "infinite_box_edge": TUNE_JOB.replace("tune = k 0.5 20", "tune = k 0.5 inf"),
    "minus_infinite_box_edge": TUNE_JOB.replace("tune = k 0.5 20", "tune = k -inf 20"),
    # the swarm would search a dimension the patched scenario never reads
    "gain_listed_twice": TUNE_JOB.replace("k 0.5 20", "k 0.5 20; k 5 20; eps 0.5 20"),
    # every candidate fails the positivity gate, so no cost is ever finite
    "box_at_or_below_zero": TUNE_JOB.replace("tune = k 0.5 20", "tune = k -5 -1"),
    "infinite_box_width": TUNE_JOB.replace("tune = k 0.5 20", "tune = k -1e308 1e308"),
    "tune_entry_of_two_fields": TUNE_JOB.replace("tune = k 0.5 20", "tune = k 20"),
    "tune_entry_of_bare_name": TUNE_JOB.replace("tune = k 0.5 20", "tune = k"),
    "tune_lists_no_gain": TUNE_JOB.replace("tune = k 0.5 20", "tune = ;"),
    "step_count_overflow": TUNE_JOB.replace("horizon = 0.5", "horizon = 1e308"),
    "subnormal_dt": TUNE_JOB.replace("dt = 1e-3", "dt = 1e-320"),
    "subnormal_dt_and_horizon": edit_config(TUNE_JOB, ("dt = 1e-3", "dt = 5e-324"),
                                            ("horizon = 0.5", "horizon = 1e-320")),
    "step_count_past_maxsize": TUNE_JOB.replace("horizon = 0.5", "horizon = 1e20"),
    "nan_x0": TUNE_JOB.replace("dt = 1e-3", "dt = 1e-3\nx0 = nan, 5.0"),
    # x1**3 of the first step overflows past about 5.6e102; any start past
    # the divergence limit would end the run at its first step
    "x0_past_overflow": TUNE_JOB.replace("dt = 1e-3", "dt = 1e-3\nx0 = 1e200, 5.0"),
    "x0_past_divergence_limit": TUNE_JOB.replace("dt = 1e-3", "dt = 1e-3\nx0 = 1.0, -2e6"),
    # sin of an infinite phase is NaN, and a sum of finite amplitudes may be inf
    "phase_overflow_linear": TUNE_JOB + "\n[disturbance]\nterms = 2.0 sin_linear 1e308\n",
    "phase_overflow_sqrt": TUNE_JOB + "\n[disturbance]\nterms = 2.0 sin_sqrt -1.5e308\n",
    "amplitude_sum_overflow": TUNE_JOB + ("\n[disturbance]\n"
                                          "terms = 1e308 sin_linear 0.1; -1e308 sin_sqrt 1\n"),
    # inputs no bundled scenario set: z0_offset stays a library-only
    # Scenario field, and the baseline's reaching rate is its Kg
    "removed_table_file": TUNE_JOB + "\n[disturbance]\ntable_file = samples.csv\n",
    "removed_z0_offset": TUNE_JOB.replace("q0 = 7", "q0 = 7\nz0_offset = 0.0"),
    "removed_eta": edit_config(S74_TEXT, ("Y = 1.4\n", "Y = 1.4\neta = 1.0\n")),
    "infinite_amplitude": TUNE_JOB + "\n[disturbance]\nterms = inf sin_linear 0.1\n",
    "nan_rate": TUNE_JOB + "\n[disturbance]\nterms = 2.0 sin_sqrt nan\n",
    "misspelled_key": TUNE_JOB.replace("horizon = 0.5", "horizn = 0.5"),
    "removed_integrator": TUNE_JOB.replace("[scenario]\n", "[scenario]\nintegrator = rk4\n"),
    # the adaptive kind, the one kind that used to take it
    "removed_process_noise": edit_config(ADAPTIVE_JOB,
                                         ("[scenario]\n", "[scenario]\nprocess_noise = true\n")),
    "removed_pso_workers": TUNE_JOB.replace("[pso]\n", "[pso]\nworkers = 2\n"),
    "removed_quadrature_points": edit_config(
        TUNE_JOB, ("[plant]\nK1 = 97.4\nK2 = -19.97\ng = -1.09",
                   "[beam]\nalpha = 0.1\nbeta = 0.05\nquadrature_points = 64")),
    "removed_mass_term": edit_config(
        TUNE_JOB, ("[plant]\nK1 = 97.4\nK2 = -19.97\ng = -1.09",
                   "[beam]\nalpha = 0.1\nbeta = 0.05\nmass_term = as_printed")),
    "beam_overflow": edit_config(
        TUNE_JOB, ("[plant]\nK1 = 97.4\nK2 = -19.97\ng = -1.09",
                   "[beam]\nalpha = 0.1\nbeta = 1e200")),
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
    "infinite_ekf_stride": edit_config(ADAPTIVE_JOB, ("Ts = 6e-3", "Ts = 1e308")),
    "zero_q0": edit_config(ADAPTIVE_JOB, ("q0 = 7", "q0 = 0")),
    "negative_q2": edit_config(ADAPTIVE_JOB, ("q2 = 3", "q2 = -3")),
    "clamp_above_zero": edit_config(ADAPTIVE_JOB, ("u_min = -30.0", "u_min = 1.0")),
    "nan_r": edit_config(ADAPTIVE_JOB, ("r = 0.01", "r = nan")),
    "infinite_horizon": TUNE_JOB.replace("horizon = 0.5", "horizon = inf"),
    "infinite_observer_gain": TUNE_JOB.replace("k = 4.0", "k = inf"),
    "nan_controller_gain": TUNE_JOB.replace("mu = 1e-4", "mu = nan"),
    "negative_scenario_seed": TUNE_JOB.replace("horizon = 0.5", "horizon = 0.5\nseed = -1"),
    "negative_pso_seed": TUNE_JOB.replace("[pso]\n", "[pso]\nseed = -3\n"),
    "seed_on_s71": edit_config(S71_TEXT, ("decimation = 10\n", "decimation = 10\nseed = 71\n")),
    "no_pso_generation": edit_config(TUNE_JOB, ("generations = 1", "generations = 0")),
    "swarm_of_one": edit_config(TUNE_JOB, ("swarm_size = 2", "swarm_size = 1")),
    "label_with_comma": TUNE_JOB.replace("horizon = 0.5", "horizon = 0.5\nlabel = a,b"),
    "label_with_slash": TUNE_JOB.replace("horizon = 0.5", "horizon = 0.5\nlabel = ../escaped"),
    "label_with_backslash": TUNE_JOB.replace("horizon = 0.5", "horizon = 0.5\nlabel = a\\b"),
    "label_dot_dot": TUNE_JOB.replace("horizon = 0.5", "horizon = 0.5\nlabel = .."),
    "label_empty": TUNE_JOB.replace("horizon = 0.5", "horizon = 0.5\nlabel ="),
    "nan_plant_K1": TUNE_JOB.replace("K1 = 97.4", "K1 = nan"),
    "smc_interval_reversed": edit_config(S74_TEXT, ("K1_min = 94.8", "K1_min = 120")),
    "zero_decimation": TUNE_JOB.replace("dt = 1e-3", "dt = 1e-3\ndecimation = 0"),
    "no_plant_section": TUNE_JOB.replace("[plant]\nK1 = 97.4\nK2 = -19.97\ng = -1.09", ""),
    "config_is_a_directory": None,  # case.cfg is made a directory
    "not_utf8": ("# Latin-1 caf\xe9\n" + TUNE_JOB).encode("latin-1"),
    "x0_of_one_entry": TUNE_JOB.replace("dt = 1e-3", "dt = 1e-3\nx0 = 1.0"),
    "zero_dt": TUNE_JOB.replace("dt = 1e-3", "dt = 0.0"),
    "horizon_below_dt": TUNE_JOB.replace("horizon = 0.5", "horizon = 1e-5"),
    "unknown_kind": TUNE_JOB.replace("kind = tsmc", "kind = tsmcx"),
    "zero_observer_gain": TUNE_JOB.replace("k = 4.0", "k = 0.0"),
    "zero_controller_gain": TUNE_JOB.replace("alpha1 = 100.0", "alpha1 = 0.0"),
    "zero_tau": edit_config(ADAPTIVE_JOB, ("tau = 3.7", "tau = 0.0")),
    "inadmissible_surface_pair": edit_config(TUNE_JOB, ("p1 = 3", "p1 = 1")),
    "clamp_on_tsmc": TUNE_JOB.replace("mu = 1e-4", "mu = 1e-4\ntau = 3.7"),
    "saturated_without_clamp": TUNE_JOB.replace("kind = tsmc", "kind = tsmc_saturated"),
    "zero_ekf_Ts": edit_config(ADAPTIVE_JOB, ("Ts = 6e-3", "Ts = 0.0")),
    "ragged_ekf_stride": edit_config(ADAPTIVE_JOB, ("Ts = 6e-3", "Ts = 1.5e-4")),
    "tune_unknown_gain": TUNE_JOB.replace("tune = k 0.5 20", "tune = warp 0.5 20"),
    "tune_tau_on_tsmc": TUNE_JOB.replace("tune = k 0.5 20", "tune = tau 0.5 20"),
    # a line is a [section] header alone, key = value, a full-line '#'
    # comment or blank, and each list has one separator
    "colon_delimiter": TUNE_JOB.replace("horizon = 0.5", "horizon: 0.5"),
    "semicolon_comment_line": TUNE_JOB.replace("dt = 1e-3\n", "dt = 1e-3\n; note\n"),
    "inline_comment": TUNE_JOB.replace("dt = 1e-3", "dt = 1e-3 # step"),
    "inline_comment_on_header": TUNE_JOB.replace("[plant]", "[plant] # coefficients"),
    "space_separated_x0": TUNE_JOB.replace("dt = 1e-3", "dt = 1e-3\nx0 = 1.0 5.0"),
    "compare_semicolon_list": "[compare]\nscenarios = s71.cfg ; s72.cfg\n",
    # tests/test_malformed.py found dt named only through horizon
    "infinite_dt": TUNE_JOB.replace("dt = 1e-3", "dt = inf"),
    "dt_above_horizon": TUNE_JOB.replace("dt = 1e-3", "dt = 1.0"),
    # TestLabels runs a label continued on a second line
    "label_with_tab": TUNE_JOB.replace("horizon = 0.5", "horizon = 0.5\nlabel = a\tb"),
}

# what the error must say, for the cases that name a key or a section; a
# (case, command) entry holds what one command says instead
NAMED = {
    "percent_in_value": "[scenario] x0: could not convert string to float: '5.0%'",
    "non_numeric_value": "[plant] K1: could not convert string to float: 'abc'",
    "missing_required_key": "missing required key [observer] k",
    "compare_without_scenarios": "missing required key [compare] scenarios",
    "compare_empty_list": "[compare] scenarios: lists no scenario file",
    # a [compare] file is no scenario, so simulate and tune ask for one
    ("compare_without_scenarios", "simulate"): "missing required section [scenario]",
    ("compare_without_scenarios", "tune"): "missing required section [scenario]",
    ("compare_empty_list", "simulate"): "missing required section [scenario]",
    ("compare_empty_list", "tune"): "missing required section [scenario]",
    "removed_compare_labels": "case.cfg: [compare] labels: unknown key; known keys: scenarios",
    ("removed_compare_labels", "simulate"): "missing required section [scenario]",
    ("removed_compare_labels", "tune"): "missing required section [scenario]",
    # configparser's refusals, each on one line after the path
    "duplicate_option": "case.cfg: [plant] k1: set twice (line 9)",
    "duplicate_section": "case.cfg: [plant]: set twice (line 34)",
    "no_section_header": "case.cfg: line 1: 'kind = tsmc' comes before any [section] header",
    "garbage_line": "case.cfg: line 11: 'garbage line' is neither a [section] header nor "
                    "key = value",
    "misspelled_key": "[scenario] horizn: unknown key; did you mean horizon?",
    "removed_integrator": "[scenario] integrator: unknown key",
    "removed_process_noise": "[scenario] process_noise: unknown key",
    "removed_perfect_observer": "[scenario] perfect_observer: unknown key",
    "removed_smooth_sgn_width": "[observer] smooth_sgn_width: unknown key",
    "removed_pso_workers": "[pso] workers: unknown key",
    "removed_quadrature_points": "[beam] quadrature_points: unknown key",
    "removed_mass_term": "[beam] mass_term: unknown key",
    "beam_overflow": "[beam] beta: 1e+200 overflows K1 in the assembly",
    "negative_scenario_seed": "[scenario] seed: must be >= 0, got -1",
    "negative_pso_seed": "[pso] seed: must be >= 0, got -3",
    "seed_on_s71": "[scenario] seed: kind tsmc does not use seed",
    "no_pso_generation": "[pso] generations: must be >= 1, got 0",
    "swarm_of_one": "[pso] swarm_size: must be >= 2, got 1",
    "unread_section": "[ekf]: unused section",
    "default_section": "[DEFAULT]: not supported",
    "beam_beside_plant": "[beam]: unused section",
    "misspelled_required_key": "missing required key [controller] u_max; "
                               "[controller] u_mx: unknown key; did you mean u_max?",
    "singular_first_innovation": "[ekf] p0_diag, r: p0_diag[0] + r, the first innovation "
                                 "covariance, must be > 0",
    "non_finite_x0_hat": "[ekf] x0_hat: entries must be finite, got (nan, 5.0, 20.0)",
    "infinite_q_diag": "[ekf] q_diag: entries must be finite, got (inf, 2.25e-06, 0.01)",
    "nan_p0_diag": "[ekf] p0_diag: entries must be finite, got (0.01, nan, 6000.0)",
    "two_entry_q_diag": "[ekf] q_diag: must have 3 entries, got 2",
    "negative_q_diag": "[ekf] q_diag: entries must be >= 0, got (2.025e-11, -2.25e-06, 0.01)",
    "removed_hold_duration": "[scenario] hold_duration: unknown key",
    "negative_hold": "[scenario] hold_duration: unknown key",
    "removed_pso_w": "[pso] w: unknown key",
    "removed_pso_c1": "[pso] c1: unknown key",
    "removed_pso_c2": "[pso] c2: unknown key",
    "removed_vmax_fraction": "[pso] vmax_fraction: unknown key",
    "infinite_box_edge": "[pso] tune: search box [0.5, inf] must be finite",
    "minus_infinite_box_edge": "[pso] tune: search box [-inf, 20.0] must be finite",
    "gain_listed_twice": "[pso] tune: gain 'k' is listed twice",
    "box_at_or_below_zero": "[pso] tune: k box [-5.0, -1.0] holds no gain > 0",
    "infinite_box_width": "[pso] tune: search box [-1e+308, 1e+308] must be finite",
    "tune_entry_of_two_fields": "[pso] tune: entry 'k 20' is not 'name lo hi'",
    "tune_entry_of_bare_name": "[pso] tune: entry 'k' is not 'name lo hi'",
    "tune_lists_no_gain": "[pso] tune: must list at least one gain",
    "step_count_overflow": "[scenario] horizon, dt: 1e+308 / 0.001 must be a finite step count",
    "subnormal_dt": "[scenario] dt: must be a normal float > 0, got 1e-320",
    "subnormal_dt_and_horizon": "[scenario] dt: must be a normal float > 0, got 5e-324",
    "step_count_past_maxsize": "[scenario] horizon, dt: 1e+20 / 0.001 must be a finite step "
                               "count",
    "infinite_ekf_stride": "[ekf] Ts: must be a whole multiple of dt=0.0002, got 1e+308",
    "zero_q0": "[observer] p0, q0: exponent pair must be positive, got (1, 0)",
    "negative_q2": "[controller] p2, q2: exponent pair must be positive, got (1, -3)",
    "clamp_above_zero": "[controller] u_min, u_max: clamp must bracket zero, got [1.0, 10.0]",
    "nan_r": "[ekf] r: must be finite and >= 0, got nan",
    "infinite_horizon": "[scenario] horizon: must be finite and exceed dt, got inf",
    "infinite_observer_gain": "[observer] k: must be finite and > 0, got inf",
    "nan_controller_gain": "[controller] mu: must be finite and > 0, got nan",
    "nan_x0": "[scenario] x0: entries must be finite and within the divergence limit 1e+06, "
              "got (nan, 5.0)",
    "x0_past_overflow": "[scenario] x0: entries must be finite and within the divergence "
                        "limit 1e+06, got (1e+200, 5.0)",
    "x0_past_divergence_limit": "[scenario] x0: entries must be finite and within the "
                                "divergence limit 1e+06, got (1.0, -2000000.0)",
    "phase_overflow_linear": "[disturbance] terms: the amplitude sum or a phase within horizon "
                             "0.5 passes the float range",
    "phase_overflow_sqrt": "[disturbance] terms: the amplitude sum or a phase within horizon "
                           "0.5 passes the float range",
    "amplitude_sum_overflow": "[disturbance] terms: the amplitude sum or a phase within horizon "
                              "0.5 passes the float range",
    "removed_table_file": "[disturbance] table_file: unknown key",
    "removed_z0_offset": "[observer] z0_offset: unknown key",
    "removed_eta": "[smc] eta: unknown key",
    # no baseline file is a tuning job: its template has no gain to tune
    ("removed_eta", "tune"): "missing required section [pso]",
    "infinite_amplitude": "disturbance amplitude and rate must be finite, got inf and 0.1",
    "nan_rate": "disturbance amplitude and rate must be finite, got 2.0 and nan",
    "label_with_comma": "[scenario] label: 'a,b' names output files",
    "label_with_slash": "[scenario] label: '../escaped' names output files",
    "label_with_backslash": "[scenario] label: 'a\\\\b' names output files",
    "label_dot_dot": "[scenario] label: '..' names output files",
    "label_empty": "[scenario] label: '' names output files",
    "nan_plant_K1": "[plant] K1: must be finite, got nan",
    "smc_interval_reversed": "[smc] K1_min, K1_max: need K1_min < K1_max, got 120.0 and 100.0",
    "zero_decimation": "[scenario] decimation: must be >= 1, got 0",
    "no_plant_section": "needs a [plant] or [beam] section",
    # only a regular file is a config path; no bundled config is named case.cfg
    "config_is_a_directory": "config file not found: ",
    "not_utf8": "case.cfg: not UTF-8 text: 'utf-8' codec can't decode byte 0xe9",
    "threshold_out_of_range": "[scenario] threshold_fraction: must lie in (0, 1), got 1.5",
    "x0_of_one_entry": "[scenario] x0: needs two entries, got 1",
    "zero_dt": "[scenario] dt: must be a normal float > 0, got 0.0",
    "horizon_below_dt": "[scenario] horizon: must be finite and exceed dt, got 1e-05",
    "unknown_kind": "[scenario] kind: unknown scenario kind 'tsmcx'",
    "zero_observer_gain": "[observer] k: must be finite and > 0, got 0.0",
    "zero_controller_gain": "[controller] alpha1: must be finite and > 0, got 0.0",
    "zero_tau": "[controller] tau: must be finite and > 0 when present, got 0.0",
    "inadmissible_surface_pair": "[controller] p1, q1: exponent pair (1, 5) is inadmissible",
    "clamp_on_tsmc": "[controller] tau, u_min, u_max: tau and the clamp",
    "saturated_without_clamp": "[controller] tau, u_min, u_max: kind tsmc_saturated needs",
    "zero_ekf_Ts": "[ekf] Ts: the adaptive kind needs Ts > 0, got 0.0",
    "ragged_ekf_stride": "[ekf] Ts: must be a whole multiple of dt=0.0002, got 0.00015",
    "tune_unknown_gain": "[pso] tune: cannot tune ['warp']",
    "tune_tau_on_tsmc": "[pso] tune: cannot tune 'tau' on kind tsmc",
    "colon_delimiter": "case.cfg: line 5: 'horizon: 0.5' is neither a [section] header nor "
                       "key = value",
    "semicolon_comment_line": "case.cfg: line 5: '; note' is neither a [section] header nor "
                              "key = value",
    "inline_comment": "[scenario] dt: could not convert string to float: '1e-3 # step'",
    "inline_comment_on_header": "case.cfg: line 7: '[plant] # coefficients' is neither a "
                                "[section] header nor key = value",
    "space_separated_x0": "[scenario] x0: could not convert string to float: '1.0 5.0'",
    "compare_semicolon_list": "case.cfg: [compare] scenarios: config file not found: ",
    ("compare_semicolon_list", "simulate"): "missing required section [scenario]",
    ("compare_semicolon_list", "tune"): "missing required section [scenario]",
    "label_with_tab": "[scenario] label: 'a\\tb' names output files",
    "infinite_dt": "[scenario] dt: must be a normal float > 0, got inf",
    "dt_above_horizon": "[scenario] horizon: must be finite and exceed dt, got 0.5 for "
                        "[scenario] dt = 1.0",
}


class TestMalformedConfig:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_every_command_exits_one(self, tmp_path, capsys, case):
        # main returning 1, rather than raising, is what keeps a traceback
        # off the terminal: the console entry point only wraps its result
        cfg = tmp_path / "case.cfg"
        if MALFORMED[case] is None:
            cfg.mkdir()
        elif isinstance(MALFORMED[case], bytes):
            cfg.write_bytes(MALFORMED[case])
        else:
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
            assert err.startswith("error:") and err.count("\n") == 1, (command, err)
            assert NAMED.get((case, command), NAMED[case]) in err, command
            assert "Traceback" not in err, command

    def test_every_case_names_its_message(self):
        assert [case for case in MALFORMED if case not in NAMED] == []


class TestModuleEntryPoint:
    """`python -m presto.cli` in a fresh interpreter: the `__main__` line
    that the in-process calls of `main` never reach."""

    @staticmethod
    def run(*argv):
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        return subprocess.run([sys.executable, "-m", "presto.cli", *argv], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=path), timeout=60)

    def test_validate_exits_zero(self):
        done = self.run("validate", "s71")
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout.endswith(": OK (tsmc)\n"), done.stdout

    def test_malformed_file_exits_one_with_one_line(self, tmp_path):
        cfg = tmp_path / "case.cfg"
        cfg.write_text(MALFORMED["garbage_line"])
        done = self.run("validate", str(cfg))
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr == (f"error: {cfg}: line 11: 'garbage line' is neither a [section] "
                               "header nor key = value\n")


class TestConfigNames:
    """A config name is a regular file, or else, when bare, the bundled file of
    that name; a [compare] entry is resolved the same way beside its [compare]
    file."""

    def test_byte_order_mark_is_skipped(self, tmp_path, capsys):
        bom = tmp_path / "s71.cfg"
        bom.write_bytes(b"\xef\xbb\xbf" + resolve_config_path("s71").read_bytes())
        assert main(["validate", str(bom)]) == 0
        assert capsys.readouterr().out == f"{bom}: OK (tsmc)\n"
        for name, out in (("s71", "bundled"), (str(bom), "bom")):
            assert main(["simulate", name, "--out", str(tmp_path / out)]) == 0
        written = sorted(p.name for p in (tmp_path / "bundled").iterdir())
        assert written == ["s71.csv", "s71_report.csv", "s71_report.txt"]
        for name in written:
            assert (tmp_path / "bom" / name).read_bytes() == (
                tmp_path / "bundled" / name).read_bytes(), name

    @pytest.mark.parametrize("name", ["s71", "s71.cfg"])
    def test_directory_does_not_hide_a_bundled_name(self, tmp_path, monkeypatch, capsys, name):
        monkeypatch.chdir(tmp_path)
        (tmp_path / name).mkdir()
        assert main(["validate", name]) == 0
        assert capsys.readouterr().out == f"{resolve_config_path('s71')}: OK (tsmc)\n"

    @pytest.mark.parametrize("name", ["missing/s71.cfg", "./s71.cfg", "{tmp}/missing/s71.cfg"])
    @pytest.mark.parametrize("command", ["validate", "simulate", "compare", "tune", "coeffs"])
    def test_path_to_nothing_does_not_fall_back(self, tmp_path, monkeypatch, capsys, name,
                                                command):
        # a name with a directory part is a path; only a bare name may mean
        # a bundled file
        monkeypatch.chdir(tmp_path)
        name = name.format(tmp=tmp_path)
        argv = [command, name] + ([] if command in ("validate", "coeffs") else ["--out", "out"])
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: config file not found: {name}\n")
        assert list(tmp_path.iterdir()) == []

    def test_member_is_never_read_from_the_working_directory(self, tmp_path, monkeypatch,
                                                             capsys):
        (tmp_path / "a").mkdir()
        (tmp_path / "a" / "pair.cfg").write_text("[compare]\nscenarios = m.cfg\n")
        (tmp_path / "m.cfg").write_text(resolve_config_path("s71").read_text())
        for cwd, cfg in ((tmp_path, "a/pair.cfg"), (tmp_path / "a", "pair.cfg")):
            monkeypatch.chdir(cwd)
            assert main(["validate", cfg]) == 1, cwd
            member = Path(cfg).parent / "m.cfg"
            assert capsys.readouterr().err == (
                f"error: {cfg}: [compare] scenarios: config file not found: {member}\n")


class TestCompareMembers:
    """A [compare] file's member that cannot load is named with the file
    that lists it, or with its own path once it exists."""

    @staticmethod
    def run(tmp_path, command, cfg):
        argv = [command, str(cfg)]
        if command != "validate":
            argv += ["--out", str(tmp_path / "out")]
        return main(argv)

    @pytest.mark.parametrize("command", ["validate", "compare"])
    def test_missing_member_names_the_compare_key(self, tmp_path, capsys, command):
        (tmp_path / "s71.cfg").write_text(S71_TEXT)
        cfg = tmp_path / "pair.cfg"
        cfg.write_text("[compare]\nscenarios = s71.cfg, nope.cfg\n")
        assert self.run(tmp_path, command, cfg) == 1
        assert capsys.readouterr().err == (
            f"error: {cfg}: [compare] scenarios: config file not found: {tmp_path}/nope.cfg\n")

    @pytest.mark.parametrize("command", ["validate", "compare"])
    def test_member_with_a_directory_part_does_not_fall_back(self, tmp_path, capsys, command):
        cfg = tmp_path / "pair.cfg"
        cfg.write_text("[compare]\nscenarios = sub/s71.cfg\n")
        assert self.run(tmp_path, command, cfg) == 1
        assert capsys.readouterr().err == (f"error: {cfg}: [compare] scenarios: config file "
                                           f"not found: {tmp_path}/sub/s71.cfg\n")

    def test_bare_member_falls_back_to_the_bundled_file(self, tmp_path, capsys):
        cfg = tmp_path / "pair.cfg"
        cfg.write_text("[compare]\nscenarios = s71.cfg, s74\n")
        assert main(["validate", str(cfg)]) == 0
        assert capsys.readouterr() == (f"{cfg}: OK (tsmc, smc_baseline)\n", "")

    @pytest.mark.parametrize("command", ["validate", "compare"])
    def test_bad_member_keeps_its_own_path(self, tmp_path, capsys, command):
        member = tmp_path / "s71.cfg"
        member.write_text(edit_config(S71_TEXT, ("horizon = 8.0", "horizon = inf")))
        cfg = tmp_path / "pair.cfg"
        cfg.write_text("[compare]\nscenarios = s71.cfg\n")
        assert self.run(tmp_path, command, cfg) == 1
        assert capsys.readouterr().err == (
            f"error: {member}: [scenario] horizon: must be finite and exceed dt, got inf\n")


class TestLabels:
    """A label names its run's output files: it must be a safe file name, and
    the entries of one comparison must not share one."""

    S71 = resolve_config_path("s71").read_text()

    @staticmethod
    def run(tmp_path, command, *configs):
        argv = [command, *map(str, configs)]
        if command != "validate":
            argv += ["--out", str(tmp_path / "out")]
        code = main(argv)
        # a refused label writes nothing, inside --out or outside it
        assert not (tmp_path / "out").exists()
        assert not list(tmp_path.rglob("*.csv")) and not list(tmp_path.parent.glob("*.csv"))
        return code

    def test_same_scenario_twice(self, tmp_path, capsys):
        assert self.run(tmp_path, "compare", "s71", "s71") == 1
        assert capsys.readouterr().err == (
            "error: two scenarios share the label 's71', which names their trace file; "
            "give each its own [scenario] label, or list it once\n")

    def test_same_stem_in_two_directories(self, tmp_path, capsys):
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            (tmp_path / sub / "s71.cfg").write_text(self.S71)
        assert self.run(tmp_path, "compare", tmp_path / "a/s71.cfg", tmp_path / "b/s71.cfg") == 1
        assert "share the label 's71'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "compare"])
    def test_compare_file_listing_one_scenario_twice(self, tmp_path, capsys, command):
        (tmp_path / "s71.cfg").write_text(self.S71)
        cfg = tmp_path / "twice.cfg"
        cfg.write_text("[compare]\nscenarios = s71.cfg, s71.cfg\n")
        assert self.run(tmp_path, command, cfg) == 1
        err = capsys.readouterr().err
        assert "share the label 's71'" in err and "list it once" in err
        # a copy is a second file, named by its own stem
        (tmp_path / "s71_copy.cfg").write_text(self.S71)
        cfg.write_text("[compare]\nscenarios = s71.cfg, s71_copy.cfg\n")
        assert main(["validate", str(cfg)]) == 0

    @pytest.mark.parametrize("command", ["validate", "simulate", "compare"])
    def test_scenario_label_must_be_a_file_name(self, tmp_path, capsys, command):
        cfg = tmp_path / "escape.cfg"
        cfg.write_text(edit_config(self.S71, ("[scenario]\n", "[scenario]\nlabel = ../escaped\n")))
        assert self.run(tmp_path, command, cfg) == 1
        assert (f"error: {cfg}: [scenario] label: '../escaped' names output files"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("command", ["validate", "simulate", "compare"])
    def test_label_continued_on_a_second_line(self, tmp_path, capsys, command):
        # an indented line continues the value, so the label would hold a
        # line break: one trace file named across two lines, one report row
        # split over two
        cfg = tmp_path / "broken.cfg"
        cfg.write_text(edit_config(S74_TEXT, ("[scenario]\n",
                                              "[scenario]\nlabel = base\n  line\n")))
        assert self.run(tmp_path, command, cfg) == 1
        assert capsys.readouterr().err == (
            f"error: {cfg}: [scenario] label: 'base\\nline' names output files, so it must be "
            "printable, not empty, '.' or '..', nor hold '/', '\\' or ','\n")

    @pytest.mark.parametrize("command", ["validate", "compare"])
    @pytest.mark.parametrize("where", ["compare_member", "scenario_label"])
    def test_report_is_a_reserved_label(self, tmp_path, capsys, command, where):
        # a trace named report.csv would be overwritten by the comparison table
        cfg = tmp_path / "labeled.cfg"
        text = edit_config(self.S71, ("[scenario]\n", "[scenario]\nlabel = report\n"))
        if where == "compare_member":
            (tmp_path / "member.cfg").write_text(text)
            cfg.write_text("[compare]\nscenarios = member.cfg\n")
        else:
            cfg.write_text(text)
        assert self.run(tmp_path, command, cfg) == 1
        assert ("error: label 'report': its trace would overwrite report.csv, the comparison "
                "table; set another [scenario] label\n") == capsys.readouterr().err
