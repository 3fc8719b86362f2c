"""The fused loops of `run_scenario` against the library stage functions.

`reference_run` composes the documented stage functions step by step, the
way the harness did before its loops were fused.  Every trace column and
every report field of the fused loops must match it bit for bit.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from presto import load_scenario, run_scenario
from presto.cli import main as cli_main
from presto.config import load_pso_job
from presto.controller import saturated_tsmc_control, sliding_stack_n2, smc_control, tsmc_control
from presto.estimator import EkfState, ekf_predict, ekf_update
from presto.harness import DivergenceError, RunReport, Scenario
from presto.mathcore import Trace, l2_norm, linf_norm, settling_time
from presto.observer import disturbance_estimate, observer_advance, observer_init
from presto.plant import DisturbanceSpec, DisturbanceTerm, disturbance_value, plant_derivative

STEPS = 3000


def _rk4(x1, x2, u, t, dt, sc):
    def f(xa, xb, tt):
        return plant_derivative((xa, xb), u, disturbance_value(sc.disturbance, tt), sc.plant)

    k1 = f(x1, x2, t)
    k2 = f(x1 + 0.5 * dt * k1[0], x2 + 0.5 * dt * k1[1], t + 0.5 * dt)
    k3 = f(x1 + 0.5 * dt * k2[0], x2 + 0.5 * dt * k2[1], t + 0.5 * dt)
    k4 = f(x1 + dt * k3[0], x2 + dt * k3[1], t + dt)
    return (
        x1 + dt / 6.0 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0]),
        x2 + dt / 6.0 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1]),
    )


def reference_run(sc: Scenario) -> tuple[Trace, RunReport]:
    """One scenario through the stage functions, one call per stage per step."""
    pp = sc.plant
    adaptive = sc.kind == "adaptive_tsmc_saturated"
    saturated = sc.kind in ("tsmc_saturated", "adaptive_tsmc_saturated")
    smc_kind = sc.kind == "smc_baseline"
    has_observer = not smc_kind and not sc.perfect_observer
    dt = sc.dt
    rng = np.random.default_rng(np.random.SeedSequence([sc.seed]))
    x1, x2 = float(sc.x0[0]), float(sc.x0[1])
    obs = ekf_state = None
    innov = u = u_acc = 0.0
    n_acc = stride = 0
    if adaptive:
        cfg = sc.ekf
        ekf_state = EkfState(x_hat=cfg.x0_hat.copy(), P=cfg.P0.copy())
        stride = int(round(cfg.Ts / dt))
        pn1 = math.sqrt(cfg.Q[0, 0] * dt / cfg.Ts)
        pn2 = math.sqrt(cfg.Q[1, 1] * dt / cfg.Ts)
    rows = []
    for i in range(int(round(sc.horizon / dt))):
        t = i * dt
        d = disturbance_value(sc.disturbance, t)
        if adaptive and i % stride == 0:
            if i > 0:
                ekf_state = ekf_predict(ekf_state, u_acc / n_acc, sc.ekf, pp.K2, pp.g)
            u_acc, n_acc = 0.0, 0
            y = x1 + math.sqrt(sc.ekf.R) * rng.standard_normal()
            ekf_state, innov = ekf_update(ekf_state, y, sc.ekf)
        if adaptive:
            fb1, fb2, k1_fb = (float(v) for v in ekf_state.x_hat)
        else:
            fb1, fb2, k1_fb = x1, x2, pp.K1
        if smc_kind:
            out = smc_control((x1, x2), sc.smc, pp, sc.smc_k1_nominal)
            u = out.u
            row = (t, x1, x2, u, d, out.s, out.u_eq, out.u_c)
        else:
            fx = -k1_fb * fb1 - pp.K2 * fb1**3
            if has_observer:
                if obs is None:
                    obs = observer_init(fb2, fx, sc.z0_offset, sc.observer)
                d_hat, s_obs = disturbance_estimate(obs, fx, sc.observer), obs.s
            else:
                d_hat, s_obs = d, 0.0
            stack = sliding_stack_n2((fb1, fb2), 0.0, s_obs, sc.tsmc)
            pp_fb = replace(pp, K1=k1_fb)
            if saturated:
                v_r, u_c, u = saturated_tsmc_control((fb1, fb2), d_hat, stack, pp_fb, sc.tsmc)
                forcing = v_r
            else:
                u = tsmc_control((fb1, fb2), d_hat, stack, pp_fb, sc.tsmc)
                forcing = -pp.g * u
            row = (t, x1, x2, u, d, d_hat, s_obs, stack.s_n)
            if saturated:
                row += (v_r, u_c)
            if adaptive:
                row += (fb1, fb2, k1_fb, x1 - fb1, innov, float(np.trace(ekf_state.P)))
        if i % sc.decimation == 0:
            rows.append(row)
        if sc.integrator == "rk4":
            x1, x2 = _rk4(x1, x2, u, t, dt, sc)
        else:
            dx1, dx2 = plant_derivative((x1, x2), u, d, pp)
            x1 += dt * dx1
            x2 += dt * dx2
        if adaptive and sc.process_noise:
            x1 += pn1 * rng.standard_normal()
            x2 += pn2 * rng.standard_normal()
        if has_observer:
            obs = observer_advance(obs, fb2 if adaptive else x2, fx, forcing, sc.observer, dt)
        u_acc += u
        n_acc += 1
        assert max(abs(x1), abs(x2)) <= 1e6

    if smc_kind:
        names = ["t", "x1", "x2", "u", "d", "s", "u_eq", "u_c"]
    else:
        names = ["t", "x1", "x2", "u", "d", "d_hat", "s", "s2"]
        names += ["v_r", "u_c"] if saturated else []
        names += ["x1_hat", "x2_hat", "K1_hat", "e_x", "innov", "P_trace"] if adaptive else []
    trace = Trace(dt=dt * sc.decimation,
                  columns={n: np.asarray(col) for n, col in zip(names, zip(*rows))})
    report = RunReport(label=sc.label, kind=sc.kind)
    report.u_l2, report.u_linf = l2_norm(trace, "u"), linf_norm(trace, "u")
    report.ey_l2, report.ey_linf = l2_norm(trace, "x1"), linf_norm(trace, "x1")
    if saturated:
        report.uc_l2, report.uc_linf = l2_norm(trace, "u_c"), linf_norm(trace, "u_c")
    if adaptive:
        report.ex_l2, report.ex_linf = l2_norm(trace, "e_x"), linf_norm(trace, "e_x")
    report.t_s = settling_time(trace, sc.threshold_fraction, sc.hold_duration)
    return trace, report


def short(name: str, steps: int = STEPS, **changes) -> Scenario:
    sc = load_scenario(name)
    return replace(sc, horizon=steps * sc.dt, **changes)


def with_observer(name: str, **changes) -> Scenario:
    sc = short(name)
    return replace(sc, observer=replace(sc.observer, **changes))


def with_process_noise() -> Scenario:
    # unequal state noise, so the two draws per step cannot trade places
    sc = short("s73")
    ekf = replace(sc.ekf, Q=np.diag([1e-4, 4e-4, 1e-2]))
    return replace(sc, ekf=ekf, process_noise=True)


TABLE = DisturbanceSpec(
    terms=(DisturbanceTerm(-1.5, "sin_sqrt", 0.3), DisturbanceTerm(2.0, "sin_linear", 0.1)),
    table=((0.0, 0.05, 0.1, 0.2), (0.0, 3.0, -2.0, 1.0)),
)

CASES = {
    "s71": lambda: short("s71"),
    "s72": lambda: short("s72"),
    "s73-seed0": lambda: short("s73", seed=0),
    "s73-seed1": lambda: short("s73", seed=1),
    "s73-seed2": lambda: short("s73", seed=2),
    "s74": lambda: short("s74"),
    "tune_s71": lambda: load_pso_job("tune_s71")[1].scenario,
    "rk4-s71": lambda: short("s71", integrator="rk4"),
    "rk4-s74": lambda: short("s74", integrator="rk4"),
    "perfect-observer-s72": lambda: short("s72", perfect_observer=True),
    "perfect-observer-s73": lambda: short("s73", perfect_observer=True),
    "smooth-sgn-s71": lambda: with_observer("s71", smooth_sgn_width=1e-3),
    "z0-offset-s72": lambda: short("s72", z0_offset=1.5),
    "z0-offset-s73": lambda: short("s73", z0_offset=-0.5),
    "process-noise-s73": with_process_noise,
    "table-s71": lambda: short("s71", disturbance=TABLE),
    "table-s74": lambda: short("s74", disturbance=TABLE),
    "decimation1-s73": lambda: short("s73", decimation=1),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_fused_loop_matches_stage_functions(case):
    sc = CASES[case]()
    trace, report = run_scenario(sc)
    ref_trace, ref_report = reference_run(sc)
    assert list(trace.columns) == list(ref_trace.columns)
    for name, col in ref_trace.columns.items():
        assert np.array_equal(trace.columns[name], col), name
    assert report == ref_report


def poison_ekf(monkeypatch, index: int, from_call: int) -> None:
    """Make every EKF update from the given call on return NaN in x_hat[index]."""
    import presto.harness as harness

    real_update = harness.ekf_update
    calls = []

    def poisoned(st, y, cfg):
        new, innov = real_update(st, y, cfg)
        calls.append(1)
        if len(calls) >= from_call:
            x_hat = new.x_hat.copy()
            x_hat[index] = math.nan
            new = EkfState(x_hat=x_hat, P=new.P)
        return new, innov

    monkeypatch.setattr(harness, "ekf_update", poisoned)


class TestNonFiniteLoops:
    """Non-finite values outside the truth state end the run as a divergence."""

    @pytest.mark.parametrize("index", [1, 2], ids=["x2_hat", "K1_hat"])
    def test_nan_estimate_raises_divergence(self, monkeypatch, index):
        poison_ekf(monkeypatch, index, from_call=4)
        sc = short("s73")
        with pytest.raises(DivergenceError, match="EKF") as exc:
            run_scenario(sc)
        stride = int(round(sc.ekf.Ts / sc.dt))
        assert exc.value.t == pytest.approx(3 * stride * sc.dt)
        assert exc.value.trace.n_samples == 3 * stride // sc.decimation
        assert np.all(np.isfinite(exc.value.trace.column("K1_hat")))

    def test_nan_estimate_is_a_failed_row(self, monkeypatch, tmp_path):
        poison_ekf(monkeypatch, 2, from_call=4)
        code = cli_main(["compare", "s71", "s73", "--out", str(tmp_path)])
        assert code == 2
        lines = (tmp_path / "report.txt").read_text().splitlines()
        assert lines[1].startswith("s71") and "FAILED" not in lines[1]
        assert lines[2].startswith("s73") and "FAILED" in lines[2]
        assert (tmp_path / "s73.csv").read_text().count("\n") > 1

    def test_overflowing_observer_raises_divergence(self):
        # the clamp keeps the truth finite while delta*s2 overflows the
        # unclamped v_r that drives z
        sc = short("s72")
        sc = replace(sc, tsmc=replace(sc.tsmc, delta=1e300))
        with pytest.raises(DivergenceError, match="observer") as exc:
            run_scenario(sc)
        assert exc.value.trace.n_samples > 0
