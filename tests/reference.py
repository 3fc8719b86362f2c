"""Step-by-step reference composition of the library stage functions.

`reference_run` drives one scenario through `disturbance_value`, the EKF
cycle, `disturbance_estimate`, `sliding_stack_n2`, the control law,
`plant_derivative` and `observer_advance`, one call per stage per step, the
way the harness ran before its loops were fused.  tests/test_kernels.py
holds the fused loops of `run_scenario` to it bit for bit.
`reference_settling_time` is the sample-by-sample window scan that
`mathcore.settling_time` replaced with a cumulative count.
`reference_pso_run` moves the swarm one particle at a time, the way
`tuner.pso_run` did before the swarm moved into arrays.
"""

import math
from dataclasses import replace

import numpy as np

from presto.controller import saturated_tsmc_control, sliding_stack_n2, smc_control, tsmc_control
from presto.estimator import ekf_init, ekf_predict, ekf_update
from presto.harness import DIVERGENCE_LIMIT, DivergenceError, RunReport, Scenario
from presto.mathcore import SETTLING_HOLD, Trace, l2_norm, linf_norm
from presto.observer import disturbance_estimate, observer_advance, observer_init
from presto.plant import disturbance_value, plant_derivative
from presto.tuner import C1, C2, VMAX_FRACTION, W, PsoConfig


def reference_run(sc: Scenario, perfect_observer: bool = False) -> tuple[Trace, RunReport]:
    """One scenario through the stage functions, one call per stage per step.

    `perfect_observer` (observer kinds) feeds the true disturbance in place
    of the observer's estimate, with the observer term of the surface held
    at 0: the idealized loop whose surface obeys the reaching law alone.

    The report carries `run_scenario`'s one diagnostic, the note that the
    tsmc kind's disturbance exceeded beta0, from the peak of the per-step
    values.

    A run ends as the loops end it, in a DivergenceError with the same
    message, step time and partial trace: at an EKF cycle whose innovation
    covariance S <= 0, or whose estimate has |x1_hat| or |x2_hat| past the
    divergence limit or a non-finite K1_hat or trace P; after a step whose
    observer integrator z is non-finite, or else whose truth state is past
    the limit or non-finite.
    """
    pp = sc.plant
    adaptive = sc.kind == "adaptive_tsmc_saturated"
    saturated = sc.kind in ("tsmc_saturated", "adaptive_tsmc_saturated")
    smc_kind = sc.kind == "smc_baseline"
    has_observer = not smc_kind and not perfect_observer
    dt = sc.dt
    rng = np.random.default_rng(np.random.SeedSequence([sc.seed]))
    x1, x2 = float(sc.x0[0]), float(sc.x0[1])
    obs = ekf_state = None
    innov = u = u_acc = peak_d = 0.0
    n_acc = stride = 0
    # the feedback's plant: the truth's, or the estimate's K1 from each EKF cycle on
    pp_fb = pp
    if adaptive:
        cfg = sc.ekf
        ekf_state = ekf_init(cfg)
        stride = int(round(cfg.Ts / dt))
    if smc_kind:
        names = ["t", "x1", "x2", "u", "d", "s", "u_eq", "u_c"]
    else:
        names = ["t", "x1", "x2", "u", "d", "d_hat", "s", "s2"]
        names += ["v_r", "u_c"] if saturated else []
        names += ["x1_hat", "x2_hat", "K1_hat", "e_x", "innov", "P_trace"] if adaptive else []
    rows = []

    def trace_of_rows() -> Trace:
        table = np.array(rows, dtype=float).reshape(len(rows), len(names))
        return Trace(dt=dt * sc.decimation, columns=dict(zip(names, table.T)))

    def diverged(what: str, detail: str, t: float) -> DivergenceError:
        return DivergenceError(f"{what} diverged at t={t:.4f} ({detail})", trace_of_rows(), t)

    for i in range(int(round(sc.horizon / dt))):
        t = i * dt
        d = disturbance_value(sc.disturbance, t)
        peak_d = max(peak_d, abs(d))
        if not adaptive:
            fb1, fb2, k1_fb = x1, x2, pp.K1
        elif i % stride == 0:
            if i > 0:
                ekf_state = ekf_predict(ekf_state, u_acc / n_acc, sc.ekf, pp.K2, pp.g)
            u_acc, n_acc = 0.0, 0
            y = x1 + math.sqrt(sc.ekf.R) * rng.standard_normal()
            try:
                ekf_state, innov = ekf_update(ekf_state, y, sc.ekf)
            except ZeroDivisionError as err:
                raise diverged("EKF", str(err), t) from None
            fb1, fb2, k1_fb = (float(v) for v in ekf_state.x_hat)
            p11, _, _, p22, _, p33 = ekf_state.P
            p_trace = p11 + p22 + p33
            if not (abs(fb1) <= DIVERGENCE_LIMIT and abs(fb2) <= DIVERGENCE_LIMIT
                    and math.isfinite(k1_fb) and math.isfinite(p_trace)):
                raise diverged("EKF", f"x_hat = ({fb1:.3g}, {fb2:.3g}, {k1_fb:.3g}), "
                               f"trace P = {p_trace:.3g}", t)
            pp_fb = replace(pp, K1=k1_fb)
        if smc_kind:
            out = smc_control((x1, x2), sc.smc, pp)
            u = out.u
            row = (t, x1, x2, u, d, out.s, out.u_eq, out.u_c)
        else:
            fx = -k1_fb * fb1 - pp.K2 * fb1**3
            if has_observer:
                if obs is None:
                    obs = observer_init(fb2, sc.z0_offset)
                d_hat, s_obs = disturbance_estimate(obs, fx, sc.observer), obs.s
            else:
                d_hat, s_obs = d, 0.0
            s2 = sliding_stack_n2((fb1, fb2), s_obs, sc.tsmc)
            if saturated:
                v_r, u_c, u = saturated_tsmc_control((fb1, fb2), d_hat, s2, pp_fb, sc.tsmc)
                forcing = v_r
            else:
                u = tsmc_control((fb1, fb2), d_hat, s2, pp_fb, sc.tsmc)
                forcing = -pp.g * u
            row = (t, x1, x2, u, d, d_hat, s_obs, s2)
            if saturated:
                row += (v_r, u_c)
            if adaptive:
                row += (fb1, fb2, k1_fb, x1 - fb1, innov, p_trace)
        if i % sc.decimation == 0:
            rows.append(row)
        dx1, dx2 = plant_derivative((x1, x2), u, d, pp)
        x1 += dt * dx1
        x2 += dt * dx2
        if has_observer:
            obs = observer_advance(obs, fb2 if adaptive else x2, fx, forcing, sc.observer, dt)
            if not math.isfinite(obs.z):
                raise diverged("observer", f"z reached {obs.z}", t)
        u_acc += u
        n_acc += 1
        if not (abs(x1) <= DIVERGENCE_LIMIT and abs(x2) <= DIVERGENCE_LIMIT):  # NaN fails too
            peak = max(abs(x1), abs(x2)) if math.isfinite(x1) and math.isfinite(x2) else math.inf
            raise diverged("state", f"|x| reached {peak!r}", t)

    trace = trace_of_rows()
    report = RunReport(label=sc.label, kind=sc.kind)
    report.u_l2, report.u_linf = l2_norm(trace, "u"), linf_norm(trace, "u")
    report.ey_l2, report.ey_linf = l2_norm(trace, "x1"), linf_norm(trace, "x1")
    if saturated:
        report.uc_l2, report.uc_linf = l2_norm(trace, "u_c"), linf_norm(trace, "u_c")
    if adaptive:
        report.ex_l2, report.ex_linf = l2_norm(trace, "e_x"), linf_norm(trace, "e_x")
    report.t_s = reference_settling_time(trace, sc.threshold_fraction, SETTLING_HOLD)
    if sc.kind == "tsmc" and peak_d > sc.observer.beta0:
        report.diagnostics.append(f"disturbance magnitude reached {peak_d:.4g}, exceeding "
                                  f"the observer bound beta0={sc.observer.beta0:.4g}")
    return trace, report


def reference_settling_time(tr: Trace, threshold_fraction: float, hold_duration: float):
    """`settling_time` as a scan: the start of the first run of `window` in-band samples."""
    envelope = np.maximum(np.abs(tr.column("x1")), np.abs(tr.column("x2")))
    in_band = envelope <= threshold_fraction * envelope[0]
    window = int(round(hold_duration / tr.dt)) + 1  # samples covering [t*, t*+hold]
    if window > len(in_band):
        return None
    t = tr.times()
    run = 0
    for i, ok in enumerate(in_band):
        run = run + 1 if ok else 0
        if run >= window:
            return float(t[i - window + 1])
    return None


def reference_pso_run(fitness, cfg: PsoConfig):
    """`pso_run` one particle at a time: (best position, best cost, history)."""
    lo, hi = np.asarray(cfg.bounds, dtype=float).T
    caps = VMAX_FRACTION * (hi - lo)

    def stream(generation, i):
        return np.random.default_rng(np.random.SeedSequence([cfg.seed, generation, i]))

    swarm = []  # [position, velocity, personal best, its cost] per particle
    for i in range(cfg.swarm_size):
        rng = stream(0, i)
        x = lo + rng.random(cfg.n_dims) * (hi - lo)
        swarm.append([x, (2.0 * rng.random(cfg.n_dims) - 1.0) * caps, x.copy(), math.inf])
    g_best, g_cost, history = swarm[0][0].copy(), math.inf, []
    for gen in range(1, cfg.max_generations + 1):
        for p in swarm:
            c = float(fitness(p[0], p[3]))
            c = c if math.isfinite(c) else math.inf
            if c < p[3]:
                p[2], p[3] = p[0].copy(), c
            if c < g_cost:
                g_best, g_cost = p[0].copy(), c
        history.append(g_cost)
        if gen == cfg.max_generations:
            break
        for i, p in enumerate(swarm):
            rng = stream(gen, i)
            r1, r2 = rng.random(cfg.n_dims), rng.random(cfg.n_dims)
            v = W * p[1] + r1 * C1 * (p[2] - p[0]) + r2 * C2 * (g_best - p[0])
            v = np.clip(v, -caps, caps)
            x = np.clip(p[0] + v, lo, hi)
            p[0], p[1] = x, np.where(x == p[0] + v, v, 0.0)
    return g_best, g_cost, history
