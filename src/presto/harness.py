"""Scenario orchestration: closed-loop runs, comparison reports, CSV traces.

A Scenario bundles one plant, one disturbance, one controller kind and its
gains, and the integration setup.  `run_scenario` advances everything on a
single fixed step:

    1. sample the disturbance;
    2. (adaptive kind) EKF predict with the input averaged over the elapsed
       measurement interval, then correct with the noisy position sample;
    3. form the drift value f from the feedback state (true state, or the
       filter estimate with its stiffness estimate in the adaptive kind);
    4. read the disturbance estimate and sliding stack, evaluate the
       control law for the kind (plus the actuator clamp where configured);
    5. log the decimated sample;
    6. advance the truth plant (explicit Euler by default, RK4 optional);
    7. advance the observer with the forcing the plant actually received
       (g(x)*u in the plain loop, v_r in the saturated loops), re-anchored
       against the freshest feedback state.

Each step runs in one of two fused loops, one for `smc_baseline` and one
for the three observer kinds, over plain floats hoisted out of the
scenario before the loop starts.  The stage functions of `plant`,
`observer`, `controller` and `estimator` stay the documented reference:
tests/test_kernels.py holds the fused loops to a step-by-step composition
of them, bit for bit.  The EKF cycle itself calls `ekf_predict` and
`ekf_update`.

A run ends in DivergenceError, carrying the partial trace, when the truth
state leaves the divergence limit or turns non-finite, when the observer
integrator turns non-finite, or when an EKF cycle yields a non-finite
estimate or covariance diagonal.

Runs are deterministic for a fixed seed.  The per-run report carries the
discrete-sample norms of the input and output error (plus the estimation
error and the pre-clamp command where they exist) and the windowed
settling time.
"""

from __future__ import annotations

import math
import struct
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

# The stage functions below are the documented reference that the fused
# loops reproduce bit for bit; they stay importable from here because the
# benchmark's per-layer tracer wraps them under these names.
from .controller import (  # noqa: F401
    SINGULARITY_FLOOR,
    SmcGains,
    TsmcGains,
    saturated_tsmc_control,
    sliding_stack_n2,
    smc_control,
    tsmc_control,
)
from .estimator import EkfConfig, EkfState, ekf_predict, ekf_update
from .mathcore import Trace, l2_norm, linf_norm, settling_time
from .observer import (  # noqa: F401
    ObserverGains,
    disturbance_estimate,
    observer_advance,
    observer_init,
)
from .plant import DisturbanceSpec, PlantParams, disturbance_value, plant_derivative

__all__ = [
    "KINDS",
    "Scenario",
    "RunReport",
    "DivergenceError",
    "run_scenario",
    "compare_controllers",
    "format_report_table",
    "report_csv_rows",
    "export_trace",
    "read_trace",
]

KINDS = ("tsmc", "tsmc_saturated", "adaptive_tsmc_saturated", "smc_baseline")

DIVERGENCE_LIMIT = 1e6


class DivergenceError(RuntimeError):
    """The truth state, observer or EKF blew past its divergence guard.

    Carries the partial trace, the step time and the peak state magnitude
    (inf when a value went non-finite).
    """

    def __init__(self, message: str, trace: Trace, t: float, peak: float):
        super().__init__(message)
        self.trace = trace
        self.t = t
        self.peak = peak


@dataclass(frozen=True)
class Scenario:
    """One closed-loop experiment definition."""

    kind: str
    plant: PlantParams
    disturbance: DisturbanceSpec
    x0: tuple[float, float]
    dt: float = 1e-4
    horizon: float = 8.0
    decimation: int = 10
    seed: int = 0
    tsmc: TsmcGains | None = None
    observer: ObserverGains | None = None
    ekf: EkfConfig | None = None
    smc: SmcGains | None = None
    smc_k1_nominal: float | None = None
    threshold_fraction: float = 0.02
    hold_duration: float = 0.5
    integrator: str = "euler"
    perfect_observer: bool = False
    z0_offset: float = 0.0
    process_noise: bool = False
    label: str = "run"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown scenario kind {self.kind!r}; expected one of {KINDS}")
        if not (self.dt > 0.0):
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if not (self.horizon > self.dt):
            raise ValueError("horizon must exceed dt")
        if self.decimation < 1:
            raise ValueError("decimation must be >= 1")
        if self.integrator not in ("euler", "rk4"):
            raise ValueError(f"unknown integrator {self.integrator!r}")
        if self.kind == "smc_baseline":
            if self.smc is None:
                raise ValueError("smc_baseline needs [smc] gains")
            if self.smc_k1_nominal is None:
                raise ValueError("smc_baseline needs a nominal K1 value")
        else:
            if self.tsmc is None:
                raise ValueError(f"kind {self.kind} needs sliding-mode gains")
            if self.observer is None and not self.perfect_observer:
                raise ValueError(f"kind {self.kind} needs observer gains")
            if self.tsmc.n != 2:
                raise ValueError("scenarios drive the second-order plant (n = 2)")
        if self.kind in ("tsmc_saturated", "adaptive_tsmc_saturated"):
            if self.tsmc.tau is None or self.tsmc.sat is None:
                raise ValueError(f"kind {self.kind} needs tau and saturation bounds")
        if self.kind == "adaptive_tsmc_saturated":
            if self.ekf is None:
                raise ValueError("adaptive kind needs an [ekf] section")
            if not (self.ekf.Ts > 0.0):
                raise ValueError("adaptive kind needs ekf Ts > 0")
            stride = self.ekf.Ts / self.dt
            if abs(stride - round(stride)) > 1e-9 or round(stride) < 1:
                raise ValueError(
                    f"ekf Ts={self.ekf.Ts} must be a whole multiple of dt={self.dt}"
                )
        if self.process_noise and self.ekf is None:
            raise ValueError("process_noise needs an [ekf] section for its covariances")


@dataclass
class RunReport:
    """Per-run metrics: discrete-sample norms, settling time, diagnostics."""

    label: str
    kind: str
    u_l2: float = 0.0
    u_linf: float = 0.0
    ey_l2: float = 0.0
    ey_linf: float = 0.0
    uc_l2: float | None = None
    uc_linf: float | None = None
    ex_l2: float | None = None
    ex_linf: float | None = None
    t_s: float | None = None
    failed: str | None = None
    diagnostics: list[str] = field(default_factory=list)
    trace_path: str | None = None


def run_scenario(sc: Scenario) -> tuple[Trace, RunReport]:
    """Integrate one scenario; returns the decimated trace and its report."""
    if sc.kind == "smc_baseline":
        trace, max_abs_d = _smc_loop(sc), 0.0
    else:
        trace, max_abs_d = _observer_loop(sc)
    saturated = sc.kind in ("tsmc_saturated", "adaptive_tsmc_saturated")
    report = RunReport(label=sc.label, kind=sc.kind)
    report.u_l2 = l2_norm(trace, "u")
    report.u_linf = linf_norm(trace, "u")
    report.ey_l2 = l2_norm(trace, "x1")
    report.ey_linf = linf_norm(trace, "x1")
    if saturated:
        report.uc_l2 = l2_norm(trace, "u_c")
        report.uc_linf = linf_norm(trace, "u_c")
    if sc.kind == "adaptive_tsmc_saturated":
        report.ex_l2 = l2_norm(trace, "e_x")
        report.ex_linf = linf_norm(trace, "e_x")
    report.t_s = settling_time(trace, sc.threshold_fraction, sc.hold_duration)
    # the plain observer estimates the raw external disturbance, so its
    # amplitude-bound assumption is checkable against the realized signal
    if sc.kind == "tsmc" and not sc.perfect_observer and max_abs_d > sc.observer.beta0:
        msg = (
            f"disturbance magnitude reached {max_abs_d:.4g}, exceeding the observer "
            f"bound beta0={sc.observer.beta0:.4g}"
        )
        report.diagnostics.append(msg)
        warnings.warn(msg, RuntimeWarning, stacklevel=2)
    return trace, report


# logged columns in trace order; each observer kind keeps a prefix of them
_SMC_COLUMNS = ("t", "x1", "x2", "u", "d", "s", "u_eq", "u_c")
_OBSERVER_COLUMNS = (
    "t", "x1", "x2", "u", "d", "d_hat", "s", "s2", "v_r", "u_c",
    "x1_hat", "x2_hat", "K1_hat", "e_x", "innov", "P_trace",
)
_OBSERVER_WIDTH = {"tsmc": 8, "tsmc_saturated": 10, "adaptive_tsmc_saturated": 16}


class _SampleLog:
    """Decimated samples, packed as float64 rows into one preallocated buffer.

    The loops write a row in place with `pack(buf, offset, *values)`, so
    logging keeps no Python object alive per sample.  Kinds that log fewer
    columns than the row holds keep a prefix of it.
    """

    def __init__(self, sc: Scenario, names: tuple[str, ...], width: int):
        n_samples = len(range(0, int(round(sc.horizon / sc.dt)), sc.decimation))
        packer = struct.Struct(f"{width}d")
        self.names = names
        self.dt = sc.dt * sc.decimation
        self.buf = np.empty((n_samples, width))
        self.pack = packer.pack_into
        self.row_bytes = packer.size

    def trace(self, offset: int) -> Trace:
        """The rows written below byte offset, as one contiguous array per column."""
        data = self.buf[: offset // self.row_bytes]
        if not len(data):
            return Trace(dt=self.dt)
        return Trace(dt=self.dt, columns={n: data[:, j].copy() for j, n in enumerate(self.names)})


def _diverged(what: str, detail: str, t: float, peak: float, log: _SampleLog, offset: int):
    return DivergenceError(f"{what} diverged at t={t:.4f} ({detail})", log.trace(offset), t, peak)


def _state_diverged(x1: float, x2: float, t: float, log: _SampleLog, offset: int):
    peak = max(abs(x1), abs(x2)) if math.isfinite(x1) and math.isfinite(x2) else math.inf
    return _diverged("state", f"|x| reached {peak:.3g}", t, peak, log, offset)


def _disturbance_terms(spec: DisturbanceSpec):
    """(amplitude, is sin_linear, rate*pi or rate) per term, plus the table arrays."""
    terms = tuple(
        (term.amplitude, term.kind == "sin_linear",
         term.rate * math.pi if term.kind == "sin_linear" else term.rate)
        for term in spec.terms
    )
    if spec.table is None:
        return terms, None, None
    times, values = spec.table
    return terms, np.asarray(times, dtype=float), np.asarray(values, dtype=float)


def _smc_loop(sc: Scenario) -> Trace:
    """Fused `smc_control` + truth loop; every operand is hoisted to a local.

    Bit-identical to composing `disturbance_value`, `smc_control` and
    `plant_derivative` step by step (tests/test_kernels.py holds it to that).
    """
    pp, gains = sc.plant, sc.smc
    nK1, K2, g = -pp.K1, pp.K2, pp.g
    Y, Kg, K1n = gains.Y, gains.Kg, sc.smc_k1_nominal
    dK = K1n - gains.K1_min
    dt, dec = sc.dt, sc.decimation
    terms, tab_t, tab_v = _disturbance_terms(sc.disturbance)
    rk4 = sc.integrator == "rk4"
    sin, sqrt, interp = math.sin, math.sqrt, np.interp
    lim = DIVERGENCE_LIMIT

    x1, x2 = float(sc.x0[0]), float(sc.x0[1])
    log = _SampleLog(sc, _SMC_COLUMNS, len(_SMC_COLUMNS))
    buf, pack, row_bytes = log.buf, log.pack, log.row_bytes
    offset = next_log = 0
    for i in range(int(round(sc.horizon / dt))):
        t = i * dt
        d = 0.0
        for amp, linear, c in terms:
            d += amp * sin(c * t) if linear else amp * sin(c * sqrt(t + 1.0))
        if tab_t is not None:
            d += float(interp(t, tab_t, tab_v))

        b = K2 * x1**3
        s = x2 + Y * x1
        u_eq = (Y * x2 - K1n * x1 - b) / g
        sg = 1.0 if s > 0.0 else (-1.0 if s < 0.0 else 0.0)
        u_c = (dK * abs(x1) + Kg) / g * sg
        u = u_eq + u_c
        if i == next_log:
            next_log += dec
            pack(buf, offset, t, x1, x2, u, d, s, u_eq, u_c)
            offset += row_bytes

        if rk4:
            x1, x2 = _rk4_step(x1, x2, u, t, dt, pp, sc.disturbance)
        else:
            dx2 = nK1 * x1 - b - g * u + d
            x1 += dt * x2
            x2 += dt * dx2
        if not (-lim <= x1 <= lim and -lim <= x2 <= lim):
            raise _state_diverged(x1, x2, t, log, offset)
    return log.trace(offset)


def _observer_loop(sc: Scenario) -> tuple[Trace, float]:
    """Fused loop of the three observer kinds; returns the trace and max |d|.

    Composes `disturbance_value`, `ekf_predict`/`ekf_update`,
    `disturbance_estimate`, `sliding_stack_n2`, `tsmc_control` or
    `saturated_tsmc_control`, `plant_derivative` and `observer_advance`
    with every operand hoisted, bit for bit (tests/test_kernels.py).
    The feedback terms that depend only on the feedback state are
    refreshed every step from the truth, or on each EKF cycle from the
    estimate in the adaptive kind; the EKF itself still runs through the
    library functions and their `EkfState` validation.
    """
    adaptive = sc.kind == "adaptive_tsmc_saturated"
    saturated = sc.kind != "tsmc"
    has_observer = not sc.perfect_observer
    rk4 = sc.integrator == "rk4"
    noisy = adaptive and sc.process_noise

    pp, tg = sc.plant, sc.tsmc
    nK1, K2, g = -pp.K1, pp.K2, pp.g
    ng = -g  # G, the input coefficient in system form
    ninv_g = -(1.0 / g)
    a1, b1 = tg.alphas[0], tg.betas[0]
    r1 = tg.exps[0].ratio
    r1m1 = r1 - 1.0
    r2 = tg.exps[-1].ratio
    delta, mu = tg.delta, tg.mu
    floor = SINGULARITY_FLOOR
    if saturated:
        gden = ng * ng + tg.tau
        u_min, u_max = tg.sat.u_min, tg.sat.u_max
    if has_observer:
        og = sc.observer
        nk, beta0, eps, r0 = -og.k, og.beta0, og.eps, og.e0.ratio
        width = og.smooth_sgn_width
        smooth = width > 0.0
    dt, dec = sc.dt, sc.decimation
    terms, tab_t, tab_v = _disturbance_terms(sc.disturbance)
    sin, sqrt, interp, isfinite = math.sin, math.sqrt, np.interp, math.isfinite
    lim, inf = DIVERGENCE_LIMIT, math.inf

    x1, x2 = float(sc.x0[0]), float(sc.x0[1])
    k1_hat = pp.K1
    fb_stride = 1
    innov = p_trace = 0.0
    if adaptive:
        cfg = sc.ekf
        ekf_state = EkfState(x_hat=cfg.x0_hat.copy(), P=cfg.P0.copy())
        fb_stride = int(round(cfg.Ts / dt))
        rng = np.random.default_rng(np.random.SeedSequence([sc.seed]))
        normal = rng.standard_normal
        meas_std = math.sqrt(cfg.R)
        if noisy:
            pn1 = math.sqrt(cfg.Q[0, 0] * dt / cfg.Ts)
            pn2 = math.sqrt(cfg.Q[1, 1] * dt / cfg.Ts)
        u_acc = 0.0

    z = s = s_obs = u_c = 0.0
    max_abs_d = 0.0
    log = _SampleLog(sc, _OBSERVER_COLUMNS[: _OBSERVER_WIDTH[sc.kind]], len(_OBSERVER_COLUMNS))
    buf, pack, row_bytes = log.buf, log.pack, log.row_bytes
    offset = next_log = next_fb = 0
    for i in range(int(round(sc.horizon / dt))):
        t = i * dt
        d = 0.0
        for amp, linear, c in terms:
            d += amp * sin(c * t) if linear else amp * sin(c * sqrt(t + 1.0))
        if tab_t is not None:
            d += float(interp(t, tab_t, tab_v))
        if abs(d) > max_abs_d:
            max_abs_d = abs(d)

        if i == next_fb:
            next_fb += fb_stride
            if adaptive:
                if i:
                    ekf_state = ekf_predict(ekf_state, u_acc / fb_stride, cfg, K2, g)
                u_acc = 0.0
                ekf_state, innov = ekf_update(ekf_state, x1 + meas_std * normal(), cfg)
                fb1 = float(ekf_state.x_hat[0])
                fb2 = float(ekf_state.x_hat[1])
                k1_hat = float(ekf_state.x_hat[2])
                p_trace = float(np.trace(ekf_state.P))
                if not (isfinite(fb1) and isfinite(fb2) and isfinite(k1_hat)
                        and isfinite(p_trace)):
                    raise _diverged("EKF", "non-finite estimate or covariance diagonal",
                                    t, inf, log, offset)
            else:
                fb1, fb2 = x1, x2
            # terms of the drift, the surface and the law that only the
            # feedback state moves
            lin = k1_hat * fb1
            cub = K2 * fb1**3
            fx = -lin - cub
            abs_fx = abs(fx)
            ax = abs(fb1)
            sp1 = ax**r1 if fb1 > 0.0 else (-(ax**r1) if fb1 < 0.0 else 0.0)
            ddt = r1 * ax**r1m1 * fb2 if ax >= floor else 0.0
            s2_fb = fb2 + a1 * fb1 + b1 * sp1
            law_fb = lin + cub - a1 * fb2 - b1 * ddt
            if i == 0 and has_observer:
                z = fb2 + sc.z0_offset
                s = sc.z0_offset

        if has_observer:
            # four-term prefix shared by the estimate and the z rate
            if s > 0.0:
                sw = 1.0
                sp0 = s**r0
            elif s < 0.0:
                sw = -1.0
                sp0 = -((-s) ** r0)
            else:
                sw = sp0 = 0.0
            if smooth:
                sw = s / width
                sw = 1.0 if sw > 1.0 else (-1.0 if sw < -1.0 else sw)
            prefix = nk * s - beta0 * sw - eps * sp0 - abs_fx * sw
            d_hat = prefix - fx
            s_obs = s
        else:
            d_hat = d
        s2 = s2_fb + s_obs
        sp2 = s2**r2 if s2 > 0.0 else (-((-s2) ** r2) if s2 < 0.0 else 0.0)
        v = law_fb - d_hat - delta * s2 - mu * sp2
        if saturated:
            forcing = v
            u_c = ng * v / gden
            u = u_max if u_c > u_max else (u_min if u_c < u_min else u_c)
        else:
            u = ninv_g * v
            forcing = ng * u
        if i == next_log:
            next_log += dec
            pack(buf, offset, t, x1, x2, u, d, d_hat, s_obs, s2, v, u_c,
                 fb1, fb2, k1_hat, x1 - fb1, innov, p_trace)
            offset += row_bytes

        if rk4:
            x1, x2 = _rk4_step(x1, x2, u, t, dt, pp, sc.disturbance)
        else:
            dx2 = (fx if not adaptive else nK1 * x1 - K2 * x1**3) - g * u + d
            x1 += dt * x2
            x2 += dt * dx2
        if noisy:
            x1 += pn1 * normal()
            x2 += pn2 * normal()
        if has_observer:
            z += dt * (prefix + forcing)
            s = z - (fb2 if adaptive else x2)
        if adaptive:
            u_acc += u

        if not (-lim <= x1 <= lim and -lim <= x2 <= lim and -inf < z < inf):
            if -inf < z < inf:
                raise _state_diverged(x1, x2, t, log, offset)
            raise _diverged("observer", f"z reached {z}", t, inf, log, offset)
    return log.trace(offset), max_abs_d


def _rk4_step(x1, x2, u, t, dt, pp: PlantParams, spec: DisturbanceSpec):
    # classic RK4 on the truth with the input held over the step and the
    # disturbance evaluated at the substage times
    def f(xa, xb, tt):
        return plant_derivative((xa, xb), u, disturbance_value(spec, tt), pp)

    k1 = f(x1, x2, t)
    k2 = f(x1 + 0.5 * dt * k1[0], x2 + 0.5 * dt * k1[1], t + 0.5 * dt)
    k3 = f(x1 + 0.5 * dt * k2[0], x2 + 0.5 * dt * k2[1], t + 0.5 * dt)
    k4 = f(x1 + dt * k3[0], x2 + dt * k3[1], t + dt)
    return (
        x1 + dt / 6.0 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0]),
        x2 + dt / 6.0 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1]),
    )


def compare_controllers(
    entries: list[tuple[str, Scenario]],
    out_dir: Path | str | None = None,
) -> tuple[list[RunReport], str]:
    """Run every scenario, export traces, and build the comparison table.

    A divergent run is reported as a failed row; the other rows proceed.
    Trace references inside the report are file names only, so two output
    directories produced with the same seeds match byte for byte.
    """
    out = Path(out_dir) if out_dir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    reports: list[RunReport] = []
    for label, sc in entries:
        sc = replace(sc, label=label)
        try:
            trace, report = run_scenario(sc)
        except DivergenceError as err:
            report = RunReport(label=label, kind=sc.kind, failed=str(err))
            trace = err.trace
        if out is not None:
            path = out / f"{label}.csv"
            export_trace(trace, path)
            report.trace_path = path.name
        reports.append(report)
    text = format_report_table(reports)
    if out is not None:
        (out / "report.txt").write_text(text, newline="\n")
        (out / "report.csv").write_text(report_csv_rows(reports), newline="\n")
    return reports, text


_TABLE_COLUMNS = (
    ("||u||2", "u_l2"),
    ("||u||inf", "u_linf"),
    ("||e_y||2", "ey_l2"),
    ("||e_y||inf", "ey_linf"),
    ("||e_x||2", "ex_l2"),
    ("||e_x||inf", "ex_linf"),
    ("||u_c||2", "uc_l2"),
    ("||u_c||inf", "uc_linf"),
)


def format_report_table(reports: list[RunReport]) -> str:
    """Aligned plain-text comparison table, one row per run."""
    header = f"{'scenario':<26}" + "".join(f"{name:>12}" for name, _ in _TABLE_COLUMNS)
    header += f"{'t_s':>14}  trace"
    lines = [header]
    for r in reports:
        if r.failed is not None:
            lines.append(f"{r.label:<26}  FAILED: {r.failed}")
            continue
        row = f"{r.label:<26}"
        for _, attr in _TABLE_COLUMNS:
            v = getattr(r, attr)
            row += f"{'-':>12}" if v is None else f"{v:>12.4f}"
        ts = "not settled" if r.t_s is None else f"{r.t_s:.4f}"
        row += f"{ts:>14}  {r.trace_path or '-'}"
        lines.append(row)
    return "\n".join(lines) + "\n"


def report_csv_rows(reports: list[RunReport]) -> str:
    """Machine-readable twin of the comparison table, full precision."""
    cols = ["label", "kind", "u_l2", "u_linf", "ey_l2", "ey_linf", "ex_l2", "ex_linf",
            "uc_l2", "uc_linf", "t_s", "failed", "trace"]
    lines = [",".join(cols)]
    for r in reports:
        vals = [r.label, r.kind]
        for attr in ("u_l2", "u_linf", "ey_l2", "ey_linf", "ex_l2", "ex_linf",
                     "uc_l2", "uc_linf"):
            v = getattr(r, attr)
            vals.append("" if v is None or r.failed is not None else f"{v:.12e}")
        vals.append("" if r.t_s is None or r.failed is not None else f"{r.t_s:.12e}")
        vals.append(r.failed or "")
        vals.append(r.trace_path or "")
        lines.append(",".join(vals))
    return "\n".join(lines) + "\n"


def export_trace(tr: Trace, path: Path | str) -> None:
    """Write the trace as CSV: time first, 13 significant digits, LF endings."""
    path = Path(path)
    names = list(tr.columns)
    if "t" in names:
        names.remove("t")
        names.insert(0, "t")
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(names) + "\n")
        if not names:
            return
        # rows are formatted one at a time, so no whole-file string is built
        fmt = ",".join(["%.12e"] * len(names)) + "\n"
        fh.writelines(fmt % row for row in zip(*(tr.columns[name] for name in names)))


def read_trace(path: Path | str) -> Trace:
    """Load a trace CSV written by export_trace; dt comes from the time column."""
    path = Path(path)
    with open(path) as fh:
        header = fh.readline().strip()
        if not header:
            raise ValueError(f"{path} has no header row")
        names = header.split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.size == 0:
        raise ValueError(f"{path} has no samples")
    columns = {name: data[:, j] for j, name in enumerate(names)}
    if "t" in columns and len(columns["t"]) > 1:
        dt = float(columns["t"][1] - columns["t"][0])
    else:
        dt = 1.0
    return Trace(dt=dt, columns=columns)
