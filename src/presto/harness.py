"""Scenario orchestration: closed-loop runs, comparison reports, CSV traces.

A Scenario bundles one plant, one disturbance, one controller kind and its
gains, and the integration setup.  `run_scenario` advances everything on a
single fixed step:

    1. read the disturbance sample (`disturbance_value` evaluates the
       waveform one fixed block of step times at a time, when the loop
       reaches the block);
    2. (adaptive kind) EKF predict with the input averaged over the elapsed
       measurement interval, then correct with the noisy position sample;
    3. form the drift value f from the feedback state (true state, or the
       filter estimate with its stiffness estimate in the adaptive kind);
    4. read the disturbance estimate and sliding surface, evaluate the
       control law for the kind (plus the actuator clamp where configured);
    5. log the decimated sample, and end the run there when the scenario
       has a `settle_by` bound and this sample either completes the first
       settling window or leaves no window able to start before the bound;
    6. advance the truth plant by one explicit Euler step;
    7. advance the observer with the forcing the plant actually received
       (g(x)*u in the plain loop, v_r in the saturated loops), re-anchored
       against the freshest feedback state.

Each step runs in one of two fused loops, one for `smc_baseline` and one
for the three observer kinds, over plain floats hoisted out of the
scenario before the loop starts.  The stage functions of `plant`,
`observer`, `controller` and `estimator` stay the documented reference:
tests/test_kernels.py holds the fused loops to a step-by-step composition
of them, bit for bit.  The EKF cycle itself calls `ekf_predict` and
`ekf_update` on the filter's plain-float state, and the loop's divergence
guard is its only run-time check.

A scenario with a `settle_by` bound (observer kinds only) stops early on a
logged sample.  The band `threshold_fraction * max(|x1(0)|, |x2(0)|)` and
the hold window of `settling_time` are known before the first step, and so
is the earliest time a window can still start: the first sample time of
the current run of in-band samples, or the next sample time when no such
run is going, both written as `i * dt` as in the t column.  The run ends at
the sample that completes the first window, so `t_s` is the full run's, or
at the first sample after which the earliest start is at or past
`settle_by`, so the full run's `t_s` is None or >= `settle_by`.  Either
way every trace column is a prefix of the full run's.  `math.inf` stops at
the first window only; the PSO fitness passes its particle's personal best.

A run ends in DivergenceError, carrying the partial trace, when the truth
state leaves the divergence limit or turns non-finite, when the observer
integrator turns non-finite, or when an EKF cycle yields a state estimate
beyond the divergence limit, a non-finite stiffness estimate or trace of the
covariance, or a singular innovation covariance.  The saturated kinds clamp
inline, and a NaN command passes that clamp where `controller.saturate`
refuses it; it turns x2 NaN in the same step's Euler update, so the state
guard ends the run at that step.

Runs are deterministic for a fixed seed.  The per-run report carries the
discrete-sample norms of the input and output error (plus the estimation
error and the pre-clamp command where they exist) and the windowed
settling time.
"""

from __future__ import annotations

import itertools
import math
import struct
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Iterator

import numpy as np

# The stage functions below are the documented reference that the fused
# loops reproduce bit for bit; they stay importable from here because the
# benchmark's per-layer tracer wraps them under these names (tests/test_bench.py).
from .controller import (  # noqa: F401
    SINGULARITY_FLOOR,
    SmcGains,
    TsmcGains,
    saturated_tsmc_control,
    sliding_stack_n2,
    smc_control,
    tsmc_control,
)
from .estimator import EkfConfig, ekf_init, ekf_predict, ekf_update
from .mathcore import Trace, l2_norm, linf_norm, settling_time
from .observer import (  # noqa: F401
    ObserverGains,
    disturbance_estimate,
    observer_advance,
    observer_init,
)
from .plant import DisturbanceSpec, PlantParams, disturbance_value, plant_derivative  # noqa: F401

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
]

KINDS = ("tsmc", "tsmc_saturated", "adaptive_tsmc_saturated", "smc_baseline")
# Scenario fields each kind's loop never reads; one set off its default is
# rejected rather than silently ignored
_UNUSED = {
    "tsmc": ("smc", "ekf"),
    "tsmc_saturated": ("smc", "ekf"),
    "adaptive_tsmc_saturated": ("smc",),
    "smc_baseline": ("tsmc", "observer", "ekf", "z0_offset", "settle_by"),
}

DIVERGENCE_LIMIT = 1e6
# steps of the disturbance waveform evaluated at once: the first block, and
# the size at which the doubling of later blocks stops
_SERIES_FIRST, _SERIES_BLOCK = 1024, 8192


class DivergenceError(RuntimeError):
    """The truth state, observer or EKF blew past its divergence guard.

    Carries the partial trace (every logged column, with zero rows when the
    run diverged before its first sample), the step time and the peak state
    magnitude (inf when a value went non-finite).
    """

    def __init__(self, message: str, trace: Trace, t: float, peak: float):
        super().__init__(message)
        self.trace = trace
        self.t = t
        self.peak = peak


@dataclass(frozen=True)
class Scenario:
    """One closed-loop experiment definition.

    Each gain field holds one config section as its type: `tsmc` is
    [controller], `observer` is [observer], `ekf` is [ekf] and `smc` is
    [smc], the nominal K1 included.  The [scenario] keys and [observer]
    z0_offset are fields of the Scenario itself.

    `settle_by` (library only, observer kinds only; None runs the whole
    horizon) ends the run at the logged sample that completes the first
    settling window, or at the first logged sample after which no window
    can start before `settle_by`.  A run ended the first way reports the
    full run's `t_s`; one ended the second way reports None, and the full
    run's `t_s` is then None or >= `settle_by`.  The report norms cover only
    the simulated prefix, and a divergence after the stop goes unseen.

    A field the kind's loop never reads, such as the observer gains on
    `smc_baseline` or `ekf` outside `adaptive_tsmc_saturated`, must keep
    its default.
    """

    kind: str
    plant: PlantParams
    disturbance: DisturbanceSpec
    x0: tuple[float, float] = (1.0, 5.0)
    dt: float = 1e-4
    horizon: float = 8.0
    decimation: int = 10
    seed: int = 0
    tsmc: TsmcGains | None = None
    observer: ObserverGains | None = None
    ekf: EkfConfig | None = None
    smc: SmcGains | None = None
    threshold_fraction: float = 0.02
    hold_duration: float = 0.5
    z0_offset: float = 0.0
    settle_by: float | None = None
    label: str = "run"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown scenario kind {self.kind!r}; expected one of {KINDS}")
        if len(self.x0) != 2:
            raise ValueError(f"x0 needs two entries, got {len(self.x0)}")
        if not all(math.isfinite(v) for v in self.x0):
            raise ValueError(f"x0 entries must be finite, got {self.x0}")
        if not math.isfinite(self.z0_offset):
            raise ValueError(f"z0_offset must be finite, got {self.z0_offset}")
        if not (self.dt > 0.0):
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if not (self.dt < self.horizon < math.inf):
            raise ValueError(f"horizon must be finite and exceed dt, got {self.horizon}")
        if self.decimation < 1:
            raise ValueError("decimation must be >= 1")
        # checked here too, so a bad settling rule fails before the run, not after it
        if not (0.0 < self.threshold_fraction < 1.0):
            raise ValueError(
                f"threshold_fraction must lie in (0, 1), got {self.threshold_fraction}"
            )
        if not (0.0 <= self.hold_duration < math.inf):
            raise ValueError(f"hold_duration must be finite and >= 0, got {self.hold_duration}")
        if self.kind == "smc_baseline":
            if self.smc is None:
                raise ValueError("smc_baseline needs [smc] gains")
        else:
            if self.tsmc is None:
                raise ValueError(f"kind {self.kind} needs sliding-mode gains")
            if self.observer is None:
                raise ValueError(f"kind {self.kind} needs observer gains")
        if self.kind in ("tsmc_saturated", "adaptive_tsmc_saturated"):
            if self.tsmc.tau is None or self.tsmc.sat is None:
                raise ValueError(f"kind {self.kind} needs tau and saturation bounds")
        elif self.kind == "tsmc" and (self.tsmc.tau is not None or self.tsmc.sat is not None):
            # the plain law neither regularizes nor clamps its input
            raise ValueError(
                "tau and the clamp (tsmc.tau, tsmc.sat: u_min, u_max) apply to the "
                "saturated kinds only, not to tsmc"
            )
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
        unused = [f.name for f in fields(self)
                  if f.name in _UNUSED[self.kind] and getattr(self, f.name) != f.default]
        if unused:
            raise ValueError(f"kind {self.kind} does not use {', '.join(unused)}")


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
    if sc.kind == "tsmc" and max_abs_d > sc.observer.beta0:
        report.diagnostics.append(
            f"disturbance magnitude reached {max_abs_d:.4g}, exceeding the observer "
            f"bound beta0={sc.observer.beta0:.4g}"
        )
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
        return Trace(dt=self.dt, columns={n: data[:, j].copy() for j, n in enumerate(self.names)})


def _diverged(what: str, detail: str, t: float, peak: float, log: _SampleLog, offset: int):
    return DivergenceError(f"{what} diverged at t={t:.4f} ({detail})", log.trace(offset), t, peak)


def _state_diverged(x1: float, x2: float, t: float, log: _SampleLog, offset: int):
    peak = max(abs(x1), abs(x2)) if math.isfinite(x1) and math.isfinite(x2) else math.inf
    return _diverged("state", f"|x| reached {peak:.3g}", t, peak, log, offset)


class _DisturbanceSeries:
    """d at every step time i*dt, evaluated one block of steps when the loop reaches it.

    Iterating yields floats.  Blocks double from 1024 steps up to 8192, so
    a run that stops early evaluates little past its stop, and a long run
    pays the per-block numpy overhead only a few more times than with 8192
    throughout.  `peak` is max |d| over the blocks evaluated so far: the
    whole horizon once a full run ends, and the simulated prefix, up to the
    end of its block, of a run that stopped early.
    """

    def __init__(self, sc: Scenario):
        self.n = int(round(sc.horizon / sc.dt))
        self.dt = sc.dt
        self.spec = sc.disturbance
        self.peak = 0.0

    def __iter__(self) -> Iterator[float]:
        return itertools.chain.from_iterable(self._blocks())

    def _blocks(self) -> Iterator[memoryview]:
        start, size = 0, _SERIES_FIRST
        while start < self.n:
            stop = min(start + size, self.n)
            t = np.arange(start, stop, dtype=float)
            t *= self.dt
            block = disturbance_value(self.spec, t)
            self.peak = float(np.max(np.abs(block), initial=self.peak))  # NaN propagates as in one max
            yield memoryview(block)
            start, size = stop, min(2 * size, _SERIES_BLOCK)


def _smc_loop(sc: Scenario) -> Trace:
    """Fused `smc_control` + truth loop; every operand is hoisted to a local,
    the switching slope included.

    Bit-identical to composing `disturbance_value`, `smc_control` and
    `plant_derivative` step by step (tests/test_kernels.py holds it to that).
    """
    pp, gains = sc.plant, sc.smc
    nK1, K2, g = -pp.K1, pp.K2, pp.g
    Y, Kg, K1n = gains.Y, gains.Kg, gains.K1_nominal
    dK = max(K1n - gains.K1_min, gains.K1_max - K1n)
    dt, dec = sc.dt, sc.decimation
    lim = DIVERGENCE_LIMIT

    x1, x2 = float(sc.x0[0]), float(sc.x0[1])
    d_series = _DisturbanceSeries(sc)
    log = _SampleLog(sc, _SMC_COLUMNS, len(_SMC_COLUMNS))
    buf, pack, row_bytes = log.buf, log.pack, log.row_bytes
    offset = next_log = 0
    for i, d in enumerate(d_series):
        t = i * dt
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

        dx2 = nK1 * x1 - b - g * u + d
        x1 += dt * x2
        x2 += dt * dx2
        if not (-lim <= x1 <= lim and -lim <= x2 <= lim):
            raise _state_diverged(x1, x2, t, log, offset)
    return log.trace(offset)


def _observer_loop(sc: Scenario) -> tuple[Trace, float]:
    """Fused loop of the three observer kinds; returns the trace and max |d|.

    max |d| covers the whole horizon, or the simulated prefix (to the end
    of its disturbance block) of a run that `settle_by` stopped.

    Take the feedback state (x1, x2) to be the truth, or in the adaptive
    kind the EKF estimate with its stiffness estimate in place of K1, and
    let f = -K1*x1 - K2*x1**3, G = -g, and a**r the signed power
    sign(a)*|a|**r.  Each step evaluates the observer and the law

        prefix = -k*s - beta0*sgn(s) - eps*s**(p0/q0) - |f|*sgn(s)
        d_hat  = prefix - f
        s2     = x2 + alpha1*x1 + beta1*x1**(p1/q1) + s
        v      = -f - alpha1*x2 - beta1*(p1/q1)*|x1|**(p1/q1 - 1)*x2
                 - d_hat - delta*s2 - mu*s2**(p2/q2)

    where the beta1 rate term is 0 below |x1| = SINGULARITY_FLOOR.  Kind
    tsmc applies u = -v/g and drives the observer with forcing = G*u; the
    saturated kinds apply u = min(max(u_c, u_min), u_max) with
    u_c = G*v/(G**2 + tau), and drive it with forcing = v.  After the
    plant's Euler step the observer advances and re-anchors:

        z <- z + dt*(prefix + forcing),    s = z - x_n

    with x_n the new truth x2, or the current estimate of x2 in the
    adaptive kind; z starts at x2(0) + z0_offset of the feedback state.

    Composes `disturbance_value`, `ekf_predict`/`ekf_update`,
    `disturbance_estimate`, `sliding_stack_n2`, `tsmc_control` or
    `saturated_tsmc_control`, `plant_derivative` and `observer_advance`
    with every operand hoisted, bit for bit (tests/test_kernels.py).
    The feedback terms that depend only on the feedback state are
    refreshed every step from the truth, or on each EKF cycle from the
    estimate in the adaptive kind.  The EKF itself runs through the library
    functions, whose state is already plain floats: the loop unpacks the
    estimate and sums the covariance trace from the three diagonal entries,
    and the divergence guard checks both after each update.
    """
    adaptive = sc.kind == "adaptive_tsmc_saturated"
    saturated = sc.kind != "tsmc"

    pp, tg = sc.plant, sc.tsmc
    nK1, K2, g = -pp.K1, pp.K2, pp.g
    ng = -g  # G, the input coefficient in system form
    ninv_g = -(1.0 / g)
    a1, b1 = tg.alpha1, tg.beta1
    r1 = tg.e1.ratio
    r1m1 = r1 - 1.0
    r2 = tg.e2.ratio
    delta, mu = tg.delta, tg.mu
    floor = SINGULARITY_FLOOR
    if saturated:
        gden = ng * ng + tg.tau
        u_min, u_max = tg.sat.u_min, tg.sat.u_max
    og = sc.observer
    nk, beta0, eps, r0 = -og.k, og.beta0, og.eps, og.e0.ratio
    dt, dec = sc.dt, sc.decimation
    isfinite = math.isfinite
    lim, inf = DIVERGENCE_LIMIT, math.inf

    x1, x2 = float(sc.x0[0]), float(sc.x0[1])
    k1_hat = pp.K1
    fb_stride = 1
    innov = p_trace = 0.0
    if adaptive:
        cfg = sc.ekf
        ekf_state = ekf_init(cfg)
        fb_stride = int(round(cfg.Ts / dt))
        u_acc = 0.0

    u_c = 0.0
    d_series = _DisturbanceSeries(sc)
    if adaptive:
        # the measurement noise of every EKF cycle in one draw: the same
        # stream as one scalar draw per cycle
        rng = np.random.default_rng(np.random.SeedSequence([sc.seed]))
        n_cycles = len(range(0, d_series.n, fb_stride))
        noise = iter((math.sqrt(cfg.R) * rng.standard_normal(n_cycles)).tolist())
    log = _SampleLog(sc, _OBSERVER_COLUMNS[: _OBSERVER_WIDTH[sc.kind]], len(_OBSERVER_COLUMNS))
    buf, pack, row_bytes = log.buf, log.pack, log.row_bytes
    offset = next_log = next_fb = 0
    settle_by = sc.settle_by
    if settle_by is not None:
        # the band and hold window of `settling_time`, the length of the
        # current run of in-band samples, and the earliest time a window
        # can still start: the time of the sample after the last one out
        # of band, which is the current run's first sample time while a
        # run is going and the next sample time otherwise
        band = sc.threshold_fraction * max(abs(x1), abs(x2))
        window = int(round(sc.hold_duration / log.dt)) + 1
        in_band = 0
        earliest = 0.0
    for i, d in enumerate(d_series):
        t = i * dt
        if i == next_fb:
            next_fb += fb_stride
            if adaptive:
                if i:
                    ekf_state = ekf_predict(ekf_state, u_acc / fb_stride, cfg, K2, g)
                u_acc = 0.0
                try:
                    ekf_state, innov = ekf_update(ekf_state, x1 + next(noise), cfg)
                except ZeroDivisionError as err:
                    raise _diverged("EKF", str(err), t, inf, log, offset) from None
                (fb1, fb2, k1_hat), P = ekf_state
                p_trace = P[0] + P[3] + P[5]  # the diagonal of the upper triangle
                # the limit on the state estimate also keeps fb1**3 finite
                # and the next predict's covariance free of overflow
                if not (-lim <= fb1 <= lim and -lim <= fb2 <= lim and isfinite(k1_hat)
                        and isfinite(p_trace)):
                    raise _diverged("EKF", f"x_hat = ({fb1:.3g}, {fb2:.3g}, {k1_hat:.3g}), "
                                    f"trace P = {p_trace:.3g}", t, inf, log, offset)
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
            if i == 0:
                z = fb2 + sc.z0_offset
                s = sc.z0_offset

        if s > 0.0:
            sw = 1.0
            sp0 = s**r0
        elif s < 0.0:
            sw = -1.0
            sp0 = -((-s) ** r0)
        else:
            sw = sp0 = 0.0
        prefix = nk * s - beta0 * sw - eps * sp0 - abs_fx * sw
        d_hat = prefix - fx
        s2 = s2_fb + s
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
            pack(buf, offset, t, x1, x2, u, d, d_hat, s, s2, v, u_c,
                 fb1, fb2, k1_hat, x1 - fb1, innov, p_trace)
            offset += row_bytes
            if settle_by is not None:
                if abs(x1) <= band and abs(x2) <= band:
                    in_band += 1
                    if in_band >= window:
                        break
                else:
                    in_band = 0
                    earliest = next_log * dt
                if earliest >= settle_by:
                    break

        dx2 = (fx if not adaptive else nK1 * x1 - K2 * x1**3) - g * u + d
        x1 += dt * x2
        x2 += dt * dx2
        z += dt * (prefix + forcing)
        s = z - (fb2 if adaptive else x2)
        if adaptive:
            u_acc += u

        if not (-lim <= x1 <= lim and -lim <= x2 <= lim and -inf < z < inf):
            if -inf < z < inf:
                raise _state_diverged(x1, x2, t, log, offset)
            raise _diverged("observer", f"z reached {z}", t, inf, log, offset)
    return log.trace(offset), d_series.peak


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
    metrics = [attr for _, attr in _TABLE_COLUMNS]
    lines = [",".join(["label", "kind", *metrics, "t_s", "failed", "trace"])]
    for r in reports:
        vals = [r.label, r.kind]
        for attr in metrics:
            v = getattr(r, attr)
            vals.append("" if v is None or r.failed is not None else f"{v:.12e}")
        vals.append("" if r.t_s is None or r.failed is not None else f"{r.t_s:.12e}")
        vals.append(r.failed or "")
        vals.append(r.trace_path or "")
        lines.append(",".join(vals))
    return "\n".join(lines) + "\n"


# values formatted per numpy block by the trace writer
_BLOCK_VALUES = 4096
# exponents covered by the power table: every floor(log10|x|) the trace
# writer takes for 1e-99 <= |x| < 1e99
_E_MIN, _E_MAX = -100, 99
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitting constant


def _powers_of_ten() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """10**(12 - e) for each table exponent e as the pair hi + lo, and hi split.

    hi is the double nearest the power and lo the double nearest the rest,
    both from exact integer arithmetic, so hi + lo is within 2**-106 of it.
    """
    hi, lo = [], []
    for e in range(_E_MIN, _E_MAX + 1):
        num, den = (10 ** (12 - e), 1) if e <= 12 else (1, 10 ** (e - 12))
        h = num / den
        n, d = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * d - n * den) / (den * d))
    hi = np.array(hi)
    c = _SPLIT * hi
    hi_hi = c - (c - hi)
    return hi, hi_hi, hi - hi_hi, np.array(lo)


_POW_HI, _POW_HI_HI, _POW_HI_LO, _POW_LO = _powers_of_ten()
# byte tables, four characters to a native uint32 word; NUL marks an empty byte
_n = np.arange(10000, dtype=np.uint16)  # small dtypes keep the import's scratch small
_DIGITS4 = np.ascontiguousarray(  # "0000" .. "9999"
    np.stack([_n // 1000, _n // 100 % 10, _n // 10 % 10, _n % 10], 1) + ord("0"), np.uint8
).view(np.uint32).ravel()
del _n
# NUL pad, sign, lead digit, point; indexed by the lead digit, plus 10 when negative
_HEAD = np.frombuffer(b"".join(b"\0%s%d." % (sign, d) for sign in (b"\0", b"-") for d in range(10)),
                      np.uint32)
_EXP = np.frombuffer(b"".join(b"e%+03d" % e for e in range(-99, 100)), np.uint32)  # "e-99" .. "e+99"
_COMMA, _NEWLINE = np.frombuffer(b",\0\0\0\n\0\0\0", np.uint32)


def _scaled(a: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a * 10**(12 - e) as p + t: p = fl(a*hi), t its exact error plus a*lo."""
    i = e - _E_MIN
    hi, hi_hi, hi_lo, lo = _POW_HI[i], _POW_HI_HI[i], _POW_HI_LO[i], _POW_LO[i]
    c = _SPLIT * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    p = a * hi
    t = ((a_hi * hi_hi - p) + a_hi * hi_lo + a_lo * hi_hi) + a_lo * hi_lo + a * lo
    return p, t


def _format_block(block: np.ndarray) -> np.ndarray:
    """CSV bytes of a 2-D float block: each value as `'%.12e' % value`, rows ended by LF.

    A value with 1e-99 <= |x| < 1e99, or a zero, takes the vector path.  Its
    decimal exponent e is floor(log10|x|), kept only where the scaled value
    p + t = |x| * 10**(12 - e) has p in [1e12, 1e13); the 13 digits are
    p + t rounded to the nearest integer.  p + t lies within
    2**-104 * 1e13 < 1e-18 of the exact product (the power pair within
    2**-106, Dekker's product exact, two roundings of t at most 2**-105
    each), and the residual (p - floor(p)) + t within one more rounding,
    2**-53, of its exact value.  So every residual at least 1e-6 from the
    tie at 0.5 rounds as the exact value does.  The doubles 1e-99 and 1e99
    lie inside (10**-99, 10**99), so every exponent has two digits.

    Each value fills a slot of six uint32 words (sign and lead digit, three
    groups of four digits, the exponent, the separator) in which NUL marks
    an empty byte.  A value off the vector path (non-finite, |x| out of
    range, a residual near a tie) gets `'%.12e' % x` written into its slot
    instead; next to a power of ten, where log10 can round across the
    integer, that is the few values whose p misses the range.  Dropping the
    NULs joins the slots.
    """
    x = block.ravel()
    a = np.abs(x)
    vector = (a >= 1e-99) & (a < 1e99)
    a[~vector] = 1.0  # a stand-in that keeps log10 and the table lookups in range
    e = np.floor(np.log10(a)).astype(np.intp)
    p, t = _scaled(a, e)
    vector &= (p >= 1e12) & (p < 1e13)  # confirms e, which log10 can miss next to a power of ten
    whole = np.floor(p)
    r = p - whole
    r += t
    digits = whole.astype(np.int64)
    digits += r > 0.5
    r -= 0.5
    vector &= np.abs(r) >= 1e-6
    carry = digits == 10**13  # rounding reached the next decade
    digits[carry] = 10**12
    e += carry
    # zeros print as 0.000000000000e+00; the fallback overwrites the rest
    digits *= vector
    e *= vector
    digits += np.signbit(x) * 10**13  # the lead digit plus 10 selects the '-' head
    # exact int64 divmod; numpy divides by a scalar far faster than it takes %
    lead = digits // 10**12
    rest = digits - lead * 10**12
    high = rest // 10**8
    rest -= high * 10**8
    mid = rest // 10**4
    low = rest - mid * 10**4

    slots = np.empty((*block.shape, 6), np.uint32)
    words = slots.reshape(-1, 6)
    words[:, 0] = _HEAD[lead]
    words[:, 1] = _DIGITS4[high]
    words[:, 2] = _DIGITS4[mid]
    words[:, 3] = _DIGITS4[low]
    words[:, 4] = _EXP[e + 99]
    slots[:, :-1, 5] = _COMMA
    slots[:, -1, 5] = _NEWLINE
    chars = words.view(np.uint8)
    for i in np.flatnonzero(~vector & (x != 0.0)):
        text = ("%.12e" % x[i]).encode()  # at most 20 bytes, "-1.797693134862e+308"
        chars[i, :20] = 0
        chars[i, :len(text)] = np.frombuffer(text, np.uint8)
    chars = chars.ravel()
    return chars[chars != 0]


def export_trace(tr: Trace, path: Path | str) -> None:
    """Write the trace as CSV: time first, then the other columns, LF endings.

    Every value is written as the bytes of `'%.12e' % value` (13 significant
    digits).  `_format_block` builds them in numpy a block of rows at a time
    and formats a value it does not take with `%`, so the file is byte for
    byte what a row-by-row `%` writer gives, and no whole-file string is built.
    A trace with zero rows, such as the partial trace of a run that diverged
    before its first logged sample, is its header line alone.
    """
    path = Path(path)
    names = list(tr.columns)
    if "t" in names:
        names.remove("t")
        names.insert(0, "t")
    with open(path, "wb") as fh:
        fh.write((",".join(names) + "\n").encode())
        if not names:
            return
        columns = [tr.columns[name] for name in names]
        rows = max(1, _BLOCK_VALUES // len(columns))
        for start in range(0, len(columns[0]), rows):
            fh.write(_format_block(np.column_stack([c[start:start + rows] for c in columns])))
