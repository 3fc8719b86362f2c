"""Scenario orchestration: closed-loop runs, comparison reports, CSV traces.

A Scenario bundles one plant, one disturbance, one controller kind and its
gains, and the integration setup.  `run_scenario` advances everything on a
single fixed step:

    1. read the disturbance sample (`disturbance_value` evaluates 4096
       step times at once, where numpy's cost per value stops falling);
    2. (adaptive kind, first step of each measurement interval) EKF predict
       with the input averaged over the elapsed interval, then correct with
       the noisy position sample;
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

Each step runs in one of three fused loops over plain floats hoisted out of
the scenario, split by where the feedback comes from: `_smc_loop` for
`smc_baseline`, `_truth_loop` for the observer kinds fed back the truth
state, and `_filter_loop` for the adaptive kind fed back the EKF estimate.
No step tests for an EKF cycle: `_filter_loop` runs one measurement
interval at a time, with the cycle inline at its head, and only
`_truth_loop` branches per step on its kind, for the clamp.  The stage
functions of `plant`, `observer`, `controller` and `estimator` are the
tested reference: tests/reference.py composes them step by step, the EKF
cycle through `ekf_predict` and `ekf_update`, and tests/test_kernels.py
holds every loop to that composition, bit for bit.  Each loop's divergence
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
import sys
from dataclasses import dataclass, field, fields, replace  # noqa: F401 (see below)
from pathlib import Path
from typing import Iterator

import numpy as np

# Ten stage functions and `dataclasses.replace` (above) are imported only for the
# benchmark's TRACED list, which wraps them by name (noqa: F401; tests/test_bench.py),
# so each row reads 0 calls; the fused loops reproduce the stages bit for bit
# (tests/test_kernels.py).
from .controller import (  # noqa: F401
    SINGULARITY_FLOOR,
    SmcGains,
    TsmcGains,
    saturated_tsmc_control,
    sliding_stack_n2,
    smc_control,
    tsmc_control,
)
from .estimator import EkfConfig, ekf_init, ekf_predict, ekf_update  # noqa: F401
from .mathcore import SETTLING_HOLD, Trace, l2_norm, linf_norm, settling_time
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
    "check_labels",
    "compare_controllers",
    "format_report_table",
    "report_csv_rows",
    "export_trace",
]

KINDS = ("tsmc", "tsmc_saturated", "adaptive_tsmc_saturated", "smc_baseline")
# Scenario fields each kind's loop never reads; one set off its default is
# rejected rather than silently ignored
_UNUSED = {
    "tsmc": ("seed", "smc", "ekf"),
    "tsmc_saturated": ("seed", "smc", "ekf"),
    "adaptive_tsmc_saturated": ("smc",),
    "smc_baseline": ("seed", "tsmc", "observer", "ekf", "z0_offset", "settle_by"),
}
# the config section of each gain field; a kind needs each one it does not list above
_SECTIONS = {"smc": "[smc]", "tsmc": "[controller]", "observer": "[observer]", "ekf": "[ekf]"}

# the loops' guards: x*x <= DIVERGENCE_LIMIT**2 holds for exactly the x with
# |x| <= DIVERGENCE_LIMIT (NaN fails), and z - z == 0.0 for exactly the finite z
DIVERGENCE_LIMIT = 1e6
# steps of the disturbance waveform evaluated at once (see `_disturbance_steps`)
_SERIES_BLOCK = 4096


class DivergenceError(RuntimeError):
    """The truth state, observer or EKF blew past its divergence guard.

    Carries the partial trace (every logged column, with zero rows when the
    run diverged before its first sample) and the step time.  The message
    names what diverged; a state divergence gives the magnitude |x| it
    reached, beyond DIVERGENCE_LIMIT or inf.
    """

    def __init__(self, message: str, trace: Trace, t: float):
        super().__init__(message)
        self.trace = trace
        self.t = t


@dataclass(frozen=True)
class Scenario:
    """One closed-loop experiment definition.

    Each gain field holds one config section as its type: `tsmc` is
    [controller], `observer` is [observer], `ekf` is [ekf] and `smc` is
    [smc], the nominal K1 included.  The [scenario] keys are fields of the
    Scenario itself.

    `z0_offset` (library only, observer kinds only) starts the observer
    integrator z0_offset above the feedback x2(0), so s(0) = z0_offset.

    `settle_by` (library only, observer kinds only; None runs the whole
    horizon) ends the run at the logged sample that completes the first
    settling window, or at the first logged sample after which no window
    can start before `settle_by`.  A run ended the first way reports the
    full run's `t_s`; one ended the second way reports None, and the full
    run's `t_s` is then None or >= `settle_by`.  The report norms cover only
    the simulated prefix (the `beta0` note covers the horizon), and a
    divergence after the stop goes unseen.

    A field the kind's loop never reads, such as the observer gains on
    `smc_baseline`, or `ekf` and `seed` outside `adaptive_tsmc_saturated`,
    must keep its default; every other gain section is required.  A refusal
    names the config key or section at fault, for instance `[scenario] dt:
    must be a normal float > 0, got 0.0`, `[ekf] Ts: must be a whole
    multiple of dt=0.0001, got 0.00015`, `kind tsmc needs [controller]
    gains` or `[scenario] seed: kind tsmc does not use seed`.
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
    z0_offset: float = 0.0
    settle_by: float | None = None
    label: str = "run"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"[scenario] kind: unknown scenario kind {self.kind!r}; "
                             f"expected one of {KINDS}")
        if self.label in ("", ".", "..") or any(c in self.label for c in "/\\,"):
            # the label names the run's trace and report files and its report rows
            raise ValueError(f"[scenario] label: {self.label!r} names output files, so it "
                             "must not be empty, '.' or '..', nor hold '/', '\\' or ','")
        if len(self.x0) != 2:
            raise ValueError(f"[scenario] x0: needs two entries, got {len(self.x0)}")
        if not all(abs(v) <= DIVERGENCE_LIMIT for v in self.x0):  # NaN fails too
            raise ValueError(f"[scenario] x0: entries must be finite and within the divergence "
                             f"limit {DIVERGENCE_LIMIT:g}, got {self.x0}")
        if not math.isfinite(self.z0_offset):
            raise ValueError(f"z0_offset must be finite, got {self.z0_offset}")
        if not (self.dt >= sys.float_info.min):  # SETTLING_HOLD / a subnormal dt overflows
            raise ValueError(f"[scenario] dt: must be a normal float > 0, got {self.dt}")
        if not (self.dt < self.horizon < math.inf):
            raise ValueError(f"[scenario] horizon: must be finite and exceed dt, "
                             f"got {self.horizon}")
        if not (self.horizon / self.dt < sys.maxsize):
            raise ValueError(f"[scenario] horizon, dt: {self.horizon:g} / {self.dt:g} must be "
                             f"a finite step count below {sys.maxsize}")
        # no step time exceeds the horizon, so no phase exceeds these; sin(inf) is NaN
        phases = [term.rate * math.pi * self.horizon if term.kind == "sin_linear"
                  else term.rate * math.sqrt(self.horizon + 1.0)
                  for term in self.disturbance.terms]
        if not all(map(math.isfinite, [self.disturbance.bound, *phases])):
            raise ValueError(f"[disturbance] terms: the amplitude sum or a phase within "
                             f"horizon {self.horizon:g} passes the float range")
        if self.decimation < 1:
            raise ValueError(f"[scenario] decimation: must be >= 1, got {self.decimation}")
        if self.seed < 0:
            raise ValueError(f"[scenario] seed: must be >= 0, got {self.seed}")
        # checked here too, so a bad settling rule fails before the run, not after it
        if not (0.0 < self.threshold_fraction < 1.0):
            raise ValueError(f"[scenario] threshold_fraction: must lie in (0, 1), "
                             f"got {self.threshold_fraction}")
        for name, section in _SECTIONS.items():
            if name not in _UNUSED[self.kind] and getattr(self, name) is None:
                raise ValueError(f"kind {self.kind} needs {section} gains")
        if self.kind in ("tsmc_saturated", "adaptive_tsmc_saturated"):
            if self.tsmc.tau is None or self.tsmc.sat is None:
                raise ValueError(f"[controller] tau, u_min, u_max: kind {self.kind} needs "
                                 "tau and saturation bounds")
        elif self.kind == "tsmc" and (self.tsmc.tau is not None or self.tsmc.sat is not None):
            # the plain law neither regularizes nor clamps its input
            raise ValueError(
                "[controller] tau, u_min, u_max: tau and the clamp (tsmc.tau, tsmc.sat) "
                "apply to the saturated kinds only, not to tsmc"
            )
        if self.kind == "adaptive_tsmc_saturated":
            if not (self.ekf.Ts > 0.0):
                raise ValueError(f"[ekf] Ts: the adaptive kind needs Ts > 0, got {self.ekf.Ts}")
            stride = self.ekf.Ts / self.dt
            if (not math.isfinite(stride) or abs(stride - round(stride)) > 1e-9
                    or round(stride) < 1):
                raise ValueError(f"[ekf] Ts: must be a whole multiple of dt={self.dt}, "
                                 f"got {self.ekf.Ts}")
        unused = [f.name for f in fields(self)
                  if f.name in _UNUSED[self.kind] and getattr(self, f.name) != f.default]
        if unused:
            # seed is the one such field a file can set; the rest are library only
            where = "[scenario] seed: " if "seed" in unused else ""
            raise ValueError(f"{where}kind {self.kind} does not use {', '.join(unused)}")

    @property
    def n_steps(self) -> int:
        """Fixed steps in the horizon."""
        return int(round(self.horizon / self.dt))


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
    try:
        trace = _LOOPS[sc.kind](sc)
    except MemoryError as err:  # the loops allocate in proportion to horizon / dt
        raise ValueError(f"[scenario] horizon, dt: {sc.horizon:g} / {sc.dt:g} steps do not fit "
                         f"in memory for run {sc.label!r}: {err}") from err
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
    report.t_s = settling_time(trace, sc.threshold_fraction)
    # the plain observer estimates the raw external disturbance, so its
    # amplitude-bound assumption is checkable against the realized signal;
    # |d| never exceeds `bound`, so only a bound above beta0 needs the check
    if sc.kind == "tsmc" and sc.disturbance.bound > sc.observer.beta0:
        max_abs_d = max(map(abs, _disturbance_steps(sc)))
        if max_abs_d > sc.observer.beta0:
            report.diagnostics.append(
                f"disturbance magnitude reached {max_abs_d:.4g}, exceeding the observer "
                f"bound beta0={sc.observer.beta0:.4g}"
            )
    return trace, report


# logged columns of each kind in trace order, after t, which `_SampleLog.trace` forms
_SMC_COLUMNS = ("x1", "x2", "u", "d", "s", "u_eq", "u_c")
_TSMC_COLUMNS = ("x1", "x2", "u", "d", "d_hat", "s", "s2")
_SATURATED_COLUMNS = _TSMC_COLUMNS + ("v_r", "u_c")
_ADAPTIVE_COLUMNS = _SATURATED_COLUMNS + ("x1_hat", "x2_hat", "K1_hat", "e_x", "innov", "P_trace")


class _SampleLog:
    """Decimated samples, packed as float64 rows into one preallocated buffer.

    A row holds exactly the logged columns `names`, so each kind packs and
    stores only its own.  The loops write a row in place with
    `pack(buf, offset, *values)`, `buf` a memoryview of the array, so logging
    keeps no Python object alive per sample.  No row holds t: `trace` forms
    that column from the row count, as each logged step index times dt, bit
    for bit the `i * dt` of logged step i.
    """

    def __init__(self, sc: Scenario, names: tuple[str, ...]):
        n_samples = len(range(0, sc.n_steps, sc.decimation))
        packer = struct.Struct(f"{len(names)}d")
        self.names = names
        self.step_dt, self.decimation = sc.dt, sc.decimation
        self.rows = np.empty((n_samples, len(names)))
        self.buf = memoryview(self.rows)  # pack_into skips numpy's buffer export
        self.pack = packer.pack_into
        self.row_bytes = packer.size

    def trace(self, offset: int) -> Trace:
        """The rows written below byte offset: t, then a column view of the buffer per name."""
        n = offset // self.row_bytes
        t = np.arange(0, n * self.decimation, self.decimation, dtype=float) * self.step_dt
        columns = {"t": t} | dict(zip(self.names, self.rows[:n].T))
        return Trace(dt=self.step_dt * self.decimation, columns=columns)


def _diverged(what: str, detail: str, t: float, log: _SampleLog, offset: int):
    return DivergenceError(f"{what} diverged at t={t:.4f} ({detail})", log.trace(offset), t)


def _state_diverged(x1: float, x2: float, t: float, log: _SampleLog, offset: int):
    peak = max(abs(x1), abs(x2)) if math.isfinite(x1) and math.isfinite(x2) else math.inf
    # repr round-trips, so the printed |x| reads above the limit as the value
    # is; a rounded form such as .3g prints 1e+06 for 1000000.5
    return _diverged("state", f"|x| reached {peak!r}", t, log, offset)


def _disturbance_steps(sc: Scenario) -> Iterator[float]:
    """d at every step time i*dt, one float per step.

    `disturbance_value` evaluates _SERIES_BLOCK steps at once, when the
    iteration reaches them: numpy's cost per value stops falling at that
    size, and a run that stops early evaluates at most one unfinished block.
    """
    n = sc.n_steps
    times = (np.arange(start, min(start + _SERIES_BLOCK, n), dtype=float) * sc.dt
             for start in range(0, n, _SERIES_BLOCK))
    return itertools.chain.from_iterable(
        memoryview(disturbance_value(sc.disturbance, t)) for t in times)


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
    lim2 = DIVERGENCE_LIMIT * DIVERGENCE_LIMIT

    x1, x2 = float(sc.x0[0]), float(sc.x0[1])
    log = _SampleLog(sc, _SMC_COLUMNS)
    buf, pack, row_bytes = log.buf, log.pack, log.row_bytes
    offset = next_log = 0
    for i, d in enumerate(_disturbance_steps(sc)):
        b = K2 * x1**3.0  # a float exponent: the same pow, with no int conversion per call
        s = x2 + Y * x1
        u_eq = (Y * x2 - K1n * x1 - b) / g
        sg = 1.0 if s > 0.0 else (-1.0 if s < 0.0 else 0.0)
        # |x1| without a call; -0.0 stays -0.0, which dK*(-0.0) + Kg drops (Kg > 0)
        u_c = (dK * (-x1 if x1 < 0.0 else x1) + Kg) / g * sg
        u = u_eq + u_c
        if i == next_log:
            next_log += dec
            pack(buf, offset, x1, x2, u, d, s, u_eq, u_c)
            offset += row_bytes

        dx2 = nK1 * x1 - b - g * u + d
        x1 += dt * x2
        x2 += dt * dx2
        if not (x1 * x1 <= lim2 and x2 * x2 <= lim2):
            raise _state_diverged(x1, x2, i * dt, log, offset)
    return log.trace(offset)


def _settle_rule(sc: Scenario, x1: float, x2: float) -> tuple[float, int]:
    """The band of `settling_time` from (x1, x2) and its hold window in steps;
    a bound <= 0.0 gets a zero window, so the run ends at its first sample."""
    band = sc.threshold_fraction * max(abs(x1), abs(x2))
    hold = int(round(SETTLING_HOLD / (sc.dt * sc.decimation))) + 1
    return band, 0 if sc.settle_by <= 0.0 else hold * sc.decimation


def _truth_loop(sc: Scenario) -> Trace:
    """Fused loop of `tsmc` and `tsmc_saturated`, fed back the truth state.

    Let f = -K1*x1 - K2*x1**3, G = -g, and a**r the signed power
    sign(a)*|a|**r.  Each step evaluates the observer and the law

        prefix = -k*s - beta0*sgn(s) - eps*s**(p0/q0) - |f|*sgn(s)
        d_hat  = prefix - f
        s2     = x2 + alpha1*x1 + beta1*x1**(p1/q1) + s
        v      = -f - alpha1*x2 - beta1*(p1/q1)*|x1|**(p1/q1 - 1)*x2
                 - d_hat - delta*s2 - mu*s2**(p2/q2)

    where the beta1 rate term is 0 below |x1| = SINGULARITY_FLOOR.  Kind
    tsmc applies u = -v/g and drives the observer with forcing = G*u; the
    saturated kind applies u = min(max(u_c, u_min), u_max) with
    u_c = G*v/(G**2 + tau), and drives it with forcing = v.  After the
    plant's Euler step the observer advances and re-anchors against the new
    x2, z starting at x2(0) + z0_offset:

        z <- z + dt*(prefix + forcing),    s = z - x2

    Composes `disturbance_value`, `disturbance_estimate`, `sliding_stack_n2`,
    the kind's control law, `plant_derivative` and `observer_advance` with
    every operand hoisted, bit for bit (tests/test_kernels.py).
    """
    saturated = sc.kind == "tsmc_saturated"
    pp, tg, og = sc.plant, sc.tsmc, sc.observer
    K1, K2, g = pp.K1, pp.K2, pp.g
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
    nk, beta0, eps, r0 = -og.k, og.beta0, og.eps, og.e0.ratio
    dt, dec = sc.dt, sc.decimation
    lim2 = DIVERGENCE_LIMIT * DIVERGENCE_LIMIT

    x1, x2 = float(sc.x0[0]), float(sc.x0[1])
    z, s = x2 + sc.z0_offset, sc.z0_offset
    log = _SampleLog(sc, _SATURATED_COLUMNS if saturated else _TSMC_COLUMNS)
    buf, pack, row_bytes = log.buf, log.pack, log.row_bytes
    offset = next_log = 0
    settle_by = sc.settle_by
    if settle_by is not None:
        band, window = _settle_rule(sc, x1, x2)
        # start * dt: the earliest time a window can still start (module
        # docstring); only a sample out of band moves it, so only those check it
        nband, start = -band, 0
    for i, d in enumerate(_disturbance_steps(sc)):
        # the drift, surface and law terms of the state.  The signed powers
        # of x1, s and s2 are folded into one branch per sign, exact in IEEE
        # arithmetic: a - (-b) is a + b, and every gain is finite and > 0,
        # so gain*0.0 is +0.0.  Subtracting +0.0 leaves any value as it is,
        # -0.0 included; adding it does not, so s2_fb keeps its + 0.0
        lin = K1 * x1
        cub = K2 * x1**3.0  # a float exponent: the same pow, with no int conversion per call
        fx = -lin - cub
        # |f| without a call; it enters only a prefix of magnitude >= beta0 > 0,
        # where the sign of a zero |f| cannot show
        abs_fx = -fx if fx < 0.0 else fx
        if x1 > 0.0:
            ax = x1
            s2_fb = x2 + a1 * x1 + b1 * x1**r1
        elif x1 < 0.0:
            ax = -x1
            s2_fb = x2 + a1 * x1 - b1 * ax**r1
        else:
            ax = 0.0
            s2_fb = x2 + a1 * x1 + 0.0
        ddt = r1 * ax**r1m1 * x2 if ax >= floor else 0.0
        law_fb = lin + cub - a1 * x2 - b1 * ddt

        # the observer's and the law's sign terms, folded as above
        if s > 0.0:
            prefix = nk * s - beta0 - eps * s**r0 - abs_fx
        elif s < 0.0:
            prefix = nk * s + beta0 + eps * (-s) ** r0 + abs_fx
        else:
            prefix = nk * s
        d_hat = prefix - fx
        s2 = s2_fb + s
        if s2 > 0.0:
            v = law_fb - d_hat - delta * s2 - mu * s2**r2
        elif s2 < 0.0:
            v = law_fb - d_hat - delta * s2 + mu * (-s2) ** r2
        else:
            v = law_fb - d_hat - delta * s2
        if saturated:
            forcing = v
            u_c = ng * v / gden
            u = u_max if u_c > u_max else (u_min if u_c < u_min else u_c)
        else:
            u = ninv_g * v
            forcing = ng * u
        if i == next_log:
            next_log += dec
            if saturated:
                pack(buf, offset, x1, x2, u, d, d_hat, s, s2, v, u_c)
            else:
                pack(buf, offset, x1, x2, u, d, d_hat, s, s2)
            offset += row_bytes
            if settle_by is not None:
                if not (nband <= x1 <= band and nband <= x2 <= band):
                    start = next_log
                    if start * dt >= settle_by:
                        break
                elif next_log - start >= window:
                    break

        dx2 = fx - g * u + d
        x1 += dt * x2
        x2 += dt * dx2
        z += dt * (prefix + forcing)
        s = z - x2

        if not (x1 * x1 <= lim2 and x2 * x2 <= lim2 and z - z == 0.0):
            if z - z == 0.0:
                raise _state_diverged(x1, x2, i * dt, log, offset)
            raise _diverged("observer", f"z reached {z}", i * dt, log, offset)
    return log.trace(offset)


def _filter_loop(sc: Scenario) -> Trace:
    """Fused loop of `adaptive_tsmc_saturated`: the saturated law and observer
    of `_truth_loop`, fed back the EKF estimate (x1_hat, x2_hat, K1_hat).

    The run is one outer pass per measurement interval of Ts/dt steps and an
    inner pass over that interval's steps.  At the head of each interval the
    EKF cycle runs inline on nine floats, the estimate and the upper triangle
    of P: the predict of `ekf_predict` (from the second interval on, with the
    interval's mean input), then the update of `ekf_update`, each in its
    operation order.  The divergence guard checks the estimate and trace P,
    and the feedback terms are formed once for the interval; every step
    re-anchors the observer against the interval's x2_hat.  Bit for bit the
    step-by-step composition (tests/test_kernels.py).
    """
    pp, tg, og, cfg = sc.plant, sc.tsmc, sc.observer, sc.ekf
    nK1, K2, g = -pp.K1, pp.K2, pp.g
    ng = -g  # G, the input coefficient in system form
    gden = ng * ng + tg.tau
    u_min, u_max = tg.sat.u_min, tg.sat.u_max
    a1, b1 = tg.alpha1, tg.beta1
    r1 = tg.e1.ratio
    r1m1 = r1 - 1.0
    r2 = tg.e2.ratio
    delta, mu = tg.delta, tg.mu
    floor = SINGULARITY_FLOOR
    nk, beta0, eps, r0 = -og.k, og.beta0, og.eps, og.e0.ratio
    dt, dec, n = sc.dt, sc.decimation, sc.n_steps
    lim2 = DIVERGENCE_LIMIT * DIVERGENCE_LIMIT
    Ts, R, K2x3 = cfg.Ts, cfg.R, 3.0 * K2
    q11, q22, q33 = cfg.q_diag

    x1, x2 = float(sc.x0[0]), float(sc.x0[1])
    (fb1, fb2, k1_hat), (p11, p12, p13, p22, p23, p33) = ekf_init(cfg)
    fb_stride = int(round(Ts / dt))
    # the measurement noise of every EKF cycle in one draw: the same stream
    # as one scalar draw per cycle
    rng = np.random.default_rng(np.random.SeedSequence([sc.seed]))
    n_cycles = len(range(0, n, fb_stride))
    noise = iter((math.sqrt(R) * rng.standard_normal(n_cycles)).tolist())
    log = _SampleLog(sc, _ADAPTIVE_COLUMNS)
    buf, pack, row_bytes = log.buf, log.pack, log.row_bytes
    offset = next_log = 0
    settle_by = sc.settle_by
    if settle_by is not None:
        band, window = _settle_rule(sc, x1, x2)
        nband, start = -band, 0
    dist = _disturbance_steps(sc)
    for c0 in range(0, n, fb_stride):
        if c0:
            # predict with the interval's mean input: the rows of F P, then
            # the upper triangle of (F P) F' + Q, then the mean
            a = Ts * (-k1_hat - K2x3 * fb1**2.0)
            b = Ts * (-fb1)
            f11, f12, f13 = p11 + Ts * p12, p12 + Ts * p22, p13 + Ts * p23
            f21, f22, f23 = (a * p11 + p12 + b * p13, a * p12 + p22 + b * p23,
                             a * p13 + p23 + b * p33)
            p11, p12, p13, p22, p23, p33 = ((f11 + Ts * f12) + q11, a * f11 + f12 + b * f13,
                                            f13, (a * f21 + f22 + b * f23) + q22, f23, p33 + q33)
            fb1, fb2 = fb1 + Ts * fb2, fb2 + Ts * (
                -k1_hat * fb1 - K2 * fb1**3.0 - g * (u_acc / fb_stride))
        # update against the noisy position sample
        S = p11 + R
        if S <= 0.0:
            raise _diverged("EKF", f"singular innovation covariance S={S}", c0 * dt, log, offset)
        innov = x1 + next(noise) - fb1
        k_1, k_2, k_3 = p11 / S, p12 / S, p13 / S
        c11, c22, c33 = p11 - (k_1 * k_1) * S, p22 - (k_2 * k_2) * S, p33 - (k_3 * k_3) * S
        # the diagonal floored as np.maximum(c, 0.0) does: NaN passes, and
        # -0.0 and negatives become +0.0
        p11, p12, p13, p22, p23, p33 = (0.0 if c11 <= 0.0 else c11, p12 - (k_1 * k_2) * S,
                                        p13 - (k_1 * k_3) * S, 0.0 if c22 <= 0.0 else c22,
                                        p23 - (k_2 * k_3) * S, 0.0 if c33 <= 0.0 else c33)
        fb1, fb2, k1_hat = fb1 + k_1 * innov, fb2 + k_2 * innov, k1_hat + k_3 * innov
        p_trace = p11 + p22 + p33
        # the limit on the state estimate also keeps fb1**3 finite
        # and the next predict's covariance free of overflow
        if not (fb1 * fb1 <= lim2 and fb2 * fb2 <= lim2 and math.isfinite(k1_hat)
                and math.isfinite(p_trace)):
            raise _diverged("EKF", f"x_hat = ({fb1:.3g}, {fb2:.3g}, {k1_hat:.3g}), "
                            f"trace P = {p_trace:.3g}", c0 * dt, log, offset)
        if not c0:
            z, s = fb2 + sc.z0_offset, sc.z0_offset
        # the drift, surface and law terms of the estimate, as in `_truth_loop`
        lin = k1_hat * fb1
        cub = K2 * fb1**3.0
        fx = -lin - cub
        abs_fx = -fx if fx < 0.0 else fx
        if fb1 > 0.0:
            ax = fb1
            s2_fb = fb2 + a1 * fb1 + b1 * fb1**r1
        elif fb1 < 0.0:
            ax = -fb1
            s2_fb = fb2 + a1 * fb1 - b1 * ax**r1
        else:
            ax = 0.0
            s2_fb = fb2 + a1 * fb1 + 0.0
        ddt = r1 * ax**r1m1 * fb2 if ax >= floor else 0.0
        law_fb = lin + cub - a1 * fb2 - b1 * ddt

        u_acc = 0.0
        # range first: zip stops on it without drawing the next interval's d
        for i, d in zip(range(c0, c0 + fb_stride), dist):
            if s > 0.0:
                prefix = nk * s - beta0 - eps * s**r0 - abs_fx
            elif s < 0.0:
                prefix = nk * s + beta0 + eps * (-s) ** r0 + abs_fx
            else:
                prefix = nk * s
            d_hat = prefix - fx
            s2 = s2_fb + s
            if s2 > 0.0:
                v = law_fb - d_hat - delta * s2 - mu * s2**r2
            elif s2 < 0.0:
                v = law_fb - d_hat - delta * s2 + mu * (-s2) ** r2
            else:
                v = law_fb - d_hat - delta * s2
            u_c = ng * v / gden
            u = u_max if u_c > u_max else (u_min if u_c < u_min else u_c)
            if i == next_log:
                next_log += dec
                pack(buf, offset, x1, x2, u, d, d_hat, s, s2, v, u_c,
                     fb1, fb2, k1_hat, x1 - fb1, innov, p_trace)
                offset += row_bytes
                if settle_by is not None:
                    if not (nband <= x1 <= band and nband <= x2 <= band):
                        start = next_log
                        if start * dt >= settle_by:
                            return log.trace(offset)
                    elif next_log - start >= window:
                        return log.trace(offset)

            dx2 = nK1 * x1 - K2 * x1**3.0 - g * u + d
            x1 += dt * x2
            x2 += dt * dx2
            z += dt * (prefix + v)
            s = z - fb2
            u_acc += u

            if not (x1 * x1 <= lim2 and x2 * x2 <= lim2 and z - z == 0.0):
                if z - z == 0.0:
                    raise _state_diverged(x1, x2, i * dt, log, offset)
                raise _diverged("observer", f"z reached {z}", i * dt, log, offset)
    return log.trace(offset)


# each kind's fused loop, chosen by where its feedback state comes from
_LOOPS = {"tsmc": _truth_loop, "tsmc_saturated": _truth_loop,
          "adaptive_tsmc_saturated": _filter_loop, "smc_baseline": _smc_loop}


def check_labels(labels: list[str]) -> None:
    """Refuse labels of one comparison that would give two of its files one
    name: a label names its run's trace file, and 'report' names the table's."""
    for label in labels:
        if labels.count(label) > 1:
            raise ValueError(f"two scenarios share the label {label!r}, which names their "
                             "trace file; give each its own [scenario] label, or list it once")
    if "report" in labels:
        raise ValueError("label 'report': its trace would overwrite report.csv, the "
                         "comparison table; set another [scenario] label")


def compare_controllers(
    scenarios: list[Scenario],
    out_dir: Path | str,
) -> tuple[list[RunReport], str]:
    """Run every scenario into `out_dir`: one trace CSV per scenario, named by
    its label, and the comparison table as report.txt and report.csv.

    `out_dir` is required and is created if missing.  Labels are checked
    before anything is written.  A divergent run is reported as a failed
    row, with its partial trace; the other rows proceed.  Trace references
    inside the report are file names only, so two output directories
    produced with the same seeds match byte for byte.
    """
    check_labels([sc.label for sc in scenarios])
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    reports: list[RunReport] = []
    for sc in scenarios:
        try:
            trace, report = run_scenario(sc)
        except DivergenceError as err:
            report = RunReport(label=sc.label, kind=sc.kind, failed=str(err))
            trace = err.trace
        path = out / f"{sc.label}.csv"
        export_trace(trace, path)
        report.trace_path = path.name
        reports.append(report)
    text = format_report_table(reports)
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
    """Aligned plain-text comparison table, one row per run.

    A norm whose `.4f` form would fill its 12-character column, leaving no
    blank before it, is written `.4e`, so rows keep the header's columns.
    """
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
            text = "-" if v is None else f"{v:.4f}"
            if len(text) >= 12:
                text = f"{v:.4e}"
            row += f"{text:>12}"
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
# 10**(12 - e) at index e - _E_MIN, correctly rounded: Python's int / int
# rounds the exact quotient once
_POW = np.array([10 ** max(12 - e, 0) / 10 ** max(e - 12, 0) for e in range(_E_MIN, _E_MAX + 1)])
# distance from the rounding tie below which a value is left to `%`
_TIE_MARGIN = 2**-8
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


def _format_block(block: np.ndarray) -> np.ndarray:
    """CSV bytes of a 2-D float block: each value as `'%.12e' % value`, rows ended by LF.

    A value with 1e-99 <= |x| < 1e99, or a zero, takes the vector path.  Its
    decimal exponent e is floor(log10|x|), kept only where the scaled value
    p = |x| * _POW[e - _E_MIN], one rounded product, lies in [1e12, 1e13);
    the 13 digits are p rounded to the nearest integer.  The table entry is
    within a relative 2**-53 of 10**(12 - e), which moves a product below
    1e13 by at most 2**-53 * 1e13 < 1.12e-3, and rounding the product adds
    at most half an ulp of p < 2**44, 2**-10 < 9.8e-4.  So p lies within
    2.1e-3 of the exact scaled value, and its residual p - floor(p), itself
    exact, rounds as the exact value does whenever it is at least
    _TIE_MARGIN = 2**-8 > 3.9e-3 from the tie at 0.5.  A p on the other side
    of 1e12 or 1e13 than the exact value rounds, as that value does, to the
    power of ten.  The doubles 1e-99 and 1e99 lie inside (10**-99, 10**99),
    so every exponent has two digits.

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
    p = a * _POW[e - _E_MIN]
    vector &= (p >= 1e12) & (p < 1e13)  # confirms e, which log10 can miss next to a power of ten
    whole = np.floor(p)
    r = p - whole
    digits = whole.astype(np.int64)
    digits += r > 0.5
    r -= 0.5
    vector &= np.abs(r) >= _TIE_MARGIN
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
    i = np.flatnonzero(~vector & (x != 0.0))
    # at most 20 bytes, "-1.797693134862e+308", NUL-padded to 20 by the dtype
    text = np.array([b"%.12e" % v for v in x[i].tolist()], dtype="S20")
    chars[i, :20] = text.view(np.uint8).reshape(-1, 20)
    chars = chars.ravel()
    return chars[chars != 0]


def export_trace(tr: Trace, path: Path | str) -> None:
    """Write the trace as CSV: time first, then the other columns, LF endings.

    Every value is written as the bytes of `'%.12e' % value` (13 significant
    digits).  `_format_block` builds them in numpy a block of rows at a time
    and formats the values it does not take, about 0.6% of a bundled trace,
    with `%` in one list per block, so the file is byte for byte what a
    row-by-row `%` writer gives, and no whole-file string is built.
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
