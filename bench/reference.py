"""Frozen reference kernel that measures how fast the host runs right now.

On a shared host the speed of one core drifts by tens of percent over
minutes, with the load of other tenants.  The benchmark runs this kernel
before, inside and after every timed repetition and reports its timings in
*reference seconds*: measured seconds scaled by REF_NOMINAL_S over the
kernel's mean time in the same run.  A change to the program moves the
repetitions, not the kernel; a change in host speed moves both.

The kernel imitates the program's closed loop without calling it, so that
host load slows both alike: frozen-dataclass parameters, signed powers,
a sliding-surface stack returned as a NamedTuple, a clamped control law,
an observer state rebuilt with `dataclasses.replace` every step, a 3-state
EKF-like numpy update every 60 steps, a decimated log kept in lists, and
CSV-style formatting of the log at the end.

Do not edit this file: any change rescales every timing the benchmark has
reported.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

# The kernel's time, in seconds, that the reported timings are scaled to.
# It takes about this long on a 2-vCPU Intel Xeon VM with Python 3.11.
REF_NOMINAL_S = 0.1
STEPS = 20_000
DT = 1e-4


@dataclass(frozen=True)
class _Plant:
    k1: float
    k2: float
    c: float
    g: float
    u_max: float


@dataclass(frozen=True)
class _Gains:
    a1: float
    a2: float
    p1: float
    p2: float
    q1: float
    q2: float
    eta: float
    phi: float


@dataclass(frozen=True)
class _Observer:
    z1: float
    z2: float
    e: float


class _Stack(NamedTuple):
    s: float
    s_n: float
    ds: float


def _spow(x: float, p: float) -> float:
    return math.copysign(math.pow(abs(x), p), x)


def _disturbance(t: float) -> float:
    return 0.5 * math.sin(2.0 * t) + 0.2 * math.cos(5.0 * t)


def _stack(x: tuple[float, float], gn: _Gains) -> _Stack:
    s = x[1] + gn.a1 * _spow(x[0], gn.p1 / gn.q1)
    s_n = s + gn.a2 * _spow(s, gn.p2 / gn.q2)
    return _Stack(s, s_n, gn.a1 * x[1])


def _law(x: tuple[float, float], d_hat: float, st: _Stack, pp: _Plant, gn: _Gains) -> float:
    u = (-pp.k1 * x[0] - gn.eta * _spow(st.s_n, 0.7) - d_hat - gn.phi * st.ds) / pp.g
    return max(-pp.u_max, min(pp.u_max, u))


def _derivative(x: tuple[float, float], u: float, d: float, pp: _Plant) -> tuple[float, float]:
    return x[1], -pp.k1 * x[0] - pp.k2 * x[0] ** 3 - pp.c * x[1] + pp.g * u + d


def _observer_advance(ob: _Observer, x2: float, f: float, u: float) -> _Observer:
    e = x2 - ob.z1
    return replace(ob, z1=ob.z1 + DT * (f + u + ob.z2 + 30.0 * e), z2=ob.z2 + DT * 200.0 * e, e=e)


def kernel(steps: int = STEPS) -> int:
    """Run the toy loop for `steps` steps; returns the length of its CSV log."""
    pp = _Plant(97.4, 3.0, 0.4, 1.0, 30.0)
    pp_fb = pp
    gn = _Gains(2.0, 1.5, 5.0, 3.0, 7.0, 5.0, 5.0, 0.1)
    ob = _Observer(0.0, 0.0, 0.0)
    x1, x2 = 1.0, 0.0
    cov, x_hat = np.eye(3), np.array([1.0, 0.0, 97.4])
    jac = np.array([[1.0, 60 * DT, 0.0], [-97.4 * 60 * DT, 1.0, 0.0], [0.0, 0.0, 1.0]])
    h, q = np.array([1.0, 0.0, 0.0]), 1e-6 * np.eye(3)
    cols: dict[str, list[float]] = {k: [] for k in ("t", "x1", "x2", "u", "d", "d_hat", "e", "s_n")}
    for i in range(steps):
        t = i * DT
        d = _disturbance(t)
        if i % 60 == 0:
            cov = jac @ cov @ jac.T + q
            gain = cov @ h / (h @ cov @ h + 1e-4)
            x_hat = x_hat + gain * (x1 - x_hat[0])
            cov = cov - np.outer(gain, h @ cov)
            pp_fb = replace(pp, k1=97.4 + 1e-6 * float(x_hat[2]))
        f = -pp.k1 * x1 - pp.k2 * x1**3
        st = _stack((x1, x2), gn)
        u = _law((x1, x2), ob.z2, st, pp_fb, gn)
        if i % 10 == 0:
            for name, value in zip(cols, (t, x1, x2, u, d, ob.z2, ob.e, st.s_n)):
                cols[name].append(value)
        dx1, dx2 = _derivative((x1, x2), u, d, pp)
        x1 += DT * dx1
        x2 += DT * dx2
        ob = _observer_advance(ob, x2, f, u)
    arrays = [np.asarray(v) for v in cols.values()]
    rows = (",".join(f"{a[j]:.9g}" for a in arrays) for j in range(len(arrays[0])))
    return len("\n".join(rows))


def time_kernel() -> float:
    """Wall time of one kernel run, in seconds."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
