"""Shared numeric primitives for the sliding-mode toolkit.

Covers the scalar building blocks every other module leans on:

* the exact signum,
* signed fractional powers ``sign(s) * |s|**(p/q)`` for odd integer pairs,
* the finite-time convergence deadline implied by a Lyapunov decay of the
  form ``Vdot <= -theta*V - xi*V**gamma``,
* the exponent-pair admissibility gate that keeps fractional-power feedback
  terms nonsingular at the origin,
* sampled-trace containers with discrete 2-/inf-norms and a windowed
  settling-time rule.

Everything here is a pure function of its arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ExponentPair",
    "Trace",
    "sgn",
    "signed_pow",
    "prescribed_time_bound",
    "check_exponent_pair",
    "l2_norm",
    "linf_norm",
    "SETTLING_HOLD",
    "settling_time",
]


@dataclass(frozen=True)
class ExponentPair:
    """Fractional exponent p/q with p, q odd positive integers and p < q.

    Odd integers make ``s**(p/q)`` a real, odd function of s, so signed
    fractional powers stay well defined for negative arguments.
    """

    p: int
    q: int

    def __post_init__(self):
        if not (isinstance(self.p, int) and isinstance(self.q, int)):
            raise ValueError(f"exponent pair must be integers, got ({self.p!r}, {self.q!r})")
        if self.p <= 0 or self.q <= 0:
            raise ValueError(f"exponent pair must be positive, got ({self.p}, {self.q})")
        if self.p % 2 == 0 or self.q % 2 == 0:
            raise ValueError(f"exponent pair must be odd integers, got ({self.p}, {self.q})")
        if self.p >= self.q:
            raise ValueError(f"exponent pair needs p < q, got ({self.p}, {self.q})")

    @property
    def ratio(self) -> float:
        return self.p / self.q


def sgn(x: float) -> int:
    """Exact signum: -1 for x < 0, +1 for x > 0, 0 at x = 0."""
    if not math.isfinite(x):
        raise ValueError(f"sgn requires a finite argument, got {x}")
    if x > 0.0:
        return 1
    if x < 0.0:
        return -1
    return 0


def signed_pow(s: float, e: ExponentPair) -> float:
    """Real odd root sign(s) * |s|**(p/q) for an odd exponent pair.

    Equals the real value of ``s**(p/q)`` whenever p and q are odd, and is
    odd in s by construction: signed_pow(-s, e) == -signed_pow(s, e).
    """
    if not math.isfinite(s):
        raise ValueError(f"signed_pow requires a finite argument, got {s}")
    if s > 0.0:
        return s**e.ratio
    if s < 0.0:
        return -((-s) ** e.ratio)
    return 0.0


def prescribed_time_bound(theta: float, xi: float, gamma: float, V0: float) -> float:
    """Deadline by which V reaches zero under Vdot + theta*V + xi*V**gamma <= 0.

    Returns ``ln((theta*V0**(1-gamma) + xi)/xi) / (theta*(1-gamma))``, the
    explicit upper bound on the convergence time counted from the moment V
    equals V0.  Monotone nondecreasing in V0 and zero when V0 = 0.
    """
    if not (theta > 0.0):
        raise ValueError(f"theta must be > 0, got {theta}")
    if not (xi > 0.0):
        raise ValueError(f"xi must be > 0, got {xi}")
    if not (0.0 < gamma < 1.0):
        raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
    if not (V0 >= 0.0):
        raise ValueError(f"V0 must be >= 0, got {V0}")
    one_m_g = 1.0 - gamma
    return math.log((theta * V0**one_m_g + xi) / xi) / (theta * one_m_g)


def check_exponent_pair(e: ExponentPair) -> bool:
    """Admissibility gate of the surface exponent: True iff p1/q1 > 1/2.

    The ratio condition keeps the first time derivative of ``x1**(p1/q1)``
    bounded at x1 = 0, which is what rules out a singular control law.
    """
    return 2 * e.p > e.q


@dataclass
class Trace:
    """Uniformly sampled signals keyed by name, all of identical length.

    dt is the sample interval of the stored sequences (after any decimation
    of the integration step).  Norms and settling times are computed on the
    raw sample sequences, without dt weighting.
    """

    dt: float
    columns: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        if not (self.dt > 0.0):
            raise ValueError(f"trace dt must be > 0, got {self.dt}")
        self.columns = {k: np.asarray(v, dtype=float) for k, v in self.columns.items()}
        lengths = {len(v) for v in self.columns.values()}
        if len(lengths) > 1:
            raise ValueError(f"trace columns differ in length: {lengths}")

    def column(self, name: str) -> np.ndarray:
        if name not in self.columns:
            raise KeyError(f"trace has no column {name!r} (have {sorted(self.columns)})")
        return self.columns[name]

    def times(self) -> np.ndarray:
        if "t" in self.columns:
            return self.columns["t"]
        n = len(next(iter(self.columns.values()))) if self.columns else 0
        return np.arange(n) * self.dt

    @property
    def n_samples(self) -> int:
        return len(next(iter(self.columns.values()))) if self.columns else 0


def l2_norm(tr: Trace, column: str) -> float:
    """Euclidean norm sqrt(sum(x_k**2)) of the discrete sample sequence.

    The sum is numpy's pairwise `add.reduce`, whose order is fixed, not a
    BLAS dot product, whose order and fused multiply-adds depend on the host.
    When that sum overflows for finite samples, the norm is recomputed as
    max|x| * sqrt(sum((x / max|x|)**2)); every finite sum keeps its bits.
    """
    x = tr.column(column)
    with np.errstate(over="ignore"):
        total = float(np.add.reduce(x * x))
    if total == math.inf and np.isfinite(x).all():
        peak = float(np.max(np.abs(x)))
        y = x / peak
        return peak * math.sqrt(float(np.add.reduce(y * y)))
    return math.sqrt(total)


def linf_norm(tr: Trace, column: str) -> float:
    """Largest absolute sample of the column."""
    x = tr.column(column)
    return float(np.max(np.abs(x))) if len(x) else 0.0


# seconds a run must stay in the settling band; every scenario holds for this long
SETTLING_HOLD = 0.5


def settling_time(tr: Trace, threshold_fraction: float) -> float | None:
    """First time the state pair enters and holds a band around the origin.

    Returns the earliest sample time t* such that
    ``max(|x1(t)|, |x2(t)|) <= threshold_fraction * max(|x1(0)|, |x2(0)|)``
    for every sample t in [t*, t* + SETTLING_HOLD], with the whole hold
    window inside the trace.  Returns None when no such window exists
    ("not settled" is a result, not an error).
    """
    if not (0.0 < threshold_fraction < 1.0):
        raise ValueError(f"threshold_fraction must lie in (0, 1), got {threshold_fraction}")
    x1 = tr.column("x1")
    x2 = tr.column("x2")
    if len(x1) == 0:
        raise ValueError("settling_time needs a nonempty trace")
    envelope = np.maximum(np.abs(x1), np.abs(x2))
    band = threshold_fraction * envelope[0]
    in_band = envelope <= band
    window = int(round(SETTLING_HOLD / tr.dt)) + 1  # samples covering [t*, t*+hold]
    if window > len(in_band):
        return None
    # in_band[j:j + window] is all in band where the count of in-band
    # samples rises by `window` over those samples
    count = np.concatenate(([0], np.cumsum(in_band)))
    starts = np.flatnonzero(count[window:] - count[:-window] == window)
    return float(tr.times()[starts[0]]) if len(starts) else None
