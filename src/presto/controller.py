"""Terminal sliding-mode control laws for the second-order plant.

Three laws drive the Galerkin-reduced second-order plant:

* `tsmc_control` - nonsingular terminal SMC with disturbance-estimate
  feedforward, for the unconstrained actuator;
* `saturated_tsmc_control` - the same surface driven through a regularized
  input map ``u_c = G*v_r/(G**2 + tau)`` and a hard non-symmetric clamp,
  where the clamp bounds are unknown to the law itself;
* `smc_control` - a conventional linear-surface SMC baseline with interval
  parameter uncertainty.

The terminal laws regulate x1 to zero on the surface

    s2 = x2 + alpha1*x1 + beta1*x1**(p1/q1) + s

which carries the observer auxiliary s, so surface convergence and
disturbance-estimate convergence share one deadline machinery.  The closed
loop under `tsmc_control` collapses to ``s2' = -delta*s2 - mu*s2**(p2/q2)``,
the decay that yields the prescribed reaching deadline with
theta = 2*delta, gamma = (p2+q2)/(2*q2).

A note on orientation: the plant applies the input as ``-g*u``, so the
input coefficient in system form is G = -g.  All laws here are written
against G; getting this wrong flips the feedback sign and destabilizes the
loop for the reference plant, whose g is negative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .mathcore import ExponentPair, check_exponent_pair, sgn, signed_pow
from .plant import PlantParams

__all__ = [
    "SatBounds",
    "TsmcGains",
    "SmcGains",
    "SmcOutput",
    "ddt_signed_pow",
    "sliding_stack_n2",
    "tsmc_control",
    "saturate",
    "saturated_tsmc_control",
    "smc_control",
]

# |x1| below this floor zeroes the fractional-derivative term entirely, so
# the origin is an exact fixed point and the term can never overflow.
SINGULARITY_FLOOR = 1e-12


@dataclass(frozen=True)
class SatBounds:
    """Non-symmetric actuator clamp, [controller] u_min and u_max; only the
    actuator model applies it.  It must bracket zero: u_min < 0 < u_max."""

    u_min: float
    u_max: float

    def __post_init__(self):
        if not (self.u_min < 0.0 < self.u_max):
            raise ValueError(f"[controller] u_min, u_max: clamp must bracket zero, "
                             f"got [{self.u_min}, {self.u_max}]")


@dataclass(frozen=True)
class TsmcGains:
    """Design parameters of the terminal surface and reaching law (n = 2).

    alpha1, beta1 : gains of the surface s2 = x2 + alpha1*x1 + beta1*x1**(p1/q1) + s
    e1            : exponent pair (p1, q1) of the surface; it must clear the
                    admissibility gate p1/q1 > 1/2, which is what keeps the
                    law nonsingular at zero error
    e2            : exponent pair (p2, q2) of the reaching law
    delta, mu     : reaching gains
    tau           : regularization of the saturated input map (> 0 there)
    sat           : actuator clamp used by the saturated law's plant model

    Every gain, tau included, is finite and > 0.
    """

    alpha1: float
    beta1: float
    e1: ExponentPair
    e2: ExponentPair
    delta: float
    mu: float
    tau: float | None = None
    sat: SatBounds | None = None

    def __post_init__(self):
        for name in ("alpha1", "beta1", "delta", "mu"):
            value = getattr(self, name)
            if not (0.0 < value < math.inf):
                raise ValueError(f"[controller] {name}: must be finite and > 0, got {value}")
        if not check_exponent_pair(self.e1):
            raise ValueError(
                f"[controller] p1, q1: exponent pair ({self.e1.p}, {self.e1.q}) is "
                "inadmissible: requires p1/q1 > 1/2 to keep the control law nonsingular "
                "at zero error"
            )
        if self.tau is not None and not (0.0 < self.tau < math.inf):
            raise ValueError(f"[controller] tau: must be finite and > 0 when present, "
                             f"got {self.tau}")


@dataclass(frozen=True)
class SmcGains:
    """Baseline linear-surface SMC parameters: the [smc] section.

    The true K1 lies in [K1_min, K1_max]; K1_nominal is the value the
    equivalent control assumes.
    """

    Y: float
    Kg: float
    K1_min: float
    K1_max: float
    K1_nominal: float

    def __post_init__(self):
        for name in ("Y", "Kg", "K1_min", "K1_max", "K1_nominal"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"[smc] {name}: must be finite, got {value}")
        if not (self.Y > 0.0):
            raise ValueError(f"[smc] Y: surface slope must be > 0, got {self.Y}")
        if not (self.Kg > 0.0):
            raise ValueError(f"[smc] Kg: switching gain must be > 0, got {self.Kg}")
        if not (self.K1_min < self.K1_max):
            raise ValueError(f"[smc] K1_min, K1_max: need K1_min < K1_max, got "
                             f"{self.K1_min} and {self.K1_max}")


def ddt_signed_pow(x1: float, x2: float, e: ExponentPair) -> float:
    """Time derivative of the signed fractional power along x1' = x2.

    (p/q) * |x1|**(p/q - 1) * x2, with |x1| floored at the singularity
    guard; below the floor the whole term is zero, which matches the
    bounded limit guaranteed by the admissibility gate and makes the origin
    an exact fixed point.
    """
    ax = abs(x1)
    if ax < SINGULARITY_FLOOR:
        return 0.0
    r = e.ratio
    return r * ax ** (r - 1.0) * x2


def sliding_stack_n2(x: tuple[float, float], s_obs: float, gains: TsmcGains) -> float:
    """Terminal surface of the second-order plant with the observer auxiliary.

    s2 = x2 + alpha1*x1 + beta1*x1**(p1/q1) + s_obs
    """
    x1, x2 = x
    return x2 + gains.alpha1 * x1 + gains.beta1 * signed_pow(x1, gains.e1) + s_obs


def _virtual_input(
    x: tuple[float, float], d_hat: float, s2: float, pp: PlantParams, gains: TsmcGains
) -> float:
    """(K1*x1 + K2*x1**3) - alpha1*x2 - beta1 * d/dt x1**(p1/q1) - d_hat
    - delta*s2 - mu*s2**(p2/q2), the input both terminal laws design for."""
    x1, x2 = x
    return (
        (pp.K1 * x1 + pp.K2 * x1**3)
        - gains.alpha1 * x2
        - gains.beta1 * ddt_signed_pow(x1, x2, gains.e1)
        - d_hat
        - gains.delta * s2
        - gains.mu * signed_pow(s2, gains.e2)
    )


def tsmc_control(
    x: tuple[float, float],
    d_hat: float,
    s2: float,
    pp: PlantParams,
    gains: TsmcGains,
) -> float:
    """Unconstrained terminal SMC input for the n = 2 plant.

    u = -(1/g) * ((K1*x1 + K2*x1**3) - alpha1*x2
                  - beta1 * d/dt x1**(p1/q1) - d_hat
                  - delta*s2 - mu*s2**(p2/q2))

    Substituted into the plant this leaves exactly
    s2' = -delta*s2 - mu*s2**(p2/q2) when d_hat = d, which is the decay the
    reaching-deadline bound is computed from.  The K1 in here is whatever
    estimate pp carries, so parameter-adaptive loops pass their own pp.
    """
    return -(1.0 / pp.g) * _virtual_input(x, d_hat, s2, pp, gains)


def saturate(u_c: float, sat: SatBounds) -> float:
    """Hard actuator clamp to [u_min, u_max]; a NaN command raises ValueError."""
    if u_c > sat.u_max:
        return sat.u_max
    if u_c < sat.u_min:
        return sat.u_min
    if u_c != u_c:
        raise ValueError(f"cannot clamp the command u_c={u_c} to [{sat.u_min}, {sat.u_max}]")
    return u_c


def saturated_tsmc_control(
    x: tuple[float, float],
    D_hat: float,
    s2: float,
    pp: PlantParams,
    gains: TsmcGains,
) -> tuple[float, float, float]:
    """Saturated terminal SMC: returns (v_r, u_c, u).

    v_r = (K1*x1 + K2*x1**3) - alpha1*x2 - beta1 * d/dt x1**(p1/q1)
          - D_hat - delta*s2 - mu*s2**(p2/q2)

    is the virtual input designed against the system-form dynamics
    x2' = f(x) + v_r + D, and the commanded input maps it through the
    regularized inverse u_c = G*v_r/(G**2 + tau) with G = -g.  The actuator
    model clamps u_c to the configured bounds; the law itself never reads
    them (they are treated as unknown), their effect is lumped into the
    compound disturbance the observer estimates.
    """
    if gains.tau is None or gains.sat is None:
        raise ValueError("saturated law needs both tau and sat bounds configured")
    v_r = _virtual_input(x, D_hat, s2, pp, gains)
    G = -pp.g
    u_c = G * v_r / (G * G + gains.tau)
    return v_r, u_c, saturate(u_c, gains.sat)


class SmcOutput(NamedTuple):
    u: float
    u_eq: float
    u_c: float
    s: float


def smc_control(x: tuple[float, float], gains: SmcGains, pp: PlantParams) -> SmcOutput:
    """Baseline SMC on the linear surface s = x2 + Y*x1.

    u_eq = (Y*x2 - K1_nom*x1 - K2*x1**3) / g  zeroes s' for the nominal
    stiffness; the switching part u_c = (dK*|x1| + Kg) / g * sgn(s) with
    slope dK = max(K1_nom - K1_min, K1_max - K1_nom), the largest
    |K1 - K1_nom| over the interval, dominates the uncertainty on either
    side of the nominal.  Without a disturbance the law gives
    s*s' <= -Kg*|s|: Kg is the reaching rate.
    """
    x1, x2 = x
    K1n = gains.K1_nominal
    dK = max(K1n - gains.K1_min, gains.K1_max - K1n)
    s = x2 + gains.Y * x1
    u_eq = (gains.Y * x2 - K1n * x1 - pp.K2 * x1**3) / pp.g
    u_c = (dK * abs(x1) + gains.Kg) / pp.g * sgn(s)
    return SmcOutput(u=u_eq + u_c, u_eq=u_eq, u_c=u_c, s=s)
