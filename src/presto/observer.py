"""Prescribed-finite-time disturbance observer.

An auxiliary integrator z shadows the driven state x_n through the same
forcing that reaches the plant; the mismatch s = z - x_n then obeys a
decay law whose switching and fractional-power terms drive it to zero
before an explicitly computable deadline.  Once s vanishes, the estimate

    d_hat = -k*s - beta0*sgn(s) - eps*s**(p0/q0) - |f(x)|*sgn(s) - f(x)

equals the additive disturbance acting on x_n.  The same structure serves
two wirings that differ only in the forcing fed to z:

* plain loop:      forcing = g(x)*u, estimating the external disturbance;
* saturated loop:  forcing = v_r, estimating the compound disturbance that
  lumps the external load with the actuator clamping mismatch.

The s-decay satisfies Vdot <= -2k*V - 2**((p0+q0)/(2 q0)) * eps * V**((p0+q0)/(2 q0))
for V = s^2/2 whenever |d| stays below beta0, which gives the prescribed
deadline via `mathcore.prescribed_time_bound`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .mathcore import ExponentPair, _spow, sgn

__all__ = [
    "ObserverGains",
    "ObserverState",
    "observer_init",
    "z_derivative",
    "disturbance_estimate",
    "observer_advance",
]


@dataclass(frozen=True)
class ObserverGains:
    """Observer design parameters.

    k       : proportional decay gain (finite, > 0)
    beta0   : disturbance amplitude bound used by the switching term (finite, > 0)
    eps     : fractional-power (finite-time) gain (finite, > 0)
    e0      : odd exponent pair (p0, q0) of the fractional term
    """

    k: float
    beta0: float
    eps: float
    e0: ExponentPair

    def __post_init__(self):
        for name in ("k", "beta0", "eps"):
            value = getattr(self, name)
            if not (0.0 < value < math.inf):
                raise ValueError(f"observer gain {name} must be finite and > 0, got {value}")


@dataclass(frozen=True)
class ObserverState:
    """Value state of the observer: integrator z and auxiliary s = z - x_n.

    The estimate itself is not stored; `disturbance_estimate` reads it off
    (s, f(x)) whenever it is needed.
    """

    z: float
    s: float


def observer_init(x_n: float, z_offset: float = 0.0) -> ObserverState:
    """Start the observer at z = x_n + z_offset (so s starts at z_offset).

    The default offset 0 is a convenience, not a requirement: the
    convergence deadline holds for any initial s, and a nonzero z_offset is
    how the randomized deadline checks seed s(0).  At s = 0 the estimate
    reduces to -f(x) regardless of gains.
    """
    return ObserverState(z=x_n + z_offset, s=z_offset)


def _prefix(s: float, fx: float, gains: ObserverGains) -> float:
    # -k*s - beta0*sgn(s) - eps*s**(p0/q0) - |fx|*sgn(s): the four terms the
    # z rate and the estimate share, evaluated once in one order for both
    sw = sgn(s)
    return (
        -gains.k * s
        - gains.beta0 * sw
        - gains.eps * _spow(s, gains.e0.ratio)
        - abs(fx) * sw
    )


def z_derivative(st: ObserverState, fx: float, forcing: float, gains: ObserverGains) -> float:
    """Rate of the auxiliary integrator.

    zdot = -k*s - beta0*sgn(s) - eps*s**(p0/q0) - |fx|*sgn(s) + forcing,
    with forcing = g(x)*u in the plain loop and v_r in the saturated loop.
    """
    return _prefix(st.s, fx, gains) + forcing


def disturbance_estimate(st: ObserverState, fx: float, gains: ObserverGains) -> float:
    """Current disturbance estimate for the drift value fx = f(x).

    Identity linking the two laws: d_hat - (zdot - forcing) == -fx, since
    both add their last term to the same four-term prefix.
    """
    return _prefix(st.s, fx, gains) - fx


def observer_advance(
    st: ObserverState,
    x_n: float,
    fx: float,
    forcing: float,
    gains: ObserverGains,
    dt: float,
) -> ObserverState:
    """One explicit-Euler step of z, then re-anchor s against the new x_n.

    Euler is deliberate: the signum discontinuity voids the order advantage
    of higher-order schemes, and the whole loop advances on the same step.
    s is always recomputed as z - x_n, never integrated separately, so it
    cannot drift from its definition.  fx and forcing are the values that
    acted over the elapsed step; x_n is the measured or estimated state at
    the new instant.  The new estimate is read with `disturbance_estimate`
    against the drift at that instant.
    """
    if not (dt > 0.0):
        raise ValueError(f"dt must be > 0, got {dt}")
    z = st.z + dt * z_derivative(st, fx, forcing, gains)
    return ObserverState(z=z, s=z - x_n)
