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

from dataclasses import dataclass

from .mathcore import ExponentPair, _spow, sgn, smooth_sgn

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

    k       : proportional decay gain (> 0)
    beta0   : disturbance amplitude bound used by the switching term (> 0)
    eps     : fractional-power (finite-time) gain (> 0)
    e0      : odd exponent pair (p0, q0) of the fractional term
    smooth_sgn_width : optional boundary-layer width replacing the exact
        signum (0 keeps the exact switching law)
    """

    k: float
    beta0: float
    eps: float
    e0: ExponentPair
    smooth_sgn_width: float = 0.0

    def __post_init__(self):
        if not (self.k > 0.0 and self.beta0 > 0.0 and self.eps > 0.0):
            raise ValueError("observer gains k, beta0, eps must all be > 0")


@dataclass(frozen=True)
class ObserverState:
    """Value state of the observer: integrator z, auxiliary s, estimate d_hat."""

    z: float
    s: float
    d_hat: float


def _sw(s: float, gains: ObserverGains) -> float:
    if gains.smooth_sgn_width > 0.0:
        return smooth_sgn(s, gains.smooth_sgn_width)
    return float(sgn(s))


def observer_init(
    x_n: float,
    fx: float = 0.0,
    z_offset: float = 0.0,
    gains: ObserverGains | None = None,
) -> ObserverState:
    """Start the observer at z = x_n + z_offset (so s starts at z_offset).

    The default offset 0 is a convenience, not a requirement: the
    convergence deadline holds for any initial s, and a nonzero z_offset is
    how the randomized deadline checks seed s(0).  At s = 0 the estimate
    reduces to -fx regardless of gains; for a nonzero offset the gains are
    needed to evaluate the initial estimate.
    """
    st = ObserverState(z=x_n + z_offset, s=z_offset, d_hat=-fx)
    if z_offset == 0.0 or gains is None:
        return st
    return ObserverState(z=st.z, s=st.s, d_hat=disturbance_estimate(st, fx, gains))


def _prefix(s: float, fx: float, gains: ObserverGains) -> float:
    # -k*s - beta0*sgn(s) - eps*s**(p0/q0) - |fx|*sgn(s): the four terms the
    # z rate and the estimate share, evaluated once in one order for both
    sw = _sw(s, gains)
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
    the new instant.
    """
    if not (dt > 0.0):
        raise ValueError(f"dt must be > 0, got {dt}")
    z = st.z + dt * z_derivative(st, fx, forcing, gains)
    s = z - x_n
    new = ObserverState(z=z, s=s, d_hat=0.0)
    return ObserverState(z=z, s=s, d_hat=disturbance_estimate(new, fx, gains))
