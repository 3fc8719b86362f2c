"""Discrete extended Kalman filter over the augmented state (x1, x2, K1).

The unknown linear stiffness rides along as a random-walk third state, so
one filter estimates both states and the parameter from noisy position
measurements y = x1 + v.  The transition is the explicit-Euler discretized
plant with the current stiffness estimate in place of the true K1; the
cubic coefficient and input gain are taken as known.

The predict/correct cycle is the textbook form

    x  <- f(x, u),  P <- F P F' + Q
    S = H P H' + R, K = P H'/S, x <- x + K (y - x1), P <- P - K S K'

with H = [1 0 0] and F the full 3x3 Jacobian of the augmented map,
including the parameter column dF2/dK1 = -Ts*x1 and a unit row for the
random walk.  The state is plain floats: three for the estimate and the six
of P's upper triangle, so P is symmetric by construction.  The whole cycle
is IEEE float operations in a fixed order, with no numpy and no BLAS call,
so its bits are the same on every host: the predict forms F P F' + Q
entry by entry from F's two trivial rows, and the update floors the
diagonal at zero as `np.maximum(., 0.0)` does.  `EkfConfig` checks the
filter's input; the cycle checks only the innovation covariance it divides
by.  The adaptive loop of `harness` runs this cycle inline on the same nine
floats, in the same operation order, so `ekf_predict` and `ekf_update` are
the reference it is held to (tests/reference.py, tests/test_kernels.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "EkfConfig",
    "EkfState",
    "ekf_init",
    "augmented_transition",
    "transition_jacobian",
    "ekf_predict",
    "ekf_update",
]


Triple = tuple[float, float, float]


@dataclass(frozen=True)
class EkfConfig:
    """Filter constants, as the [ekf] section gives them.

    q_diag and p0_diag are the diagonals of the process noise Q and the
    initial covariance P0, and R, the key r, is the variance of the position
    measurement noise; no input sets an off-diagonal entry.  Every entry
    must be finite, the variances >= 0, and the first innovation covariance
    p0_diag[0] + R > 0.  Ts = 0 is tolerated so the exact Ts -> 0 algebra
    (F = I) can be exercised directly; closed-loop scenarios require Ts > 0.
    """

    Ts: float
    q_diag: Triple
    R: float
    p0_diag: Triple
    x0_hat: Triple

    def __post_init__(self):
        if not (0.0 <= self.Ts < math.inf):
            raise ValueError(f"[ekf] Ts: must be finite and >= 0, got {self.Ts}")
        if not (0.0 <= self.R < math.inf):
            raise ValueError(f"[ekf] r: must be finite and >= 0, got {self.R}")
        for name in ("q_diag", "p0_diag", "x0_hat"):
            v = getattr(self, name)
            if len(v) != 3:
                raise ValueError(f"[ekf] {name}: must have 3 entries, got {len(v)}")
            if not all(math.isfinite(e) for e in v):
                raise ValueError(f"[ekf] {name}: entries must be finite, got {tuple(v)}")
            if name != "x0_hat" and min(v) < 0.0:
                raise ValueError(f"[ekf] {name}: entries must be >= 0, got {tuple(v)}")
        if not (self.p0_diag[0] + self.R > 0.0):
            raise ValueError("[ekf] p0_diag, r: p0_diag[0] + r, the first innovation "
                             "covariance, must be > 0")


class EkfState(NamedTuple):
    """Estimate (x1, x2, K1) and covariance upper triangle (p11, p12, p13, p22, p23, p33)."""

    x_hat: Triple
    P: tuple[float, float, float, float, float, float]


def ekf_init(cfg: EkfConfig) -> EkfState:
    """The filter's state before its first update: x0_hat and diagonal P0."""
    p11, p22, p33 = cfg.p0_diag
    return EkfState(cfg.x0_hat, (p11, 0.0, 0.0, p22, 0.0, p33))


def _transition(x_hat, u: float, Ts: float, K2: float, g: float) -> Triple:
    x1, x2, k1 = x_hat
    return x1 + Ts * x2, x2 + Ts * (-k1 * x1 - K2 * x1**3 - g * u), k1


def augmented_transition(
    x_hat: np.ndarray, u: float, cfg: EkfConfig, K2: float, g: float
) -> np.ndarray:
    """One Euler step of the augmented map.

    x1 <- x1 + Ts*x2
    x2 <- x2 + Ts*(-K1_hat*x1 - K2*x1**3 - g*u)
    K1 <- K1                                  (random-walk parameter)

    The external disturbance d, |d| <= d_bar, is deliberately absent.  Held
    over one cycle it moves x2 by at most Ts*d_bar and x1 by at most
    Ts**2*d_bar/2, so Q's diagonal is q11 = (Ts**2*d_bar/2)**2,
    q22 = (Ts*d_bar)**2 (s73.cfg derives its values).
    """
    return np.array(_transition(x_hat, u, cfg.Ts, K2, g))


def transition_jacobian(x_hat: np.ndarray, cfg: EkfConfig, K2: float) -> np.ndarray:
    """Full 3x3 Jacobian of the augmented map at x_hat.

    The parameter column dF2/dK1 = -Ts*x1 is what lets position residuals
    correct the stiffness estimate.
    """
    x1 = x_hat[0]
    k1 = x_hat[2]
    return np.array(
        [
            [1.0, cfg.Ts, 0.0],
            [cfg.Ts * (-k1 - 3.0 * K2 * x1**2), 1.0, cfg.Ts * (-x1)],
            [0.0, 0.0, 1.0],
        ]
    )


def ekf_predict(st: EkfState, u: float, cfg: EkfConfig, K2: float, g: float) -> EkfState:
    """Predictive phase: propagate the mean and inflate the covariance.

    F = [[1, Ts, 0], [a, 1, b], [0, 0, 1]] with a and b as in
    `transition_jacobian`; the rows of F P come first, then the upper
    triangle of (F P) F' + Q with Q diagonal, so the result is symmetric by
    construction.
    """
    p11, p12, p13, p22, p23, p33 = st.P
    x1, x2, k1 = st.x_hat
    Ts = cfg.Ts
    a = Ts * (-k1 - 3.0 * K2 * x1**2)
    b = Ts * (-x1)
    f11, f12, f13 = p11 + Ts * p12, p12 + Ts * p22, p13 + Ts * p23
    f21, f22, f23 = a * p11 + p12 + b * p13, a * p12 + p22 + b * p23, a * p13 + p23 + b * p33
    q11, q22, q33 = cfg.q_diag
    return EkfState(
        _transition(st.x_hat, u, Ts, K2, g),
        (
            (f11 + Ts * f12) + q11,
            a * f11 + f12 + b * f13,
            f13,
            (a * f21 + f22 + b * f23) + q22,
            f23,
            p33 + q33,
        ),
    )


def _floor(v: float) -> float:
    # np.maximum(v, 0.0): NaN passes, -0.0 and negatives become +0.0
    return v if v > 0.0 or v != v else 0.0


def ekf_update(st: EkfState, y: float, cfg: EkfConfig) -> tuple[EkfState, float]:
    """Correction phase against the position measurement; returns the innovation.

    With H = [1 0 0] the innovation covariance is the scalar S = P11 + R,
    so the gain is simply the first covariance column over S; S <= 0 raises
    ZeroDivisionError.  The updated diagonal is floored at zero.
    """
    p11, p12, p13, p22, p23, p33 = st.P
    S = p11 + cfg.R
    if S <= 0.0:
        raise ZeroDivisionError(f"singular innovation covariance S={S}")
    x1, x2, k1 = st.x_hat
    innovation = y - x1
    k_1, k_2, k_3 = p11 / S, p12 / S, p13 / S
    c11 = p11 - (k_1 * k_1) * S
    c12 = p12 - (k_1 * k_2) * S
    c13 = p13 - (k_1 * k_3) * S
    c22 = p22 - (k_2 * k_2) * S
    c23 = p23 - (k_2 * k_3) * S
    c33 = p33 - (k_3 * k_3) * S
    return EkfState(
        (x1 + k_1 * innovation, x2 + k_2 * innovation, k1 + k_3 * innovation),
        (_floor(c11), c12, c13, _floor(c22), c23, _floor(c33)),
    ), innovation
