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
random walk.  P is re-symmetrized after every step, so it is exactly
symmetric, and the update floors its diagonal at zero; at state dimension 3
nothing fancier is warranted.  `EkfConfig` checks the filter's input; the
cycle checks only the innovation covariance it divides by.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "EkfConfig",
    "EkfState",
    "augmented_transition",
    "transition_jacobian",
    "ekf_predict",
    "ekf_update",
]


def _check_psd(M: np.ndarray, name: str) -> None:
    if M.shape != (3, 3):
        raise ValueError(f"{name} must be 3x3, got {M.shape}")
    if not np.allclose(M, M.T, atol=1e-10):
        raise ValueError(f"{name} must be symmetric")
    if np.min(np.linalg.eigvalsh(M)) < -1e-10:
        raise ValueError(f"{name} must be positive semidefinite")


@dataclass(frozen=True)
class EkfConfig:
    """Filter constants: sample time, noise covariances, initial condition.

    Ts = 0 is tolerated so the exact Ts -> 0 algebra (F = I) can be
    exercised directly; closed-loop scenarios require Ts > 0.
    """

    Ts: float
    Q: np.ndarray
    R: float
    P0: np.ndarray
    x0_hat: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "Q", np.asarray(self.Q, dtype=float))
        object.__setattr__(self, "P0", np.asarray(self.P0, dtype=float))
        object.__setattr__(self, "x0_hat", np.asarray(self.x0_hat, dtype=float))
        if self.Ts < 0.0:
            raise ValueError(f"Ts must be >= 0, got {self.Ts}")
        if self.R < 0.0:
            raise ValueError(f"R must be >= 0, got {self.R}")
        _check_psd(self.Q, "Q")
        _check_psd(self.P0, "P0")
        if not (self.P0[0, 0] + self.R > 0.0):
            raise ValueError("P0[0,0] + R, the first innovation covariance, must be > 0")
        if self.x0_hat.shape != (3,):
            raise ValueError(f"x0_hat must have 3 entries, got {self.x0_hat.shape}")


class EkfState(NamedTuple):
    """Augmented estimate (3,) and covariance (3, 3); the cycle keeps P symmetric."""

    x_hat: np.ndarray
    P: np.ndarray


def augmented_transition(
    x_hat: np.ndarray, u: float, cfg: EkfConfig, K2: float, g: float
) -> np.ndarray:
    """One Euler step of the augmented map.

    x1 <- x1 + Ts*x2
    x2 <- x2 + Ts*(-K1_hat*x1 - K2*x1**3 - g*u)
    K1 <- K1                                  (random-walk parameter)

    The external disturbance is deliberately absent; Q absorbs it.
    """
    x1, x2, k1 = x_hat
    return np.array(
        [
            x1 + cfg.Ts * x2,
            x2 + cfg.Ts * (-k1 * x1 - K2 * x1**3 - g * u),
            k1,
        ]
    )


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
    """Predictive phase: propagate the mean and inflate the covariance."""
    F = transition_jacobian(st.x_hat, cfg, K2)
    x_new = augmented_transition(st.x_hat, u, cfg, K2, g)
    P_new = F @ st.P @ F.T + cfg.Q
    P_new = 0.5 * (P_new + P_new.T)
    return EkfState(x_hat=x_new, P=P_new)


def ekf_update(st: EkfState, y: float, cfg: EkfConfig) -> tuple[EkfState, float]:
    """Correction phase against the position measurement; returns the innovation.

    With H = [1 0 0] the innovation covariance is the scalar S = P11 + R,
    so the gain is simply the first covariance column over S; S <= 0 raises
    ZeroDivisionError.  The updated diagonal is floored at zero.
    """
    S = st.P[0, 0] + cfg.R
    if S <= 0.0:
        raise ZeroDivisionError(f"singular innovation covariance S={S}")
    innovation = y - st.x_hat[0]
    K = st.P[:, 0] / S
    x_new = st.x_hat + K * innovation
    P_new = st.P - np.outer(K, K) * S
    P_new = 0.5 * (P_new + P_new.T)
    diag = P_new.reshape(9)[::4]  # a view: P_new is a fresh contiguous array
    np.maximum(diag, 0.0, out=diag)
    return EkfState(x_hat=x_new, P=P_new), float(innovation)
