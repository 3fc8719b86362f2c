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
random walk.  P is re-symmetrized after every step and its diagonal floored
at zero; at state dimension 3 nothing fancier is warranted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def _close(a: float, b: float) -> bool:
    # np.isclose(a, b, rtol=1e-5, atol=1e-10) on two floats
    return a == b or (abs(a - b) <= 1e-10 + 1e-5 * abs(b) and math.isfinite(b))


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
        if self.x0_hat.shape != (3,):
            raise ValueError(f"x0_hat must have 3 entries, got {self.x0_hat.shape}")


@dataclass(frozen=True)
class EkfState:
    """Augmented estimate and covariance; P symmetric with nonnegative diagonal."""

    x_hat: np.ndarray
    P: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x_hat", np.asarray(self.x_hat, dtype=float))
        object.__setattr__(self, "P", np.asarray(self.P, dtype=float))
        if self.x_hat.shape != (3,) or self.P.shape != (3, 3):
            raise ValueError("EkfState needs a 3-vector estimate and 3x3 covariance")
        (p00, p01, p02), (p10, p11, p12), (p20, p21, p22) = self.P.tolist()
        # np.allclose(P, P.T, atol=1e-10) on scalars: each off-diagonal pair
        # in both orders, and the diagonal against itself, which rejects NaN
        if not (
            _close(p01, p10) and _close(p10, p01)
            and _close(p02, p20) and _close(p20, p02)
            and _close(p12, p21) and _close(p21, p12)
            and p00 == p00 and p11 == p11 and p22 == p22
        ):
            raise ValueError("covariance must be symmetric within 1e-10")
        if p00 < 0.0 or p11 < 0.0 or p22 < 0.0:
            raise ValueError("covariance diagonal must be nonnegative")


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
    so the gain is simply the first covariance column over S.
    """
    S = st.P[0, 0] + cfg.R
    if S <= 0.0:
        raise ZeroDivisionError(f"singular innovation covariance S={S}")
    innovation = y - st.x_hat[0]
    K = st.P[:, 0] / S
    x_new = st.x_hat + K * innovation
    P_new = st.P - np.outer(K, K) * S
    P_new = 0.5 * (P_new + P_new.T)
    d = np.diag(P_new).copy()
    if np.any(d < 0.0):
        P_new = P_new.copy()
        np.fill_diagonal(P_new, np.maximum(d, 0.0))
    return EkfState(x_hat=x_new, P=P_new), float(innovation)
