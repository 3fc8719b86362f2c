"""Controlled system: a single-mode reduction of a simply supported nanobeam.

The distributed beam model (nonlocal elasticity plus a strain-gradient
length scale, immovable ends, midspan point force) is Galerkin-projected
onto the first sine mode ``phi(x) = sin(pi*x)`` over the unit span.  That
leaves one modal ODE with linear stiffness K1, cubic stiffness K2 and
input gain g:

    x1' = x2
    x2' = -K1*x1 - K2*x1**3 - g*u + d(t)

`galerkin_coefficients` computes the reduction in closed form, with the
modal mass int phi^2.  Its local limit alpha = beta = 0 gives the simply
supported beam's K1 = pi^4, and K2 = pi^4/4 and g = -2*lambda hold for
every alpha.  So lambda = 0.545 gives the bundled plant's K1 = 97.4 and
g = -1.09, but no beam gives its K2 = -19.97, which [plant] supplies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BeamParams",
    "PlantParams",
    "DisturbanceTerm",
    "DisturbanceSpec",
    "galerkin_coefficients",
    "plant_derivative",
    "disturbance_value",
]


@dataclass(frozen=True)
class BeamParams:
    """Dimensionless beam inputs for the closed-form reduction: the [beam] section.

    alpha : nonlocal parameter (ea / L)
    beta  : strain-gradient length-scale parameter (l_m / L)
    lam   : force scaling 12 L^3 / (E A h^2 r), the key lambda

    Construction runs the reduction, so every BeamParams reduces to a plant.
    """

    alpha: float
    beta: float
    lam: float = 1.0

    def __post_init__(self):
        for name in ("alpha", "beta"):
            value = getattr(self, name)
            if not (0.0 <= value < math.inf):
                raise ValueError(f"[beam] {name}: must be finite and >= 0, got {value}")
        if not (0.0 < self.lam < math.inf):
            raise ValueError(f"[beam] lambda: must be finite and > 0, got {self.lam}")
        galerkin_coefficients(self)


@dataclass(frozen=True)
class PlantParams:
    """Reduced-plant coefficients; g must be nonzero for the input to act."""

    K1: float
    K2: float
    g: float

    def __post_init__(self):
        for name in ("K1", "K2", "g"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.g == 0.0:
            raise ValueError("input coefficient g must be nonzero")


@dataclass(frozen=True)
class DisturbanceTerm:
    """One bounded waveform term.

    kind 'sin_linear': amplitude * sin(rate * pi * t)
    kind 'sin_sqrt':   amplitude * sin(rate * sqrt(t + 1))
    """

    amplitude: float
    kind: str
    rate: float

    def __post_init__(self):
        if self.kind not in ("sin_linear", "sin_sqrt"):
            raise ValueError(f"unknown disturbance kind {self.kind!r}")
        if not (math.isfinite(self.amplitude) and math.isfinite(self.rate)):
            raise ValueError(f"disturbance amplitude and rate must be finite, "
                             f"got {self.amplitude} and {self.rate}")


@dataclass(frozen=True)
class DisturbanceSpec:
    """Sum of waveform terms, in file order: the [disturbance] section."""

    terms: tuple[DisturbanceTerm, ...] = ()

    @property
    def bound(self) -> float:
        """Amplitude bound: the sum of |amplitudes|, added from 0.0 in file order.

        |disturbance_value(self, t)| <= bound holds in floats too: each term
        is |A*sin| <= |A| after rounding, and `disturbance_value` adds the
        terms in this same order, where rounding is monotone.  The loop is
        written out because `sum` compensates its additions on Python 3.12+.
        """
        total = 0.0
        for term in self.terms:
            total += abs(term.amplitude)
        return total


def disturbance_value(spec: DisturbanceSpec, t: float | np.ndarray) -> float | np.ndarray:
    """Evaluate the disturbance waveform at time t >= 0, or at each time of an array.

    Terms are summed from 0.0 in file order, so each element of an array
    result is bitwise the float call's value, sign of zero included.  The
    times are only read; one scratch buffer holds a term.
    """
    t = np.asarray(t, dtype=float)
    d = np.zeros(t.shape)
    term_value = np.empty(t.shape)
    for term in spec.terms:
        if term.kind == "sin_linear":
            np.multiply(term.rate * math.pi, t, out=term_value)
        else:
            np.add(t, 1.0, out=term_value)
            np.sqrt(term_value, out=term_value)
            term_value *= term.rate
        np.sin(term_value, out=term_value)
        term_value *= term.amplitude
        d += term_value
    return float(d) if d.ndim == 0 else d


def galerkin_coefficients(bp: BeamParams) -> PlantParams:
    """The Galerkin reduction onto the sine mode, in closed form:
    K1 = pi^4 (1 + pi^2 beta^2) / (1 + pi^2 alpha^2), K2 = pi^4/4 and
    g = -2*lambda.  The nonlocal factor cancels from K2 and g, and beta from
    K2; K2 > 0, never the sign of the bundled K2 = -19.97.

    Every finite alpha reduces (past about 1e154 with a small beta, K1 is 0);
    when beta^2 overflows, K1 is recomputed scaled by 1/alpha^2, so only a
    K1 or g that is itself past the float range is an error naming the key.
    """
    # x * x, not x**2: it is correctly rounded, and past 1e154 it reads inf
    # where float ** raises OverflowError
    a2, b2 = bp.alpha * bp.alpha, bp.beta * bp.beta
    k1 = (math.pi**4 + math.pi**6 * b2) / (1.0 + math.pi**2 * a2)
    if not math.isfinite(k1) and bp.alpha > 0.0:
        # beta^2 (or both squares) overflowed; the quotient scaled by
        # 1/alpha^2 squares neither alpha nor beta; a finite first try keeps its bits
        r = 1.0 / bp.alpha
        ratio = bp.beta * r
        k1 = math.pi**4 * (r * r + math.pi**2 * (ratio * ratio)) / (r * r + math.pi**2)
    g = -2.0 * bp.lam
    for name, value, key, given in (("K1", k1, "beta", bp.beta), ("g", g, "lambda", bp.lam)):
        if not math.isfinite(value):
            raise ValueError(f"[beam] {key}: {given:g} overflows {name} in the assembly")
    return PlantParams(K1=k1, K2=math.pi**4 / 4, g=g)


def plant_derivative(
    x: tuple[float, float], u: float, d: float, pp: PlantParams
) -> tuple[float, float]:
    """Right-hand side of the reduced plant at state x = (x1, x2)."""
    x1, x2 = x
    return (x2, -pp.K1 * x1 - pp.K2 * x1**3 - pp.g * u + d)
