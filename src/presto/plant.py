"""Controlled system: a single-mode reduction of a simply supported nanobeam.

The distributed beam model (nonlocal elasticity plus a strain-gradient
length scale, immovable ends, midspan point force) is projected onto the
first sine mode ``phi(x) = sin(pi*x)`` over the unit span.  That leaves one
modal ODE with linear stiffness K1, cubic stiffness K2 and input gain g:

    x1' = x2
    x2' = -K1*x1 - K2*x1**3 - g*u + d(t)

The stiffness and input coefficients follow from ratios of mode-shape
integrals; `mode_integrals` evaluates those by fixed-order composite
Gauss-Legendre quadrature and `galerkin_coefficients` assembles them.  The
reference plant used by the bundled scenarios (K1=97.4, K2=-19.97, g=-1.09)
is supplied directly through configuration; the quadrature path is an
independent utility for exploring other beam parameters.
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
    "ModeIntegrals",
    "SingularModelError",
    "mode_integrals",
    "galerkin_coefficients",
    "plant_derivative",
    "disturbance_value",
    "MASS_TERMS",
]

# the modal-mass variants of `galerkin_coefficients`, the default first
MASS_TERMS = ("as_printed", "phi_squared")


class SingularModelError(ValueError):
    """Raised when the modal-mass denominator of the reduction vanishes."""


@dataclass(frozen=True)
class BeamParams:
    """Dimensionless beam inputs for the coefficient assembly: the [beam] section.

    alpha     : nonlocal parameter (ea / L)
    beta      : strain-gradient length-scale parameter (l_m / L)
    lam       : force scaling 12 L^3 / (E A h^2 r)
    mass_term : modal-mass variant of `galerkin_coefficients`, one of MASS_TERMS
    """

    alpha: float
    beta: float
    lam: float = 1.0
    quadrature_points: int = 64
    mass_term: str = MASS_TERMS[0]

    def __post_init__(self):
        if self.alpha < 0.0 or self.beta < 0.0:
            raise ValueError("alpha and beta must be nonnegative")
        if not (self.lam > 0.0):
            raise ValueError(f"lam must be > 0, got {self.lam}")
        if self.quadrature_points < 8:
            raise ValueError("quadrature_points must be >= 8")
        if self.mass_term not in MASS_TERMS:
            raise ValueError(f"mass_term must be one of {', '.join(MASS_TERMS)}, "
                             f"got {self.mass_term!r}")


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


@dataclass(frozen=True)
class DisturbanceSpec:
    """Sum of waveform terms, optionally plus a tabulated signal.

    The tabulated part (times, values) is linearly interpolated and held at
    its end values outside the tabulated range.
    """

    terms: tuple[DisturbanceTerm, ...] = ()
    table: tuple[tuple[float, ...], tuple[float, ...]] | None = None

    def __post_init__(self):
        if self.table is not None:
            times, values = self.table
            if len(times) != len(values) or len(times) < 2:
                raise ValueError("tabulated disturbance needs >= 2 aligned samples")
            if any(t1 <= t0 for t0, t1 in zip(times, times[1:])):
                raise ValueError("tabulated times must be strictly increasing")

    @property
    def bound(self) -> float:
        """Reported amplitude bound: sum of |amplitudes| plus the table peak."""
        b = sum(abs(t.amplitude) for t in self.terms)
        if self.table is not None:
            b += max(abs(v) for v in self.table[1])
        return b


def disturbance_value(spec: DisturbanceSpec, t: float | np.ndarray) -> float | np.ndarray:
    """Evaluate the disturbance waveform at time t >= 0, or at each time of an array.

    Terms are summed from 0.0 in file order and the table added last, so
    each element of an array result is bitwise the float call's value, sign
    of zero included.  The times are only read; one scratch buffer holds a term.
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
    if spec.table is not None:
        times, values = spec.table
        d += np.interp(t, times, values)
    return float(d) if d.ndim == 0 else d


@dataclass(frozen=True)
class ModeIntegrals:
    """Integrals of the sine mode over the unit span.

    I_pp2   = int (phi')^2        I_dd  = int phi'' phi
    I_4     = int phi'''' phi     I_6   = int phi^(6) phi
    I_3p    = int phi''' phi'     I_pp2sq = int (phi'')^2
    I_00    = int phi^2
    """

    I_pp2: float
    I_dd: float
    I_4: float
    I_6: float
    I_3p: float
    I_pp2sq: float
    I_00: float


def _composite_gauss(f, n_points: int) -> float:
    # composite Gauss-Legendre on [0, 1]: order-8 panels, >= n_points nodes total
    order = 8
    panels = max(1, -(-n_points // order))
    nodes, weights = np.polynomial.legendre.leggauss(order)
    total = 0.0
    h = 1.0 / panels
    for k in range(panels):
        mid = (k + 0.5) * h
        x = mid + 0.5 * h * nodes
        total += 0.5 * h * float(np.sum(weights * f(x)))
    return total


def mode_integrals(n_points: int = 64) -> ModeIntegrals:
    """Quadrature evaluation of the seven mode-shape integrals.

    The integrands are smooth trigonometric products, so the fixed-order
    composite rule converges far below the 1e-10 absolute target at the
    default node count.
    """
    if n_points < 8:
        raise ValueError("n_points must be >= 8")
    pi = math.pi
    return ModeIntegrals(
        I_pp2=_composite_gauss(lambda x: (pi * np.cos(pi * x)) ** 2, n_points),
        I_dd=_composite_gauss(lambda x: (-pi**2 * np.sin(pi * x)) * np.sin(pi * x), n_points),
        I_4=_composite_gauss(lambda x: (pi**4 * np.sin(pi * x)) * np.sin(pi * x), n_points),
        I_6=_composite_gauss(lambda x: (-pi**6 * np.sin(pi * x)) * np.sin(pi * x), n_points),
        I_3p=_composite_gauss(
            lambda x: (-pi**3 * np.cos(pi * x)) * (pi * np.cos(pi * x)), n_points
        ),
        I_pp2sq=_composite_gauss(lambda x: (-pi**2 * np.sin(pi * x)) ** 2, n_points),
        I_00=_composite_gauss(lambda x: np.sin(pi * x) ** 2, n_points),
    )


def galerkin_coefficients(bp: BeamParams) -> PlantParams:
    """Assemble K1, K2, g from the mode integrals.

    The shared denominator is ``alpha^2 * I_dd - M`` where M is the last
    integral of the modal mass term.  bp.mass_term selects it:

    * 'as_printed'  : M = int (phi')^2   (matches the reduction as published;
      the default)
    * 'phi_squared' : M = int phi^2      (the conventional mass integral)

    Neither variant is asserted as the physically correct one; the reference
    plant coefficients are configuration inputs, not outputs of this path.
    """
    mi = mode_integrals(bp.quadrature_points)
    a2 = bp.alpha**2
    b2 = bp.beta**2
    mass_last = mi.I_pp2 if bp.mass_term == "as_printed" else mi.I_00
    den = a2 * mi.I_dd - mass_last
    if abs(den) < 1e-12:
        raise SingularModelError(f"modal-mass denominator is singular: {den}")
    k1 = (b2 * mi.I_6 - mi.I_4) / den
    num_a = 0.5 * mi.I_pp2 * mi.I_dd - b2 * (mi.I_3p * mi.I_dd + mi.I_pp2sq * mi.I_dd)
    num_b = 0.5 * a2 * mi.I_pp2 * mi.I_4 - a2 * b2 * (mi.I_3p * mi.I_4 + mi.I_pp2sq * mi.I_4)
    k2 = (num_a - num_b) / den
    g = bp.lam * (a2 * math.pi**2 + 1.0) / den
    return PlantParams(K1=k1, K2=k2, g=g)


def plant_derivative(
    x: tuple[float, float], u: float, d: float, pp: PlantParams
) -> tuple[float, float]:
    """Right-hand side of the reduced plant at state x = (x1, x2)."""
    x1, x2 = x
    return (x2, -pp.K1 * x1 - pp.K2 * x1**3 - pp.g * u + d)
