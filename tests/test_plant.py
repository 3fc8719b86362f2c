import math

import numpy as np
import pytest

from presto import plant
from presto.plant import (
    BeamParams,
    DisturbanceSpec,
    DisturbanceTerm,
    PlantParams,
    disturbance_value,
    galerkin_coefficients,
    plant_derivative,
)

PI = math.pi


def composite_gauss(f) -> float:
    """Composite Gauss-Legendre rule on [0, 1]: eight order-8 panels, 64 nodes."""
    panels = 8
    nodes, weights = np.polynomial.legendre.leggauss(8)
    total = 0.0
    h = 1.0 / panels
    for k in range(panels):
        x = (k + 0.5) * h + 0.5 * h * nodes
        total += 0.5 * h * float(np.sum(weights * f(x)))
    return total


# the integrand of each mode-integral constant in presto.plant, for the
# sine mode phi(x) = sin(pi*x); quadrature over these is the independent
# oracle for the library's closed forms
MODE_INTEGRANDS = dict(
    I_PP2=lambda x: (PI * np.cos(PI * x)) ** 2,
    I_DD=lambda x: (-(PI**2) * np.sin(PI * x)) * np.sin(PI * x),
    I_4=lambda x: (PI**4 * np.sin(PI * x)) * np.sin(PI * x),
    I_6=lambda x: (-(PI**6) * np.sin(PI * x)) * np.sin(PI * x),
    I_3P=lambda x: (-(PI**3) * np.cos(PI * x)) * (PI * np.cos(PI * x)),
    I_PP2SQ=lambda x: (-(PI**2) * np.sin(PI * x)) ** 2,
    I_00=lambda x: np.sin(PI * x) ** 2,
)


class TestModeIntegrals:
    def test_matches_closed_forms(self):
        for name, f in MODE_INTEGRANDS.items():
            assert getattr(plant, name) == pytest.approx(composite_gauss(f), rel=1e-12), name


def _analytic_coefficients(alpha, beta, lam):
    # hand-assembled closed forms for the sine mode (independent oracle):
    # shared denominator -(pi^2/2) (1 + alpha^2)
    k1 = PI**2 * (1 + beta**2 * PI**2) / (1 + alpha**2)
    k2 = (PI**2 / 4) * (1 + alpha**2 * PI**2) / (1 + alpha**2)
    g = -2 * lam * (1 + alpha**2 * PI**2) / (PI**2 * (1 + alpha**2))
    return k1, k2, g


class TestGalerkinCoefficients:
    def test_local_classical_limit(self):
        pp = galerkin_coefficients(BeamParams(alpha=0.0, beta=0.0, lam=1.0))
        assert pp.K1 == pytest.approx(PI**2, rel=1e-10)
        assert pp.K2 == pytest.approx(PI**2 / 4, rel=1e-10)
        assert pp.g == pytest.approx(-2 / PI**2, rel=1e-10)

    @pytest.mark.parametrize("alpha,beta,lam", [(0.1, 0.05, 12.0), (0.3, 0.2, 1.0), (0.0, 0.4, 5.0)])
    def test_matches_hand_assembly(self, alpha, beta, lam):
        pp = galerkin_coefficients(BeamParams(alpha=alpha, beta=beta, lam=lam))
        k1, k2, g = _analytic_coefficients(alpha, beta, lam)
        assert pp.K1 == pytest.approx(k1, rel=1e-10)
        assert pp.K2 == pytest.approx(k2, rel=1e-10)
        assert pp.g == pytest.approx(g, rel=1e-10)

    def test_size_terms_vanish_at_zero_parameters(self):
        base = galerkin_coefficients(BeamParams(alpha=0.0, beta=0.0, lam=1.0))
        with_beta = galerkin_coefficients(BeamParams(alpha=0.0, beta=0.2, lam=1.0))
        assert with_beta.K1 > base.K1  # gradient term stiffens
        stiffer = galerkin_coefficients(BeamParams(alpha=0.0, beta=0.4, lam=1.0))
        assert stiffer.K1 > with_beta.K1

    def test_conventional_mass_variant(self):
        pp = galerkin_coefficients(BeamParams(alpha=0.0, beta=0.0, lam=1.0, mass_term="phi_squared"))
        assert pp.K1 == pytest.approx(PI**4, rel=1e-10)

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="mass_term"):
            BeamParams(alpha=0.0, beta=0.0, lam=1.0, mass_term="bogus")


REF = PlantParams(K1=97.4, K2=-19.97, g=-1.09)


class TestPlantDerivative:
    def test_origin_is_fixed_point(self):
        assert plant_derivative((0.0, 0.0), 0.0, 0.0, REF) == (0.0, 0.0)

    def test_reference_state(self):
        dx = plant_derivative((1.0, 5.0), 0.0, 0.0, REF)
        assert dx[0] == 5.0
        assert dx[1] == pytest.approx(-77.43, abs=1e-12)

    def test_input_coupling(self):
        dx = plant_derivative((1.0, 5.0), 1.0, 0.0, REF)
        assert dx[1] == pytest.approx(-77.43 + 1.09, abs=1e-12)

    def test_odd_symmetry(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            x1, x2, u, d = rng.uniform(-3, 3, size=4)
            a = plant_derivative((x1, x2), u, d, REF)
            b = plant_derivative((-x1, -x2), -u, -d, REF)
            assert b[0] == pytest.approx(-a[0], abs=1e-12)
            assert b[1] == pytest.approx(-a[1], abs=1e-12)

    def test_zero_gain_rejected(self):
        with pytest.raises(ValueError):
            PlantParams(K1=1.0, K2=1.0, g=0.0)

    @staticmethod
    def _euler_energy_drift(dt):
        pp = PlantParams(K1=97.4, K2=0.0, g=-1.09)
        period = 2 * PI / math.sqrt(pp.K1)
        steps = int(10 * period / dt)
        x1, x2 = 1.0, 0.0
        e0 = x2**2 + pp.K1 * x1**2
        for _ in range(steps):
            d1, d2 = plant_derivative((x1, x2), 0.0, 0.0, pp)
            x1, x2 = x1 + dt * d1, x2 + dt * d2
        return abs(x2**2 + pp.K1 * x1**2 - e0) / e0

    def test_euler_energy_drift_bounds_step_error(self):
        # undriven linear limit: x2^2 + K1 x1^2 is conserved by the flow;
        # explicit-Euler drift over ten periods measures the open-loop
        # integration error at the default step (about 6.4 percent) and
        # halving the step must roughly halve it (first-order method)
        drift = self._euler_energy_drift(1e-4)
        assert drift < 0.08
        assert self._euler_energy_drift(5e-5) < 0.6 * drift


S71_SPEC = DisturbanceSpec(
    terms=(
        DisturbanceTerm(2.0, "sin_linear", 0.1),
        DisturbanceTerm(3.0, "sin_sqrt", 0.2),
    )
)


class TestDisturbance:
    def test_empty_spec(self):
        assert disturbance_value(DisturbanceSpec(), 17.3) == 0.0

    def test_reference_value_at_origin(self):
        assert disturbance_value(S71_SPEC, 0.0) == pytest.approx(3 * math.sin(0.2), rel=1e-14)

    def test_bound_property(self):
        rng = np.random.default_rng(22)
        assert S71_SPEC.bound == pytest.approx(5.0)
        for _ in range(300):
            t = float(rng.uniform(0, 50))
            assert abs(disturbance_value(S71_SPEC, t)) <= S71_SPEC.bound + 1e-12

    def test_small_amplitude_bound(self):
        spec = DisturbanceSpec(
            terms=(
                DisturbanceTerm(0.2, "sin_linear", 0.1),
                DisturbanceTerm(0.3, "sin_sqrt", 0.2),
            )
        )
        for t in np.linspace(0, 20, 500):
            assert abs(disturbance_value(spec, float(t))) <= 0.5 + 1e-12

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            DisturbanceTerm(1.0, "square", 0.1)

    @pytest.mark.parametrize("amplitude,rate", [(math.inf, 0.1), (2.0, math.nan)])
    def test_non_finite_term_rejected(self, amplitude, rate):
        with pytest.raises(ValueError, match="must be finite"):
            DisturbanceTerm(amplitude, "sin_linear", rate)

    def test_tabulated_interpolation(self):
        spec = DisturbanceSpec(table=((0.0, 1.0, 2.0), (0.0, 2.0, 0.0)))
        assert disturbance_value(spec, 0.5) == pytest.approx(1.0)
        assert disturbance_value(spec, 1.5) == pytest.approx(1.0)
        assert disturbance_value(spec, 5.0) == pytest.approx(0.0)  # held at the end
        assert spec.bound == pytest.approx(2.0)

    @pytest.mark.parametrize(
        "spec",
        [
            DisturbanceSpec(terms=(DisturbanceTerm(2.0, "sin_linear", 0.1),)),
            DisturbanceSpec(terms=(DisturbanceTerm(3.0, "sin_sqrt", 0.2),)),
            S71_SPEC,
            DisturbanceSpec(
                terms=(DisturbanceTerm(-1.5, "sin_sqrt", 0.3),),
                table=((0.0, 0.05, 0.1, 0.2), (0.0, 3.0, -2.0, 1.0)),
            ),
            DisturbanceSpec(),
            DisturbanceSpec(terms=(DisturbanceTerm(-2.0, "sin_linear", 0.4),)),
        ],
        ids=["sin_linear", "sin_sqrt", "s71", "table", "empty", "negative_amplitude"],
    )
    def test_array_matches_float_calls_bitwise(self, spec):
        # step times of a run, the table knots and times past its end
        times = np.concatenate([np.arange(5000) * 1e-4, [0.05, 0.1, 0.2, 0.7, 41.3]])
        series = disturbance_value(spec, times)
        assert series.shape == times.shape
        for t, d in zip(times, series):
            value = disturbance_value(spec, float(t))
            assert type(value) is float
            # equal bit patterns: == alone would let -0.0 pass for 0.0
            assert np.float64(value).tobytes() == d.tobytes(), t

    def test_matches_the_scalar_libm_formula(self):
        # the documented formula in scalar libm arithmetic, term by term in
        # file order from 0.0 and the table last; the bundled outputs were
        # first produced this way, so numpy's sin must agree with libm's
        spec = DisturbanceSpec(
            terms=S71_SPEC.terms + (DisturbanceTerm(-1.5, "sin_sqrt", 0.3),),
            table=((0.0, 0.05, 0.1, 0.2), (0.0, 3.0, -2.0, 1.0)),
        )
        times = np.arange(80000) * 1e-4
        series = disturbance_value(spec, times)
        for t, d in zip(times.tolist(), series.tolist()):
            expected = 0.0
            for term in spec.terms:
                if term.kind == "sin_linear":
                    expected += term.amplitude * math.sin(term.rate * math.pi * t)
                else:
                    expected += term.amplitude * math.sin(term.rate * math.sqrt(t + 1.0))
            expected += float(np.interp(t, *spec.table))
            assert d == expected, t

    def test_negative_amplitude_at_origin_is_positive_zero(self):
        # terms are summed from +0.0, so -2*sin(0) = -0.0 adds up to +0.0
        spec = DisturbanceSpec(terms=(DisturbanceTerm(-2.0, "sin_linear", 0.4),))
        assert math.copysign(1.0, disturbance_value(spec, 0.0)) == 1.0
        assert math.copysign(1.0, disturbance_value(spec, np.zeros(3))[0]) == 1.0

    def test_tabulated_validation(self):
        with pytest.raises(ValueError):
            DisturbanceSpec(table=((0.0, 0.0), (1.0, 2.0)))
        with pytest.raises(ValueError):
            DisturbanceSpec(table=((0.0,), (1.0,)))
        # a NaN time would slip past the strictly-increasing check
        for table in (((0.0, math.nan, 1.0), (1.0, 2.0, 0.0)), ((0.0, 1.0), (1.0, math.inf))):
            with pytest.raises(ValueError, match="must be finite"):
                DisturbanceSpec(table=table)

