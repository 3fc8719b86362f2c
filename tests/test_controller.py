import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from presto import load_scenario, run_scenario
from presto.controller import (
    SatBounds,
    SmcGains,
    TsmcGains,
    ddt_signed_pow,
    saturate,
    saturated_tsmc_control,
    sliding_stack_n2,
    smc_control,
    tsmc_control,
)
from presto.mathcore import ExponentPair, check_exponent_pair, prescribed_time_bound, signed_pow
from presto.plant import PlantParams

REF = PlantParams(K1=97.4, K2=-19.97, g=-1.09)

G71 = TsmcGains(
    alpha1=100.0,
    beta1=9.0,
    e1=ExponentPair(3, 5),
    e2=ExponentPair(1, 3),
    delta=5.0,
    mu=1e-4,
)

G72 = TsmcGains(
    alpha1=4.9,
    beta1=3.0,
    e1=ExponentPair(3, 5),
    e2=ExponentPair(1, 3),
    delta=3.0,
    mu=0.01,
    tau=3.7,
    sat=SatBounds(-30.0, 10.0),
)


class TestGainGates:
    def test_inadmissible_first_stage_pair_is_rejected(self):
        with pytest.raises(ValueError, match=r"p1/q1 > 1/2"):
            TsmcGains(
                alpha1=100.0,
                beta1=9.0,
                e1=ExponentPair(1, 3),
                e2=ExponentPair(1, 3),
                delta=5.0,
                mu=1e-4,
            )

    def test_positivity(self):
        with pytest.raises(ValueError):
            TsmcGains(0.0, 9.0, ExponentPair(3, 5), ExponentPair(1, 3), 5.0, 1e-4)
        with pytest.raises(ValueError):
            TsmcGains(1.0, 9.0, ExponentPair(3, 5), ExponentPair(1, 3), 0.0, 1e-4)
        for name in ("alpha1", "beta1", "delta", "mu", "tau"):
            for bad in (math.inf, -math.inf, math.nan):
                with pytest.raises(ValueError, match=re.escape(f"[controller] {name}: must be finite")):
                    replace(G72, **{name: bad})

    def test_clamp_must_bracket_zero(self):
        with pytest.raises(ValueError):
            TsmcGains(
                1.0,
                1.0,
                ExponentPair(3, 5),
                ExponentPair(1, 3),
                1.0,
                1.0,
                tau=1.0,
                sat=SatBounds(1.0, 10.0),
            )

    def test_smc_gains(self):
        for Kg in (0.0, -1.0):
            message = f"[smc] Kg: switching gain must be > 0, got {Kg}"
            with pytest.raises(ValueError, match=re.escape(message)):
                SmcGains(Y=1.0, Kg=Kg, K1_min=90.0, K1_max=100.0, K1_nominal=95.0)
        with pytest.raises(ValueError):
            SmcGains(Y=-1.0, Kg=2.0, K1_min=90.0, K1_max=100.0, K1_nominal=95.0)


class TestSlidingStack:
    def test_origin(self):
        assert sliding_stack_n2((0.0, 0.0), 0.0, G71) == 0.0

    def test_reference_state(self):
        assert sliding_stack_n2((1.0, 5.0), 0.0, G71) == pytest.approx(114.0)  # 5 + 100 + 9

    def test_odd_symmetry(self):
        a = sliding_stack_n2((1.0, 5.0), 0.0, G71)
        b = sliding_stack_n2((-1.0, -5.0), 0.0, G71)
        assert b == pytest.approx(-a)

    def test_matches_closed_form(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            x1, x2 = (float(v) for v in rng.uniform(-2, 2, size=2))
            s_obs = float(rng.uniform(-1, 1))
            expected = x2 + 100.0 * x1 + 9.0 * signed_pow(x1, ExponentPair(3, 5)) + s_obs
            assert sliding_stack_n2((x1, x2), s_obs, G71) == pytest.approx(expected, rel=1e-12)


class TestFractionalDerivativeGuard:
    def test_zero_state_is_exact_zero(self):
        assert ddt_signed_pow(0.0, 123.0, ExponentPair(3, 5)) == 0.0
        assert ddt_signed_pow(1e-13, 123.0, ExponentPair(3, 5)) == 0.0

    def test_matches_chain_rule_away_from_origin(self):
        rng = np.random.default_rng(42)
        e = ExponentPair(3, 5)
        for _ in range(100):
            x1 = float(rng.uniform(0.01, 3) * rng.choice([-1, 1]))
            x2 = float(rng.uniform(-5, 5))
            expected = (3 / 5) * abs(x1) ** (3 / 5 - 1) * x2
            assert ddt_signed_pow(x1, x2, e) == pytest.approx(expected, rel=1e-12)

    def test_finite_everywhere(self):
        for x1 in (1e-12, -1e-12, 1e-9, -1e-300, 0.0):
            v = ddt_signed_pow(x1, 1e3, ExponentPair(3, 5))
            assert math.isfinite(v)


class TestTsmcControl:
    def test_origin_gives_zero_input(self):
        s2 = sliding_stack_n2((0.0, 0.0), 0.0, G71)
        assert tsmc_control((0.0, 0.0), 0.0, s2, REF, G71) == 0.0

    def test_hand_assembled_reference_value(self):
        x = (1.0, 5.0)
        s2 = sliding_stack_n2(x, 0.0, G71)
        expected = -(1.0 / REF.g) * (
            (97.4 - 19.97)
            - 100.0 * 5.0
            - 9.0 * (3 / 5) * 5.0
            - 0.0
            - 5.0 * 114.0
            - 1e-4 * 114.0 ** (1 / 3)
        )
        got = tsmc_control(x, 0.0, s2, REF, G71)
        assert got == pytest.approx(expected, rel=1e-9)
        # stabilizing direction: the loop must push x2 down from +5
        assert -REF.g * got < 0

    def test_linear_in_disturbance_estimate(self):
        x = (0.3, -1.2)
        s2 = sliding_stack_n2(x, 0.0, G71)
        u0 = tsmc_control(x, 1.0, s2, REF, G71)
        u1 = tsmc_control(x, 2.0, s2, REF, G71)
        assert u1 - u0 == pytest.approx(1.0 / REF.g, rel=1e-12)

    def test_prescribed_reaching_deadline(self, ideal_s71):
        # with the true disturbance fed in, s2 obeys the reaching law alone
        _, trace = ideal_s71
        s2 = trace.column("s2")
        t = trace.times()
        crossed = np.nonzero(np.abs(s2) <= 1e-3)[0]
        assert crossed.size > 0
        gamma = (1 + 3) / (2 * 3)
        bound = prescribed_time_bound(
            theta=2 * 5.0, xi=1e-4 * 2**gamma, gamma=gamma, V0=0.5 * float(s2[0]) ** 2
        )
        assert float(t[crossed[0]]) <= bound


class TestSaturation:
    def test_clamp(self):
        sat = SatBounds(-30.0, 10.0)
        assert saturate(5.0, sat) == 5.0
        assert saturate(50.0, sat) == 10.0
        assert saturate(-100.0, sat) == -30.0

    def test_bounds_ordering(self):
        with pytest.raises(ValueError):
            SatBounds(10.0, -30.0)


_POSITIVE = st.floats(1e-3, 1e3)
_SIGNED = st.floats(-1e3, 1e3)
_ODD_PAIRS = st.integers(1, 50).flatmap(
    lambda j: st.integers(0, j - 1).map(lambda i: ExponentPair(2 * i + 1, 2 * j + 1)))


@st.composite
def _saturated_gains(draw) -> TsmcGains:
    return TsmcGains(
        alpha1=draw(_POSITIVE), beta1=draw(_POSITIVE),
        e1=draw(_ODD_PAIRS.filter(check_exponent_pair)), e2=draw(_ODD_PAIRS),
        delta=draw(_POSITIVE), mu=draw(_POSITIVE), tau=draw(_POSITIVE),
        sat=SatBounds(-draw(_POSITIVE), draw(_POSITIVE)),
    )


class TestClampContainment:
    """u stays inside [u_min, u_max] whatever the gains and the state.

    A NaN command has no place in the interval, so the clamp refuses it.
    """

    @given(u_c=st.floats(), lo=st.floats(-1e300, -1e-300), hi=st.floats(1e-300, 1e300))
    @example(u_c=math.nan, lo=-30.0, hi=10.0)
    def test_saturate(self, u_c, lo, hi):
        if math.isnan(u_c):
            with pytest.raises(ValueError, match="command u_c=nan"):
                saturate(u_c, SatBounds(lo, hi))
            return
        u = saturate(u_c, SatBounds(lo, hi))
        assert lo <= u <= hi
        assert u == u_c or u in (lo, hi)

    @given(gains=_saturated_gains(), K1=_SIGNED, K2=_SIGNED,
           g=_SIGNED.filter(lambda v: v != 0.0), x1=_SIGNED, x2=_SIGNED,
           d_hat=_SIGNED, s_obs=_SIGNED)
    def test_saturated_law(self, gains, K1, K2, g, x1, x2, d_hat, s_obs):
        s2 = sliding_stack_n2((x1, x2), s_obs, gains)
        _, u_c, u = saturated_tsmc_control((x1, x2), d_hat, s2, PlantParams(K1, K2, g), gains)
        assert gains.sat.u_min <= u <= gains.sat.u_max
        assert u == u_c or u in (gains.sat.u_min, gains.sat.u_max)


class TestSaturatedTsmc:
    def test_origin(self):
        s2 = sliding_stack_n2((0.0, 0.0), 0.0, G72)
        assert saturated_tsmc_control((0.0, 0.0), 0.0, s2, REF, G72) == (0.0, 0.0, 0.0)

    def test_regularized_input_map(self):
        # v_r = 10 through u_c = G*v_r/(G^2 + tau) with G = -g = 1.09
        x = (0.0, 0.0)
        s2 = sliding_stack_n2(x, 0.0, G72)
        v_r, u_c, u = saturated_tsmc_control(x, -10.0, s2, REF, G72)  # -D_hat = +10
        assert v_r == pytest.approx(10.0, rel=1e-12)
        assert u_c == pytest.approx(1.09 * 10.0 / (1.09**2 + 3.7), rel=1e-12)
        assert u == u_c

    def test_command_attenuation_bound(self):
        # |u_c| <= |v_r| / (2 sqrt(tau)) for every v_r (AM-GM on |G|/(G^2+tau))
        rng = np.random.default_rng(43)
        cap = 1.0 / (2.0 * math.sqrt(G72.tau))
        for _ in range(300):
            x = tuple(rng.uniform(-2, 2, size=2))
            dhat = float(rng.uniform(-50, 50))
            s2 = sliding_stack_n2(x, float(rng.uniform(-1, 1)), G72)
            v_r, u_c, _ = saturated_tsmc_control(x, dhat, s2, REF, G72)
            assert abs(u_c) <= cap * abs(v_r) + 1e-12

    def test_requires_tau_and_bounds(self):
        s2 = sliding_stack_n2((0.0, 0.0), 0.0, G71)
        with pytest.raises(ValueError):
            saturated_tsmc_control((0.0, 0.0), 0.0, s2, REF, G71)


class TestSmcBaseline:
    GAINS = SmcGains(Y=1.4, Kg=2.5, K1_min=94.8, K1_max=100.0, K1_nominal=97.4)

    def test_origin(self):
        out = smc_control((0.0, 0.0), self.GAINS, REF)
        assert out == (0.0, 0.0, 0.0, 0.0)

    def test_hand_assembled_components(self):
        gains = SmcGains(Y=1.0, Kg=2.0, K1_min=94.8, K1_max=100.0, K1_nominal=97.4)
        out = smc_control((1.0, 0.0), gains, REF)
        assert out.s == pytest.approx(1.0)
        assert out.u_eq == pytest.approx((0.0 - 97.4 + 19.97) / -1.09, rel=1e-12)
        assert out.u_c == pytest.approx((97.4 - 94.8 + 2.0) / -1.09, rel=1e-12)
        assert out.u == pytest.approx(out.u_eq + out.u_c, rel=1e-12)

    @pytest.mark.parametrize("nominal", [92.0, 97.0, 85.0, 103.0])
    def test_off_centre_nominal_covers_the_interval(self, nominal):
        # without a disturbance s' = (K1_nom - K1)*x1 - (dK*|x1| + Kg)*sgn(s),
        # so s*s' <= -Kg*|s| holds for every K1 in [K1_min, K1_max] only when
        # the slope dK reaches the end of the interval farther from the nominal
        gains = SmcGains(Y=1.0, Kg=2.0, K1_min=90.0, K1_max=100.0, K1_nominal=nominal)
        slope = max(nominal - 90.0, 100.0 - nominal)
        for x1, x2 in ((1.0, -5.0), (-1.0, 5.0), (1.0, 2.0), (-2.0, 1.0)):
            out = smc_control((x1, x2), gains, REF)
            assert out.u_c == (slope * abs(x1) + 2.0) / REF.g * math.copysign(1.0, out.s)
            for K1 in (90.0, 100.0):
                s_dot = -K1 * x1 - REF.K2 * x1**3 - REF.g * out.u + gains.Y * x2
                assert out.s * s_dot <= -gains.Kg * abs(out.s) + 1e-9, (K1, x1, x2)

    def test_reaching_condition_along_trajectory(self):
        # s*s' <= -Kg*|s| outside the switching band when the disturbance
        # is absent and the nominal stiffness is exact
        sc = load_scenario("s74")
        sc = replace(sc, horizon=2.0, decimation=1)
        trace, _ = run_scenario(sc)
        s = trace.column("s")
        dt = sc.dt
        checked = 0
        for i in range(len(s) - 1):
            if abs(s[i]) <= 0.02:
                continue
            fd = (s[i + 1] - s[i]) / dt
            assert s[i] * fd <= -self.GAINS.Kg * abs(s[i]) + 60 * dt * (1 + abs(s[i]))
            checked += 1
        assert checked > 1000
