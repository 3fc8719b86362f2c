import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from presto import load_scenario, run_scenario
from presto.mathcore import ExponentPair
from presto.observer import (
    ObserverGains,
    ObserverState,
    disturbance_estimate,
    observer_advance,
    observer_init,
    z_derivative,
)

G71 = ObserverGains(k=4.0, beta0=7.0, eps=10.0, e0=ExponentPair(1, 7))


class TestGainsValidation:
    @pytest.mark.parametrize("kw", [dict(k=0.0), dict(beta0=-1.0), dict(eps=0.0),
                                    dict(k=math.inf), dict(beta0=math.nan), dict(eps=math.inf),
                                    dict(k=math.nan)])
    def test_positivity(self, kw):
        base = dict(k=4.0, beta0=7.0, eps=10.0, e0=ExponentPair(1, 7))
        base.update(kw)
        with pytest.raises(ValueError, match=f"observer gain {next(iter(kw))} must be"):
            ObserverGains(**base)


class TestInit:
    def test_anchored_start(self):
        st = observer_init(5.0)
        assert st.z == 5.0 and st.s == 0.0
        st = observer_init(0.0)
        assert st.z == 0.0 and st.s == 0.0

    def test_estimate_at_zero_drift(self):
        assert disturbance_estimate(observer_init(5.0), 0.0, G71) == 0.0
        assert disturbance_estimate(observer_init(5.0), -2.5, G71) == 2.5

    def test_offset_start(self):
        st = observer_init(5.0, z_offset=2.0)
        assert st == ObserverState(z=7.0, s=2.0)
        # -k*s - beta0 - eps*s**(1/7) at s = 2 and zero drift
        assert disturbance_estimate(st, 0.0, G71) == pytest.approx(-8.0 - 7.0 - 10.0 * 2 ** (1 / 7))


class TestZDerivative:
    def test_rest_at_zero(self):
        st = ObserverState(z=1.0, s=0.0)
        assert z_derivative(st, fx=123.0, forcing=0.0, gains=G71) == 0.0

    def test_reference_arithmetic(self):
        st = ObserverState(z=0.0, s=1.0)
        # -k - beta0 - eps - |fx| = -4 - 7 - 10 - 2
        assert z_derivative(st, fx=-2.0, forcing=0.0, gains=G71) == pytest.approx(-23.0)
        st = ObserverState(z=0.0, s=-1.0)
        assert z_derivative(st, fx=-2.0, forcing=0.0, gains=G71) == pytest.approx(23.0)

    def test_odd_symmetry(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            s = float(rng.uniform(-5, 5))
            fx = float(rng.uniform(-100, 100))
            forcing = float(rng.uniform(-50, 50))
            a = z_derivative(ObserverState(0.0, s), fx, forcing, G71)
            b = z_derivative(ObserverState(0.0, -s), fx, -forcing, G71)
            assert b == pytest.approx(-a, rel=1e-12, abs=1e-12)


class TestDisturbanceEstimate:
    def test_zero_state_zero_drift(self):
        st = ObserverState(z=0.0, s=0.0)
        assert disturbance_estimate(st, 0.0, G71) == 0.0

    def test_reference_arithmetic(self):
        st = ObserverState(z=0.0, s=1.0)
        # -4 - 7 - 10 - 2 + 2
        assert disturbance_estimate(st, -2.0, G71) == pytest.approx(-21.0)

    def test_identity_with_rate_law(self):
        # d_hat - (zdot - forcing) == -fx, shared terms cancel exactly
        rng = np.random.default_rng(32)
        for _ in range(300):
            st = ObserverState(z=0.0, s=float(rng.uniform(-4, 4)))
            fx = float(rng.uniform(-200, 200))
            forcing = float(rng.uniform(-100, 100))
            dhat = disturbance_estimate(st, fx, G71)
            zdot = z_derivative(st, fx, forcing, G71)
            assert dhat - (zdot - forcing) == pytest.approx(-fx, rel=1e-12, abs=1e-12)


    @given(k=st.floats(1e-3, 1e3), beta0=st.floats(1e-3, 1e3), eps=st.floats(1e-3, 1e3),
           e0=st.integers(1, 50).flatmap(lambda j: st.integers(0, j - 1).map(
               lambda i: ExponentPair(2 * i + 1, 2 * j + 1))),
           s=st.floats(-1e3, 1e3), fx=st.floats(-1e6, 1e6), forcing=st.floats(-1e6, 1e6))
    def test_identity_property(self, k, beta0, eps, e0, s, fx, forcing):
        # exact up to the rounding of the four operations, each within half
        # an ulp of its operands' scale
        gains = ObserverGains(k=k, beta0=beta0, eps=eps, e0=e0)
        state = ObserverState(z=0.0, s=s)
        dhat = disturbance_estimate(state, fx, gains)
        zdot = z_derivative(state, fx, forcing, gains)
        scale = abs(dhat) + abs(zdot) + abs(fx) + abs(forcing)
        assert abs(dhat - (zdot - forcing) + fx) <= 2 * sys.float_info.epsilon * scale


class TestAdvance:
    def test_single_euler_step(self):
        st = observer_init(5.0)
        new = observer_advance(st, x_n=5.001, fx=0.0, forcing=1.0, gains=G71, dt=1e-3)
        assert new.z == pytest.approx(5.001, abs=1e-15)
        assert new.s == pytest.approx(0.0, abs=1e-15)

    def test_determinism(self):
        st = ObserverState(z=1.0, s=0.4)
        a = observer_advance(st, 0.7, -3.0, 2.0, G71, 1e-4)
        b = observer_advance(st, 0.7, -3.0, 2.0, G71, 1e-4)
        assert a == b

    def test_bad_step_rejected(self):
        with pytest.raises(ValueError):
            observer_advance(observer_init(0.0), 0.0, 0.0, 0.0, G71, 0.0)


class TestClosedLoopDecay:
    def test_discrete_lyapunov_decrease(self, tmp_path):
        # seed the auxiliary error at 2 and watch V = s^2/2 contract at
        # least at the linear rate outside the switching band
        sc = load_scenario("s71")
        sc = replace(sc, z0_offset=2.0, horizon=0.4, decimation=1)
        trace, _ = run_scenario(sc)
        s = trace.column("s")
        x1 = trace.column("x1")
        k, b0, eps = sc.observer.k, sc.observer.beta0, sc.observer.eps
        dt = sc.dt
        band = 10 * dt * (b0 + eps)
        d_bound = sc.disturbance.bound
        checked = 0
        for i in range(len(s) - 1):
            if abs(s[i]) <= band:
                continue
            fx = abs(-sc.plant.K1 * x1[i] - sc.plant.K2 * x1[i] ** 3)
            step = dt * (k * abs(s[i]) + b0 + eps * abs(s[i]) ** (1 / 7) + 2 * fx + d_bound)
            v_now = 0.5 * s[i] ** 2
            v_next = 0.5 * s[i + 1] ** 2
            assert v_next <= v_now * (1 - 2 * k * dt) + 0.5 * step**2 + 1e-15
            checked += 1
        assert checked > 100
