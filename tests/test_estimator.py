import math
import re
from dataclasses import replace
from fractions import Fraction

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from presto import load_scenario
from presto.estimator import (
    EkfConfig,
    EkfState,
    augmented_transition,
    ekf_init,
    ekf_predict,
    ekf_update,
    transition_jacobian,
)

K2, G = -19.97, -1.09


def np_predict(x_hat: np.ndarray, P: np.ndarray, u, cfg, K2, g):
    """Oracle: the filter's predict over numpy arrays.  Its product goes
    through BLAS, so it agrees with the float predict only to rounding."""
    F = transition_jacobian(x_hat, cfg, K2)
    x_new = augmented_transition(x_hat, u, cfg, K2, g)
    P_new = F @ P @ F.T + np.diag(cfg.q_diag)
    P_new = 0.5 * (P_new + P_new.T)
    return x_new, P_new


def np_update(x_hat: np.ndarray, P: np.ndarray, y, cfg):
    """Oracle: the matching numpy update; returns (x_hat, P, innovation)."""
    S = P[0, 0] + cfg.R
    if S <= 0.0:
        raise ZeroDivisionError(f"singular innovation covariance S={S}")
    innovation = y - x_hat[0]
    K = P[:, 0] / S
    x_new = x_hat + K * innovation
    P_new = P - np.outer(K, K) * S
    diag = P_new.reshape(9)[::4]
    np.maximum(diag, 0.0, out=diag)
    return x_new, P_new, float(innovation)


def state(x_hat, P) -> EkfState:
    """A filter state from an estimate and a symmetric 3x3 covariance."""
    P = np.asarray(P, dtype=float)
    return EkfState(tuple(np.asarray(x_hat, dtype=float).tolist()),
                    tuple(P[np.triu_indices(3)].tolist()))


def expand(P6) -> np.ndarray:
    """The full 3x3 covariance of a six-float upper triangle."""
    p11, p12, p13, p22, p23, p33 = P6
    return np.array([[p11, p12, p13], [p12, p22, p23], [p13, p23, p33]])


def bits(v) -> bytes:
    return np.asarray(v, dtype=float).tobytes()


def assert_matches_oracle(out: EkfState, x_ref: np.ndarray, P_ref: np.ndarray) -> None:
    # bytes, so the sign of a zero counts; all nine entries of P
    assert bits(out.x_hat) == bits(x_ref)
    assert bits(expand(out.P)) == bits(P_ref)


def _exact(M) -> list[list[Fraction]]:
    return [[Fraction(v) for v in row] for row in np.asarray(M, dtype=float).tolist()]


# Each entry of the float F P F' + Q is at most a 3-term inner product (of
# F's row with a row of F P) of 3-term inner products (F's row with P's
# column), then one addition of q: the classical triple-product bound
# gamma_6 = gamma_{2n}, n = 3, plus one rounding, so gamma_7 bounds the
# relative error against S = |F||P||F|' + |Q|.  S itself is summed in floats
# from nonnegative terms, so it rounds down by at most a factor 1 - gamma_7.
# A product that underflows adds an absolute error of at most eta/2
# (eta = 2**-1074, sums of subnormals are exact); at most two such errors
# enter each entry of F P and each is then scaled by at most max|F|, whence
# the 6*max(1, max|F|)*eta slack.
_U = Fraction(1, 2**53)
_GAMMA_7 = 7 * _U / (1 - 7 * _U)
_ETA = Fraction(1, 2**1074)


def assert_predict_close(out: EkfState, x: np.ndarray, P: np.ndarray, u, cfg) -> None:
    """`out` is ekf_predict of (x, P): the mean bit for bit, the covariance
    within the rounding bound of the exact F P F' + Q, with F taken from
    `transition_jacobian`, and close to the numpy oracle."""
    assert bits(out.x_hat) == bits(augmented_transition(x, u, cfg, K2, G))
    F, Q = transition_jacobian(x, cfg, K2), np.diag(cfg.q_diag)
    Fx, Px, Qx = _exact(F), _exact(P), _exact(Q)
    FP = [[sum(Fx[i][k] * Px[k][j] for k in range(3)) for j in range(3)] for i in range(3)]
    S = np.abs(F) @ np.abs(P) @ np.abs(F).T + np.abs(Q)
    slack = 6 * max(1.0, float(np.abs(F).max())) * _ETA
    for v, (i, j) in zip(out.P, zip(*np.triu_indices(3))):
        exact = sum(FP[i][k] * Fx[j][k] for k in range(3)) + Qx[i][j]
        bound = _GAMMA_7 / (1 - _GAMMA_7) * Fraction(float(S[i, j])) + slack
        assert abs(Fraction(v) - exact) <= bound, (i, j, v)
    _, P_ref = np_predict(x, P, u, cfg, K2, G)
    assert np.allclose(expand(out.P), P_ref, rtol=0.0, atol=1e-13 * float(S.max()))


def make_cfg(Ts=1e-3, q=(1e-4, 1e-4, 1e-2), r=0.01, p0=(1.0, 1.0, 500.0), x0=(1.0, 5.0, 20.0)):
    return EkfConfig(Ts=Ts, q_diag=tuple(q), R=r, p0_diag=tuple(p0), x0_hat=tuple(x0))


class TestConfigValidation:
    def test_negative_sample_time(self):
        with pytest.raises(ValueError):
            make_cfg(Ts=-1.0)

    def test_zero_sample_time_allowed(self):
        assert make_cfg(Ts=0.0).Ts == 0.0

    @pytest.mark.parametrize("key", ["q", "p0", "x0"])
    def test_three_entries(self, key):
        with pytest.raises(ValueError, match="must have 3 entries, got 2"):
            make_cfg(**{key: (1.0, 1.0)})

    def test_q_must_be_psd(self):
        # a diagonal Q is positive semidefinite exactly when no entry is negative
        with pytest.raises(ValueError, match=re.escape("[ekf] q_diag: entries must be >= 0")):
            make_cfg(q=(1e-4, -1e-12, 1e-2))

    def test_p0_must_be_psd(self):
        with pytest.raises(ValueError, match=re.escape("[ekf] p0_diag: entries must be >= 0")):
            make_cfg(p0=(1.0, -1e-12, 500.0))

    @pytest.mark.parametrize("key", ["q", "p0", "x0"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry_rejected(self, key, value):
        with pytest.raises(ValueError, match="entries must be finite"):
            make_cfg(**{key: (1.0, value, 1.0)})

    @pytest.mark.parametrize("key", ["Ts", "r"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_scalar_rejected(self, key, value):
        with pytest.raises(ValueError, match="must be finite"):
            make_cfg(**{key: value})

    def test_initial_state_is_floats(self):
        cfg = make_cfg()
        st = ekf_init(cfg)
        assert st.x_hat == (1.0, 5.0, 20.0)
        assert st.P == (1.0, 0.0, 0.0, 1.0, 0.0, 500.0)
        assert all(type(v) is float for v in st.x_hat + st.P)

    def test_zero_r_needs_initial_position_variance(self):
        with pytest.raises(ValueError, match="p0_diag"):
            make_cfg(r=0.0, p0=(0.0, 1.0, 500.0))
        assert make_cfg(r=0.0).R == 0.0


class TestTransition:
    def test_rest_is_fixed_point(self):
        cfg = make_cfg()
        x = np.array([0.0, 0.0, 55.0])
        assert augmented_transition(x, 0.0, cfg, K2, G) == pytest.approx(x)

    def test_reference_step(self):
        cfg = make_cfg(Ts=1e-3)
        x = np.array([1.0, 5.0, 97.4])
        out = augmented_transition(x, 0.0, cfg, K2, G)
        assert out[0] == pytest.approx(1.005, abs=1e-15)
        assert out[1] == pytest.approx(5.0 + 1e-3 * (-77.43), abs=1e-12)
        assert out[2] == 97.4

    def test_input_coupling_uses_plant_sign(self):
        cfg = make_cfg(Ts=1e-3)
        x = np.array([0.0, 0.0, 0.0])
        out = augmented_transition(x, 2.0, cfg, K2, G)
        assert out[1] == pytest.approx(1e-3 * (-G) * 2.0)


class TestJacobian:
    def test_zero_position_decouples_parameter(self):
        cfg = make_cfg(Ts=1e-3)
        F = transition_jacobian(np.array([0.0, 3.0, 97.4]), cfg, K2)
        assert F[1, 0] == pytest.approx(1e-3 * -97.4)
        assert F[1, 2] == 0.0

    def test_reference_entry(self):
        cfg = make_cfg(Ts=1e-3)
        F = transition_jacobian(np.array([1.0, 0.0, 97.4]), cfg, K2)
        assert F[1, 0] == pytest.approx(1e-3 * (-97.4 + 59.91), rel=1e-12)

    def test_against_central_differences(self):
        # the full criterion sweeps 100 states; keep a quick spot check here
        cfg = make_cfg(Ts=1e-3)
        rng = np.random.default_rng(51)
        for _ in range(20):
            x = rng.uniform(-2, 2, size=3) * np.array([1.0, 5.0, 50.0])
            F = transition_jacobian(x, cfg, K2)
            h = 1e-6
            for j in range(3):
                e = np.zeros(3)
                e[j] = h
                fd = (
                    augmented_transition(x + e, 0.7, cfg, K2, G)
                    - augmented_transition(x - e, 0.7, cfg, K2, G)
                ) / (2 * h)
                for i in range(3):
                    assert F[i, j] == pytest.approx(fd[i], rel=1e-6, abs=1e-6)


class TestPredict:
    def test_identity_map_keeps_covariance(self):
        cfg = make_cfg(Ts=0.0, q=(0.0, 0.0, 0.0))
        st = state([1.0, 2.0, 3.0], np.diag([2.0, 3.0, 4.0]))
        out = ekf_predict(st, 0.0, cfg, K2, G)
        assert out.P == pytest.approx(st.P)
        assert out.x_hat == pytest.approx(st.x_hat)

    def test_scalar_random_walk_oracle(self):
        # position-only embedding: P0 = 1, Q = 1, F = I gives predicted P = 2
        cfg = make_cfg(Ts=0.0, q=(1.0, 0.0, 0.0))
        st = state(np.zeros(3), np.diag([1.0, 0.0, 0.0]))
        out = ekf_predict(st, 0.0, cfg, K2, G)
        assert out.P[0] == pytest.approx(2.0, abs=1e-12)

    def test_trace_never_shrinks_under_identity_map(self):
        rng = np.random.default_rng(52)
        cfg = make_cfg(Ts=0.0)
        for _ in range(50):
            A = rng.normal(size=(3, 3))
            P = A @ A.T
            out = ekf_predict(state(np.zeros(3), P), 0.0, cfg, K2, G)
            assert np.trace(expand(out.P)) >= np.trace(P) - 1e-12


class TestUpdate:
    def test_exact_measurement_keeps_mean(self):
        cfg = make_cfg()
        st = state([1.5, 0.0, 20.0], np.eye(3))
        out, innov = ekf_update(st, 1.5, cfg)
        assert innov == 0.0
        assert out.x_hat == pytest.approx(st.x_hat)

    def test_scalar_oracle(self):
        # P = 2, R = 1, xhat = 0, y = 2  ->  K = 2/3, xhat = 4/3, P = 2/3
        cfg = make_cfg(r=1.0)
        st = state(np.zeros(3), np.diag([2.0, 0.0, 0.0]))
        out, innov = ekf_update(st, 2.0, cfg)
        assert innov == pytest.approx(2.0, abs=1e-15)
        assert out.x_hat[0] == pytest.approx(4.0 / 3.0, abs=1e-12)
        assert out.P[0] == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_update_never_inflates_covariance(self):
        rng = np.random.default_rng(53)
        cfg = make_cfg(r=0.5)
        for _ in range(100):
            A = rng.normal(size=(3, 3))
            P = A @ A.T + 1e-6 * np.eye(3)
            st = state(rng.normal(size=3), P)
            out, _ = ekf_update(st, float(rng.normal()), cfg)
            assert np.min(np.linalg.eigvalsh(P - expand(out.P))) >= -1e-10

    def test_singular_innovation(self):
        cfg = make_cfg(r=0.0)
        st = state(np.zeros(3), np.zeros((3, 3)))
        with pytest.raises(ZeroDivisionError):
            ekf_update(st, 1.0, cfg)

    def test_joseph_form_equivalence(self):
        # P - K S K' equals (I - K H) P (I - K H)' + K R K' for the exact gain
        rng = np.random.default_rng(54)
        H = np.array([[1.0, 0.0, 0.0]])
        R = 0.37
        for _ in range(100):
            A = rng.normal(size=(3, 3))
            P = A @ A.T + 1e-9 * np.eye(3)
            S = P[0, 0] + R
            K = (P @ H.T / S).reshape(3, 1)
            direct = P - K * S @ K.T
            ikh = np.eye(3) - K @ H
            joseph = ikh @ P @ ikh.T + K * R @ K.T
            assert np.allclose(direct, joseph, rtol=1e-9, atol=1e-12)


class TestDeterminism:
    def test_seeded_filter_trace_is_bitwise_reproducible(self):
        def run():
            rng = np.random.default_rng(np.random.SeedSequence([99]))
            cfg = make_cfg()
            st = ekf_init(cfg)
            xs = []
            for k in range(200):
                st = ekf_predict(st, 0.3, cfg, K2, G)
                y = 0.5 + 0.1 * rng.standard_normal()
                st, _ = ekf_update(st, y, cfg)
                xs.append(st.x_hat)
            return np.array(xs)

        a, b = run(), run()
        assert np.array_equal(a, b)


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


_matrices = hnp.arrays(float, (3, 3), elements=_floats(-1e3, 1e3))
# 3 x k factors, so P = A A' has rank k
_factors = st.integers(1, 3).flatmap(
    lambda k: hnp.arrays(float, (3, k), elements=_floats(-1e3, 1e3)))
_states = hnp.arrays(float, 3, elements=_floats(-10.0, 10.0)).map(lambda x: x * [1.0, 10.0, 100.0])


class TestCovarianceInvariant:
    """The update matches the numpy oracle bit for bit, the predict the exact
    F P F' + Q to rounding, and both keep P's diagonal nonnegative; P is
    symmetric by construction."""

    @given(A=_factors, x=_states, y=_floats(-10.0, 10.0), r=_floats(1e-12, 1e3))
    def test_update(self, A, x, y, r):
        # any PSD P, rank one included: with r far below P[0,0] the exact
        # posterior variances are tiny and rounding would take some below zero
        cfg = make_cfg(r=r)
        P = A @ A.T
        out, _ = ekf_update(state(x, P), y, cfg)
        x_ref, P_ref, _ = np_update(x, P, y, cfg)
        assert_matches_oracle(out, x_ref, P_ref)
        assert all(out.P[i] >= 0.0 for i in (0, 3, 5))

    @given(A=_matrices, x=_states, u=_floats(-30.0, 30.0), Ts=_floats(0.0, 0.1),
           q=hnp.arrays(float, 3, elements=_floats(0.0, 1.0)))
    def test_predict(self, A, x, u, Ts, q):
        # positive definite P: for a singular P with Q = 0, F P F' can round
        # a variance a few ulps below zero, which the next update clips
        P = A @ A.T
        P += 1e-6 * (1.0 + np.abs(P).max()) * np.eye(3)
        cfg = make_cfg(Ts=Ts, q=q)
        out = ekf_predict(state(x, P), u, cfg, K2, G)
        assert_predict_close(out, x, P, u, cfg)
        assert all(out.P[i] >= 0.0 for i in (0, 3, 5))


class TestNumpyOracle:
    """The float cycle against its oracles: the update against numpy bit for
    bit, the predict against exact rational arithmetic (and numpy, to
    rounding).  Each oracle stage gets the state the filter stage received."""

    @given(A=_factors, x=_states, u=_floats(-30.0, 30.0), Ts=_floats(0.0, 0.1),
           r=_floats(1e-12, 1e3), q=hnp.arrays(float, 3, elements=_floats(0.0, 1.0)),
           y=_floats(-10.0, 10.0))
    def test_cycle(self, A, x, u, Ts, r, q, y):
        cfg = make_cfg(Ts=Ts, q=q, r=r)
        P = A @ A.T
        pred = ekf_predict(state(x, P), u, cfg, K2, G)
        assert_predict_close(pred, x, P, u, cfg)
        x_in, P_in = np.array(pred.x_hat), expand(pred.P)
        try:
            out, innov = ekf_update(pred, y, cfg)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                np_update(x_in, P_in, y, cfg)
            return
        x_ref, P_ref, innov_ref = np_update(x_in, P_in, y, cfg)
        assert_matches_oracle(out, x_ref, P_ref)
        assert bits(innov) == bits(innov_ref)

    def test_edge_values(self):
        """A variance past half the float range survives the predict and the
        update, which are symmetric by construction and have no `0.5*(a + a)`
        step to double it to inf; nor has the update's oracle.  A predict that
        does overflow leaves inf in P, which the loop's `isfinite(trace P)`
        guard ends the run on.  The floor makes -0.0 and negatives +0.0 but
        passes NaN."""
        x = np.zeros(3)
        cfg = make_cfg(Ts=0.0, q=(0.0, 0.0, 0.0), r=1.0)
        P = np.diag([1e308, 1.0, 1.0])
        assert ekf_predict(state(x, P), 0.0, cfg, K2, G).P == (1e308, 0.0, 0.0, 1.0, 0.0, 1.0)
        P = np.diag([1e308, 1e308, 1.0])
        out = ekf_predict(state(x, P), 0.0, make_cfg(Ts=1.0), K2, G)
        assert out.P[0] == math.inf
        out, _ = ekf_update(state(x, np.diag([1.0, 1e308, 1.0])), 0.5, cfg)
        assert out.P == (0.5, 0.0, 0.0, 1e308, 0.0, 1.0)
        for diag in ([1.0, -0.0, np.nan], [1.0, -1e-3, 0.0], [1.0, 1e308, 1.0]):
            P = np.diag(diag)
            out, _ = ekf_update(state(x, P), 0.5, cfg)
            assert_matches_oracle(out, *np_update(x, P, 0.5, cfg)[:2])

    def test_s73_replay(self, monkeypatch):
        """2,000 closed-loop cycles of s73, recorded through the cycle names of
        tests/reference.py during `reference_run`, which tests/test_kernels.py
        holds the inlined cycle of the adaptive loop to bit for bit: each
        oracle stage, fed the state and input the filter stage received,
        reproduces the update's state bit for bit and the predict's to
        rounding."""
        import reference

        sc = load_scenario("s73")
        cycles = 2000
        sc = replace(sc, horizon=cycles * sc.ekf.Ts)
        calls = []

        def record(stage):
            def wrapped(*args):
                out = stage(*args)
                calls.append((stage, args[0], args[1], out))
                return out
            return wrapped

        monkeypatch.setattr(reference, "ekf_predict", record(ekf_predict))
        monkeypatch.setattr(reference, "ekf_update", record(ekf_update))
        reference.reference_run(sc)
        assert sum(stage is ekf_update for stage, _, _, _ in calls) == cycles

        cfg, pp = sc.ekf, sc.plant
        assert calls[0][1] == ekf_init(cfg)
        assert (pp.K2, pp.g) == (K2, G)
        for stage, st_in, arg, out in calls:
            x_in, P_in = np.array(st_in.x_hat), expand(st_in.P)
            if stage is ekf_predict:
                assert_predict_close(out, x_in, P_in, arg, cfg)
            else:
                x_ref, P_ref, innov_ref = np_update(x_in, P_in, arg, cfg)
                out, innov = out
                assert bits(innov) == bits(innov_ref)
                assert_matches_oracle(out, x_ref, P_ref)
