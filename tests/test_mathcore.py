import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from presto.mathcore import (
    SETTLING_HOLD,
    ExponentPair,
    Trace,
    check_exponent_pair,
    l2_norm,
    linf_norm,
    prescribed_time_bound,
    settling_time,
    sgn,
    signed_pow,
)
from reference import reference_settling_time

# sample values that fall inside and outside the settling bands of the tests
BAND_VALUES = st.sampled_from([0.0, -0.0, 0.01, -0.04, 0.2, -0.45, 1.0, -3.0])
# every odd pair p < q with q <= 101
ODD_PAIRS = st.integers(1, 50).flatmap(
    lambda j: st.integers(0, j - 1).map(lambda i: ExponentPair(2 * i + 1, 2 * j + 1)))


class TestSgn:
    def test_basic_values(self):
        assert sgn(3.2) == 1
        assert sgn(0.0) == 0
        assert sgn(-1e-30) == -1

    def test_nonfinite_rejected(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                sgn(bad)


class TestExponentPair:
    def test_valid(self):
        e = ExponentPair(3, 5)
        assert e.ratio == pytest.approx(0.6)

    @pytest.mark.parametrize("p,q", [(2, 5), (3, 4), (5, 3), (3, 3), (-3, 5), (0, 5)])
    def test_invalid(self, p, q):
        with pytest.raises(ValueError):
            ExponentPair(p, q)

    def test_non_integer(self):
        with pytest.raises(ValueError):
            ExponentPair(3.0, 5)


class TestSignedPow:
    def test_zero(self):
        assert signed_pow(0.0, ExponentPair(3, 5)) == 0.0

    def test_cube_root(self):
        assert signed_pow(-8.0, ExponentPair(1, 3)) == pytest.approx(-2.0, rel=1e-12)

    def test_against_log_exp_oracle(self):
        expected = math.exp((3 / 5) * math.log(0.5))
        assert signed_pow(0.5, ExponentPair(3, 5)) == pytest.approx(expected, rel=1e-14)

    def test_odd_symmetry_exact(self):
        rng = np.random.default_rng(11)
        pairs = [ExponentPair(p, q) for p, q in ((1, 3), (3, 5), (1, 7), (5, 9), (7, 11))]
        for _ in range(200):
            s = float(rng.uniform(-50, 50))
            e = pairs[rng.integers(len(pairs))]
            assert signed_pow(-s, e) == -signed_pow(s, e)

    @given(s=st.floats(allow_nan=False, allow_infinity=False), e=ODD_PAIRS)
    def test_odd_symmetry_property(self, s, e):
        assert signed_pow(-s, e) == -signed_pow(s, e)

    def test_positive_consistency(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            s = float(rng.uniform(1e-6, 100))
            e = ExponentPair(3, 7)
            expected = math.exp(e.ratio * math.log(s))
            assert signed_pow(s, e) == pytest.approx(expected, rel=1e-13)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            signed_pow(math.nan, ExponentPair(1, 3))


class TestPrescribedTimeBound:
    def test_zero_initial_value_returns_start(self):
        assert prescribed_time_bound(theta=8.0, xi=3.0, gamma=0.5, V0=0.0) == 0.0

    def test_high_precision_oracle(self):
        # reference-observer constants: theta = 2k, xi = 2**((p0+q0)/(2 q0)) * eps,
        # gamma = (p0+q0)/(2 q0) with k=4, eps=10, (p0, q0) = (1, 7)
        import mpmath as mp

        mp.mp.dps = 50
        theta = mp.mpf(8)
        gamma = mp.mpf(4) / 7
        xi = mp.mpf(2) ** gamma * 10
        V0 = mp.mpf("0.5")
        expected = mp.log((theta * V0 ** (1 - gamma) + xi) / xi) / (theta * (1 - gamma))
        got = prescribed_time_bound(theta=8.0, xi=float(2 ** (4 / 7) * 10), gamma=4 / 7, V0=0.5)
        assert got == pytest.approx(float(expected), rel=1e-12)

    def test_monotone_in_initial_value(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            theta = float(rng.uniform(0.1, 20))
            xi = float(rng.uniform(0.1, 20))
            gamma = float(rng.uniform(0.05, 0.95))
            va, vb = sorted(rng.uniform(0, 100, size=2))
            ta = prescribed_time_bound(theta, xi, gamma, float(va))
            tb = prescribed_time_bound(theta, xi, gamma, float(vb))
            assert ta <= tb + 1e-15

    @pytest.mark.parametrize(
        "kw",
        [
            dict(theta=0.0, xi=1.0, gamma=0.5, V0=1.0),
            dict(theta=1.0, xi=0.0, gamma=0.5, V0=1.0),
            dict(theta=1.0, xi=1.0, gamma=1.0, V0=1.0),
            dict(theta=1.0, xi=1.0, gamma=0.0, V0=1.0),
            dict(theta=1.0, xi=1.0, gamma=0.5, V0=-1.0),
        ],
    )
    def test_domain_errors(self, kw):
        with pytest.raises(ValueError):
            prescribed_time_bound(**kw)


class TestCheckExponentPair:
    def test_reference_gates(self):
        assert check_exponent_pair(ExponentPair(3, 5)) is True
        assert check_exponent_pair(ExponentPair(5, 9)) is True
        assert check_exponent_pair(ExponentPair(1, 3)) is False
        assert check_exponent_pair(ExponentPair(3, 7)) is False


class TestTrace:
    def test_validation(self):
        with pytest.raises(ValueError):
            Trace(dt=0.0, columns={"x": [1.0]})
        with pytest.raises(ValueError):
            Trace(dt=0.1, columns={"a": [1.0, 2.0], "b": [1.0]})
        # a run that diverges before its first sample leaves zero rows
        assert Trace(dt=0.1, columns={"a": []}).n_samples == 0

    def test_missing_column(self):
        tr = Trace(dt=0.1, columns={"x1": [0.0, 1.0]})
        with pytest.raises(KeyError):
            l2_norm(tr, "nope")


class TestNorms:
    def test_zero_column(self):
        tr = Trace(dt=0.5, columns={"u": np.zeros(10)})
        assert l2_norm(tr, "u") == 0.0
        assert linf_norm(tr, "u") == 0.0

    def test_three_four_five(self):
        tr = Trace(dt=0.123, columns={"u": [3.0, 4.0]})
        assert l2_norm(tr, "u") == pytest.approx(5.0, rel=1e-15)
        assert linf_norm(tr, "u") == 4.0

    def test_absolute_homogeneity(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=64)
        for c in (-3.7, 0.25, 11.0):
            t1 = Trace(dt=1.0, columns={"u": x})
            t2 = Trace(dt=1.0, columns={"u": c * x})
            assert l2_norm(t2, "u") == pytest.approx(abs(c) * l2_norm(t1, "u"), rel=1e-12)
            assert linf_norm(t2, "u") == pytest.approx(abs(c) * linf_norm(t1, "u"), rel=1e-12)

    @pytest.mark.parametrize("x,norm", [
        ([1e200, 1.0], 1e200),
        ([-1e308, 1e308], 1e308 * math.sqrt(2)),
        ([2e307] * 9, 2e307 * 3),
        ([1e308] * 4, math.inf),  # the norm itself is past the float range
        ([1.0, math.inf], math.inf),
    ], ids=["one_huge_sample", "two_extremes", "nine_equal", "past_the_range", "inf_sample"])
    def test_norm_of_an_overflowing_sum(self, x, norm):
        # each sum of squares overflows, but only a norm past the range reads
        # inf, and without a RuntimeWarning
        assert l2_norm(Trace(dt=1.0, columns={"u": x}), "u") == norm

class TestSettlingTime:
    def test_identically_zero_settles_at_origin(self):
        n = 100
        tr = Trace(dt=0.01, columns={"x1": np.zeros(n), "x2": np.zeros(n)})
        assert settling_time(tr, 0.02) == 0.0

    def test_never_entering_band(self):
        n = 100
        tr = Trace(dt=0.01, columns={"x1": np.ones(n), "x2": np.zeros(n)})
        assert settling_time(tr, 0.02) is None

    def test_window_semantics_ignore_later_exits(self):
        # in band over samples 2..6, exits at 7; a hold of 4 samples fits
        x1 = np.array([1.0, 0.5, 0.05, 0.04, 0.03, 0.05, 0.06, 1.0, 1.0, 1.0])
        tr = _holding(4, x1, np.zeros_like(x1))
        assert settling_time(tr, 0.1) == 2 * tr.dt

    def test_hold_window_must_fit_inside_trace(self):
        x1 = np.array([1.0, 0.5, 0.05, 0.04])
        assert settling_time(_holding(4, x1, np.zeros_like(x1)), 0.1) is None

    # x1 samples, the window in samples and the settling sample; band = 0.5 * max(|x1(0)|, |x2(0)|)
    EDGES = {
        "window-1": ([1.0, 0.9, 0.1, 0.9], 1, 2),
        "window-equals-length": ([0.0] * 5, 5, 0),
        "window-exceeds-length": ([0.0] * 5, 6, None),
        "all-in-band": ([0.0, -0.0, 0.0, -0.0, 0.0, -0.0], 3, 0),
        "none-in-band": ([1.0, 2.0, -1.0, 0.9, -0.7], 2, None),
    }

    @pytest.mark.parametrize("case", sorted(EDGES))
    def test_window_edges_match_scan(self, case):
        x1, window, expected = self.EDGES[case]
        tr = _holding(window, x1, np.zeros(len(x1)))
        assert settling_time(tr, 0.5) == (None if expected is None else expected * tr.dt)
        assert settling_time(tr, 0.5) == reference_settling_time(tr, 0.5, SETTLING_HOLD)

    @settings(max_examples=300)
    @given(st.lists(st.tuples(BAND_VALUES, BAND_VALUES), min_size=1, max_size=40),
           st.sampled_from([0.05, 0.25, 0.5, 0.9]), st.integers(1, 45))
    def test_matches_scan_on_random_band_patterns(self, samples, fraction, window):
        tr = _holding(window, *(np.array(c) for c in zip(*samples)))
        assert settling_time(tr, fraction) == reference_settling_time(tr, fraction, SETTLING_HOLD)

    def test_parameter_validation(self):
        tr = Trace(dt=0.1, columns={"x1": [1.0, 0.0], "x2": [0.0, 0.0]})
        with pytest.raises(ValueError):
            settling_time(tr, 0.0)
        with pytest.raises(ValueError):
            settling_time(tr, 1.0)


def _holding(window: int, x1, x2) -> Trace:
    """A trace of x1, x2 whose step makes the SETTLING_HOLD window `window`
    samples long: the hold is window - 0.75 steps, which rounds to window - 1."""
    return Trace(dt=SETTLING_HOLD / (window - 0.75), columns={"x1": x1, "x2": x2})
