"""The fused loops of `run_scenario` against the library stage functions.

`reference.reference_run` composes the documented stage functions step by
step.  Every trace column and every report field of the fused loops must
match it bit for bit, and a divergent run must end with the same message,
step time and partial trace.
"""

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from presto import load_scenario, run_scenario
from presto.cli import main as cli_main
from presto.config import load_pso_job, resolve_config_path
from presto.harness import _SERIES_BLOCK, DivergenceError, Scenario
from presto.plant import DisturbanceSpec, DisturbanceTerm
from reference import reference_run

STEPS = 3000
BLOCK_EDGE = _SERIES_BLOCK + 15


def short(name: str, steps: int = STEPS, **changes) -> Scenario:
    sc = load_scenario(name)
    return replace(sc, horizon=steps * sc.dt, **changes)


def short_ekf(name: str, **changes) -> Scenario:
    """`short(name)` with the given [ekf] fields changed."""
    sc = short(name)
    return replace(sc, ekf=replace(sc.ekf, **changes))


def short_tsmc(name: str, **changes) -> Scenario:
    """`short(name)` with the given [controller] fields changed."""
    sc = short(name)
    return replace(sc, tsmc=replace(sc.tsmc, **changes))


# a negative amplitude, and the sin_sqrt term before the sin_linear one
NEGATIVE_REVERSED = DisturbanceSpec(
    terms=(DisturbanceTerm(-1.5, "sin_sqrt", 0.3), DisturbanceTerm(2.0, "sin_linear", 0.1)),
)

CASES = {
    "s71": lambda: short("s71"),
    "s72": lambda: short("s72"),
    "s73-seed0": lambda: short("s73", seed=0),
    "s73-seed1": lambda: short("s73", seed=1),
    "s73-seed2": lambda: short("s73", seed=2),
    "s74": lambda: short("s74"),
    "tune_s71": lambda: load_pso_job("tune_s71")[1].scenario,
    "z0-offset-s72": lambda: short("s72", z0_offset=1.5),
    "z0-offset-s73": lambda: short("s73", z0_offset=-0.5),
    "negative-reversed-s71": lambda: short("s71", disturbance=NEGATIVE_REVERSED),
    "negative-reversed-s74": lambda: short("s74", disturbance=NEGATIVE_REVERSED),
    "decimation1-s71": lambda: short("s71", decimation=1),
    "decimation1-s73": lambda: short("s73", decimation=1),
    # a horizon that is not a whole number of decimation intervals
    "ragged-s72": lambda: short("s72", steps=3005),
    "ragged-s74": lambda: short("s74", steps=3005),
    # the adaptive loop's measurement intervals: a horizon that is not a
    # whole number of them, a decimation that does not divide one, and one
    # step per interval
    "ragged-s73": lambda: short("s73", steps=3005),
    "decimation7-s73": lambda: short("s73", decimation=7),
    "stride1-s73": lambda: short_ekf("s73", Ts=short("s73").dt),
    # past the edge of the disturbance's first block far enough that logged
    # samples (decimation 10, or 7) hold values of the second block and the
    # states they drove; at decimation 7 a sample interval and a measurement
    # interval of s73 straddle the edge.  s74 has no disturbance of its own
    "block-edge-s72": lambda: short("s72", steps=BLOCK_EDGE),
    "block-edge-s73": lambda: short("s73", steps=BLOCK_EDGE, decimation=7),
    "block-edge-s74": lambda: short("s74", steps=BLOCK_EDGE, disturbance=NEGATIVE_REVERSED),
    # the floor of the updated diagonal: with Q = 0, a rank-one P0 and a
    # tiny R, updated variances round below zero; a P0 of -0.0 gives -0.0
    # variances, logged as the +0.0 trace P the floor makes of them
    "floor-clip-s73": lambda: short_ekf("s73", q_diag=(0.0, 0.0, 0.0), R=1e-16,
                                        p0_diag=(0.0, 0.0, 6000.0)),
    "floor-negzero-s73": lambda: short_ekf("s73", q_diag=(0.0, 0.0, 0.0),
                                           p0_diag=(-0.0, -0.0, -0.0)),
    # runs that end in each kind of divergence: z overflows (truth-fed and
    # EKF-fed), the state passes the limit mid-run, the innovation
    # covariance reaches 0 at the second cycle, the estimate passes the limit
    "diverge-observer-s72": lambda: short_tsmc("s72", delta=1e300),
    "diverge-observer-s73": lambda: short_tsmc("s73", delta=1e300),
    "diverge-state-s74": lambda: short("s74", x0=(9e5, 9e5)),
    "diverge-singular-s73": lambda: short_ekf("s73", q_diag=(0.0, 0.0, 0.0), R=0.0,
                                              p0_diag=(1.0, 0.0, 0.0)),
    "diverge-estimate-s73": lambda: short_ekf("s73", x0_hat=(1e5, 5.0, 20.0)),
}
# at rest with no disturbance, from +0.0 and from -0.0: every step of the
# tsmc kinds takes the exact-zero branches of s, s2 and fb1; the adaptive
# kind's noisy measurement moves its estimate off zero at the first update
for _name in ("s71", "s72", "s73", "s74"):
    for _label, _zero in (("zero", 0.0), ("negzero", -0.0)):
        CASES[f"rest-{_label}-{_name}"] = (
            lambda n=_name, z=_zero: short(n, x0=(z, z), disturbance=DisturbanceSpec()))


def outcome(run, sc: Scenario):
    """(trace, report, failure) of one run: a divergent run gives its partial
    trace, no report and its (message, t); any other gives failure None."""
    try:
        return *run(sc), None
    except DivergenceError as err:
        return err.trace, None, (str(err), err.t)


@pytest.mark.parametrize("case", sorted(CASES))
def test_fused_loop_matches_stage_functions(case):
    sc = CASES[case]()
    trace, report, failure = outcome(run_scenario, sc)
    ref_trace, ref_report, ref_failure = outcome(reference_run, sc)
    assert failure == ref_failure
    assert list(trace.columns) == list(ref_trace.columns)
    for name, col in ref_trace.columns.items():
        assert trace.columns[name].tobytes() == col.tobytes(), name  # sign of zero included
    assert report == ref_report


# with a -0.0 P0 and no process noise the filter never corrects its
# estimate, so the negzero case's run ends, after its clips, in this divergence
FLOOR_FAILURES = {"floor-negzero-s73": "EKF diverged at t=0.4320 (x_hat = ("}


@pytest.mark.parametrize("case, clipped", [("floor-clip-s73", lambda v: v < 0.0),
                                            ("floor-negzero-s73", lambda v: v == 0.0)])
def test_floor_cases_take_the_clip(monkeypatch, case, clipped):
    """The reference run of each floor case floors a negative, or a -0.0,
    updated variance to +0.0, so the loop's inlined floor is exercised."""
    import presto.estimator as estimator

    real_floor, floored = estimator._floor, []

    def floor(v):
        out = real_floor(v)
        if out.hex() != v.hex():
            floored.append(v)
        return out

    monkeypatch.setattr(estimator, "_floor", floor)
    _, _, ref_failure = outcome(reference_run, CASES[case]())
    assert any(map(clipped, floored)), floored
    failure = FLOOR_FAILURES.get(case)
    if failure is None:
        assert ref_failure is None
    else:
        assert ref_failure[0].startswith(failure), ref_failure


def poison_ekf_init(monkeypatch, index: int) -> None:
    """Start the filter with NaN in x_hat[index] alone."""
    import presto.harness as harness

    real_init = harness.ekf_init

    def poisoned(cfg):
        st = real_init(cfg)
        x_hat = list(st.x_hat)
        x_hat[index] = math.nan
        return st._replace(x_hat=tuple(x_hat))

    monkeypatch.setattr(harness, "ekf_init", poisoned)


def nan_measurement(monkeypatch, cycle: int) -> None:
    """Make the position measurement of the given EKF cycle (from 1) NaN."""
    real_rng = np.random.default_rng

    class Rng:
        def __init__(self, seed):
            self.rng = real_rng(seed)

        def standard_normal(self, size):
            draws = self.rng.standard_normal(size)
            draws[cycle - 1] = math.nan
            return draws

    monkeypatch.setattr(np.random, "default_rng", Rng)


def far_estimate_cfg(tmp_path, x1_hat: str):
    """s73 over 0.1 s with the filter started at x1_hat, far from the truth."""
    text = resolve_config_path("s73").read_text()
    text = re.sub(r"(?m)^x0_hat = .*$", f"x0_hat = {x1_hat}, 5.0, 20.0", text)
    text = re.sub(r"(?m)^horizon = .*$", "horizon = 0.1", text)
    path = tmp_path / "far.cfg"
    path.write_text(text)
    return path


class TestNonFiniteLoops:
    """Non-finite values outside the truth state end the run as a divergence."""

    @pytest.mark.parametrize("index", [1, 2], ids=["x2_hat", "K1_hat"])
    def test_nan_estimate_raises_divergence(self, monkeypatch, index):
        # the update leaves the NaN in its component alone, so each of the
        # two components is checked by its own clause of the estimate guard
        poison_ekf_init(monkeypatch, index)
        with pytest.raises(DivergenceError) as exc:
            run_scenario(short("s73"))
        assert str(exc.value).startswith("EKF diverged at t=0.0000 (x_hat = (")
        assert str(exc.value).split(", trace P")[0].count("nan") == 1
        assert exc.value.t == 0.0 and exc.value.trace.n_samples == 0

    def test_infinite_trace_p_raises_divergence(self):
        # every variance is finite and the estimate stays near the truth, but
        # the trace of P is not finite, so only that clause of the guard holds
        with pytest.raises(DivergenceError) as exc:
            run_scenario(short_ekf("s73", p0_diag=(0.01, 1e308, 1e308)))
        assert str(exc.value).startswith("EKF diverged at t=0.0000 (x_hat = (")
        assert str(exc.value).endswith(", 5, 20), trace P = inf)")
        assert exc.value.t == 0.0 and exc.value.trace.n_samples == 0

    def test_nan_measurement_raises_divergence(self, monkeypatch):
        nan_measurement(monkeypatch, cycle=4)
        sc = short("s73")
        with pytest.raises(DivergenceError, match="EKF") as exc:
            run_scenario(sc)
        stride = int(round(sc.ekf.Ts / sc.dt))
        assert exc.value.t == pytest.approx(3 * stride * sc.dt)
        assert exc.value.trace.n_samples == 3 * stride // sc.decimation
        assert np.all(np.isfinite(exc.value.trace.column("K1_hat")))

    def test_nan_estimate_is_a_failed_row(self, monkeypatch, tmp_path):
        nan_measurement(monkeypatch, cycle=4)
        code = cli_main(["compare", "s71", "s73", "--out", str(tmp_path)])
        assert code == 2
        lines = (tmp_path / "report.txt").read_text().splitlines()
        assert lines[1].startswith("s71") and "FAILED" not in lines[1]
        assert lines[2].startswith("s73") and "FAILED" in lines[2]
        assert (tmp_path / "s73.csv").read_text().count("\n") > 1

    # 1e80 once overflowed the next covariance predict, 1e110 the cube of
    # the estimate; the guard on the estimate now stops both at the first update
    @pytest.mark.parametrize("x1_hat", ["1.0e80", "1.0e110"])
    def test_runaway_estimate_raises_divergence(self, tmp_path, x1_hat):
        sc = load_scenario(far_estimate_cfg(tmp_path, x1_hat))
        with pytest.raises(DivergenceError, match="EKF"):
            run_scenario(sc)

    @pytest.mark.parametrize("x1_hat", ["1.0e80", "1.0e110"])
    def test_runaway_estimate_exits_two(self, tmp_path, capsys, x1_hat):
        cfg = far_estimate_cfg(tmp_path, x1_hat)
        assert cli_main(["simulate", str(cfg), "--out", str(tmp_path)]) == 2
        assert "EKF diverged" in capsys.readouterr().err
        assert (tmp_path / "far_partial.csv").exists()

    @pytest.mark.parametrize("x1_hat", ["1.0e80", "1.0e110"])
    def test_runaway_estimate_is_a_failed_row(self, tmp_path, x1_hat):
        cfg = far_estimate_cfg(tmp_path, x1_hat)
        out = tmp_path / "out"
        assert cli_main(["compare", "s71", str(cfg), "--out", str(out)]) == 2
        lines = (out / "report.txt").read_text().splitlines()
        assert lines[1].startswith("s71") and "FAILED" not in lines[1]
        assert lines[2].startswith("far") and "FAILED: EKF diverged" in lines[2]

    @pytest.mark.parametrize("name", ["s72", "s73"])
    def test_overflowing_observer_raises_divergence(self, name):
        # the clamp keeps the truth finite while delta*s2 overflows the
        # unclamped v_r that drives z; s72 runs the truth-fed loop, s73 the
        # EKF-fed one
        sc = short_tsmc(name, delta=1e300)
        with pytest.raises(DivergenceError) as exc:
            run_scenario(sc)
        # z overflows in the update of step 1, so the run ends at t = dt
        assert str(exc.value) == f"observer diverged at t={sc.dt:.4f} (z reached inf)"
        trace = exc.value.trace
        assert trace.n_samples > 0
        # the partial trace's t column is formed from its row count
        t = np.arange(0, trace.n_samples * sc.decimation, sc.decimation) * sc.dt
        assert trace.column("t").tobytes() == t.tobytes()
