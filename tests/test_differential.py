"""The fused loops of `run_scenario` against the reference on generated scenarios.

Each example starts from a bundled scenario and draws the parts a loop
reads: the start x0, free or on or near the law's surface (for s74 the
surface s = x2 + Y*x1; for the observer kinds s2 with the drawn
`z0_offset`, and for s73 the filter's starting estimate moved onto it too),
1-3000 steps, decimation 1-13, the disturbance terms, the observer and law
gains each scaled by 0.01-100, and for s73 the seed and an [ekf] Ts of 1-80
steps.  The observer kinds may also draw a `settle_by` bound.

A run without `settle_by` must match `reference.reference_run` bit for bit:
every column's bytes, the report (the reference makes the beta0 note
itself, so diagnostics compare with the rest), or the divergence's message,
step time and partial trace.  A `settle_by` run that diverges must do the
same; one that stops must log a prefix of the reference's full trace, and
report its `t_s`, or None when that `t_s` is None or not below the bound.
"""

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from presto import load_scenario, run_scenario
from presto.mathcore import signed_pow
from presto.plant import DisturbanceSpec, DisturbanceTerm
from reference import reference_run
from test_kernels import outcome

NAMES = ("s71", "s72", "s73", "s74")
BUNDLED = {name: load_scenario(name) for name in NAMES}

FACTOR = st.floats(-2.0, 2.0).map(lambda e: 10.0**e)
TERMS = st.lists(st.builds(DisturbanceTerm, st.floats(-10.0, 10.0),
                           st.sampled_from(["sin_linear", "sin_sqrt"]), st.floats(-2.0, 2.0)),
                 max_size=3)


def scaled(draw, gains, *names):
    """`gains` with each named field multiplied by a drawn FACTOR."""
    return replace(gains, **{name: getattr(gains, name) * draw(FACTOR) for name in names})


@st.composite
def scenarios(draw, name):
    sc = BUNDLED[name]
    steps = draw(st.integers(1, 3000))
    # a quarter step over: horizon must exceed dt, and n_steps rounds it off
    horizon = (steps + 0.25) * sc.dt
    changes = {"horizon": horizon, "decimation": draw(st.integers(1, 13)),
               "disturbance": DisturbanceSpec(terms=tuple(draw(TERMS)))}
    if name == "s74":
        smc = changes["smc"] = scaled(draw, sc.smc, "Y", "Kg")

        def surface(x1):
            return -smc.Y * x1
    else:
        changes["observer"] = scaled(draw, sc.observer, "k", "beta0", "eps")
        laws = ("alpha1", "beta1", "delta", "mu") + (("tau",) if sc.tsmc.tau else ())
        tsmc = changes["tsmc"] = scaled(draw, sc.tsmc, *laws)
        z0 = changes["z0_offset"] = draw(st.just(0.0) | st.floats(-2.0, 2.0))
        if draw(st.booleans()):
            changes["settle_by"] = draw(st.just(math.inf) | st.floats(-0.1, 2.0 * horizon))

        def surface(x1):
            return -(tsmc.alpha1 * x1 + tsmc.beta1 * signed_pow(x1, tsmc.e1)) - z0
    x1 = draw(st.floats(-5.0, 5.0))
    start = draw(st.sampled_from(["free", "on", "near"]))
    if start == "free":
        x2 = draw(st.floats(-20.0, 20.0))
    else:
        x2 = surface(x1) + (0.0 if start == "on" else draw(st.floats(-1e-3, 1e-3)))
    if name == "s73":
        changes["seed"] = draw(st.integers(0, 2**32 - 1))
        ekf = replace(sc.ekf, Ts=draw(st.integers(1, 80)) * sc.dt)
        if start != "free":
            ekf = replace(ekf, x0_hat=(x1, x2, ekf.x0_hat[2]))
        changes["ekf"] = ekf
    return replace(sc, x0=(x1, x2), **changes)


@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=45)
@given(data=st.data())
def test_fused_loop_matches_reference(name, data):
    sc = data.draw(scenarios(name), label="scenario")
    trace, report, failure = outcome(run_scenario, sc)
    ref_trace, ref_report, ref_failure = outcome(reference_run, replace(sc, settle_by=None))
    assert list(trace.columns) == list(ref_trace.columns)
    n = trace.n_samples
    assert n <= ref_trace.n_samples
    for col_name, col in ref_trace.columns.items():
        # sign of zero included
        assert trace.columns[col_name].tobytes() == col[:n].tobytes(), col_name
    if sc.settle_by is None or failure is not None:
        assert failure == ref_failure
        assert n == ref_trace.n_samples
        assert report == ref_report
    elif ref_report is not None:  # the full run did not diverge
        if ref_report.t_s is not None and ref_report.t_s < sc.settle_by:
            assert report.t_s == ref_report.t_s
        else:
            assert report.t_s in (None, ref_report.t_s)
