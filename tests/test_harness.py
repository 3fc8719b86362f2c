import math
import re
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from presto import harness, load_scenario, run_scenario
from presto.config import load_beam_params, load_pso_job
from presto.controller import SatBounds
from presto.harness import (
    DivergenceError,
    RunReport,
    Scenario,
    compare_controllers,
    export_trace,
    format_report_table,
)
from presto.mathcore import SETTLING_HOLD, Trace, l2_norm, linf_norm
from presto.observer import ObserverState, z_derivative
from presto.plant import DisturbanceSpec, PlantParams, galerkin_coefficients


def load_csv(path) -> Trace:
    """A trace CSV read back: header names, then one column per name."""
    with open(path) as fh:
        names = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return Trace(dt=float(data[1, 0] - data[0, 0]),
                 columns={name: data[:, j] for j, name in enumerate(names)})


def zero_scenario():
    base = load_scenario("s71")
    return replace(
        base,
        x0=(0.0, 0.0),
        disturbance=DisturbanceSpec(),
        horizon=0.7,
        decimation=1,
    )


class TestRunScenario:
    def test_equilibrium_stays_at_rest(self):
        trace, report = run_scenario(zero_scenario())
        for name in ("x1", "x2", "u", "d_hat", "s", "s2"):
            assert linf_norm(trace, name) == 0.0, name
        assert report.t_s == 0.0

    def test_expected_columns(self, bundled_runs):
        _, trace, _, _ = bundled_runs["s71"]
        assert set(trace.columns) >= {"t", "x1", "x2", "u", "d", "d_hat", "s", "s2"}
        _, trace72, _, _ = bundled_runs["s72"]
        assert set(trace72.columns) >= {"v_r", "u_c"}
        _, trace73, _, _ = bundled_runs["s73"]
        assert set(trace73.columns) >= {"x1_hat", "x2_hat", "K1_hat", "e_x", "innov", "P_trace"}
        _, trace74, _, _ = bundled_runs["s74"]
        assert set(trace74.columns) >= {"s", "u_eq", "u_c"}

    def test_observer_wiring_identity(self, bundled_runs):
        # d_hat - (zdot - g(x)u) must reproduce -f(x) at every logged sample
        sc, trace, _, _ = bundled_runs["s71"]
        s = trace.column("s")
        x1 = trace.column("x1")
        u = trace.column("u")
        d_hat = trace.column("d_hat")
        for i in range(0, trace.n_samples, 97):
            fx = -sc.plant.K1 * x1[i] - sc.plant.K2 * x1[i] ** 3
            st = ObserverState(z=0.0, s=float(s[i]))
            forcing = -sc.plant.g * u[i]
            zdot = z_derivative(st, fx, forcing, sc.observer)
            assert d_hat[i] - (zdot - forcing) == pytest.approx(-fx, rel=1e-9, abs=1e-9)

    def test_report_matches_exported_csv(self, bundled_runs, tmp_path):
        _, trace, report, _ = bundled_runs["s72"]
        path = tmp_path / "s72.csv"
        export_trace(trace, path)
        back = load_csv(path)
        assert l2_norm(back, "u") == pytest.approx(report.u_l2, rel=1e-10)
        assert linf_norm(back, "u") == pytest.approx(report.u_linf, rel=1e-10)
        assert l2_norm(back, "x1") == pytest.approx(report.ey_l2, rel=1e-10)
        assert linf_norm(back, "x1") == pytest.approx(report.ey_linf, rel=1e-10)
        assert l2_norm(back, "u_c") == pytest.approx(report.uc_l2, rel=1e-10)

    def test_step_halving_stability(self):
        # validates the default integration step at the default band
        base = load_scenario("s71")
        coarse = replace(base, threshold_fraction=0.02)
        fine = replace(base, threshold_fraction=0.02, dt=5e-5, decimation=20)
        _, rc = run_scenario(coarse)
        _, rf = run_scenario(fine)
        assert rc.t_s is not None and rf.t_s is not None
        assert abs(rf.t_s - rc.t_s) / rc.t_s < 0.02
        assert abs(rf.ey_linf - rc.ey_linf) / rc.ey_linf < 0.01

    def test_tighter_clamp_never_settles_faster(self, bundled_runs):
        sc, _, base_report, _ = bundled_runs["s72"]
        tight = replace(sc, tsmc=replace(sc.tsmc, sat=SatBounds(-30.0, 5.0)))
        _, tight_report = run_scenario(tight)
        base_ts = base_report.t_s if base_report.t_s is not None else math.inf
        tight_ts = tight_report.t_s if tight_report.t_s is not None else math.inf
        assert tight_ts >= base_ts

    def test_divergence_raises_with_partial_trace(self):
        # unstable spring under a clamp far too weak to hold it
        base = load_scenario("s72")
        bad = replace(
            base,
            plant=PlantParams(K1=-50.0, K2=-19.97, g=-1.09),
            tsmc=replace(base.tsmc, sat=SatBounds(-0.1, 0.1)),
            horizon=4.0,
        )
        # the baseline on the reduced beam, whose K1 = 90.85 lies outside its
        # [smc] interval: it leaves the limit at t = 9.3154 by about 100, so
        # a rounded |x| would print the limit itself
        beam = replace(load_scenario("s74"),
                       plant=galerkin_coefficients(load_beam_params("beam")))
        for sc in (bad, beam):
            with pytest.raises(DivergenceError) as exc:
                run_scenario(sc)
            err = exc.value
            assert err.trace.n_samples > 0
            reached = re.search(r"\|x\| reached (\S+)\)", str(err)).group(1)
            assert float(reached) > harness.DIVERGENCE_LIMIT, str(err)

    def test_disturbance_bound_violation_is_diagnosed(self):
        from presto.plant import DisturbanceTerm

        base = load_scenario("s71")
        loud = DisturbanceSpec(terms=(DisturbanceTerm(10.0, "sin_linear", 0.4),))
        sc = replace(base, disturbance=loud, horizon=1.0)
        # the report carries the diagnostic; the CLI prints it, so no warning
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            _, report = run_scenario(sc)
        assert not caught, [str(w.message) for w in caught]
        assert report.diagnostics == [
            "disturbance magnitude reached 9.51, exceeding the observer bound beta0=7"]

    @pytest.mark.parametrize("terms,horizon", [
        ([(8.0, "sin_linear", 0.1)], 1.0),
        ([(5.0, "sin_linear", 0.1), (4.0, "sin_sqrt", 0.2)], 8.0),
    ])
    def test_bound_above_beta0_but_quiet_signal_gets_no_note(self, terms, horizon):
        # the amplitude bound exceeds beta0 = 7, the realized |d| stays below it
        from presto.plant import DisturbanceTerm

        spec = DisturbanceSpec(terms=tuple(DisturbanceTerm(*t) for t in terms))
        sc = replace(load_scenario("s71"), disturbance=spec, horizon=horizon)
        assert spec.bound > sc.observer.beta0
        _, report = run_scenario(sc)
        assert report.diagnostics == []

    def test_compliant_disturbance_stays_quiet(self, bundled_runs):
        _, _, report, _ = bundled_runs["s71"]
        assert report.diagnostics == []


class TestScenarioValidation:
    def test_kind_checked(self):
        base = load_scenario("s71")
        with pytest.raises(ValueError, match="kind"):
            replace(base, kind="pid")

    @pytest.mark.parametrize("label", ["base\nline", "a\tb", "a\rb", "nul\x00", "\x85"])
    def test_label_must_be_printable(self, label):
        # a label names the run's trace file and its report row, so a line
        # break would split one row of report.csv over two lines
        with pytest.raises(ValueError, match=re.escape(f"[scenario] label: {label!r} names output "
                                                       "files, so it must be printable")):
            replace(load_scenario("s71"), label=label)

    def test_adaptive_requires_aligned_sample_time(self):
        base = load_scenario("s73")
        with pytest.raises(ValueError, match="multiple"):
            replace(base, ekf=replace(base.ekf, Ts=2.5e-4))

    def test_smc_needs_nominal(self):
        # the nominal K1 is a required field of SmcGains, and must be finite
        base = load_scenario("s74")
        message = "[smc] K1_nominal: must be finite, got nan"
        with pytest.raises(ValueError, match=re.escape(message)):
            replace(base, smc=replace(base.smc, K1_nominal=math.nan))

    @pytest.mark.parametrize("name,changes,message", [
        ("s74", dict(smc=None), "kind smc_baseline needs [smc] gains"),
        ("s71", dict(tsmc=None), "kind tsmc needs [controller] gains"),
        ("s72", dict(observer=None), "kind tsmc_saturated needs [observer] gains"),
        ("s73", dict(ekf=None), "kind adaptive_tsmc_saturated needs [ekf] gains"),
        ("s73", dict(ekf=replace(load_scenario("s73").ekf, Ts=0.0)),
         "[ekf] Ts: the adaptive kind needs Ts > 0, got 0.0"),
    ], ids=["smc", "tsmc", "observer", "ekf", "ekf-Ts"])
    def test_library_only_sections_required(self, name, changes, message):
        # the config loader always builds these sections for the kind, so
        # only a library caller can leave one out
        with pytest.raises(ValueError, match=re.escape(message)):
            replace(load_scenario(name), **changes)

    @pytest.mark.parametrize(
        "changes", [dict(tau=3.7), dict(sat=SatBounds(-1.0, 1.0))], ids=["tau", "sat"]
    )
    def test_clamp_only_in_saturated_kinds(self, changes):
        # the plain law neither regularizes nor clamps, so a configured
        # clamp must not be accepted, and then ignored, on kind tsmc
        base = load_scenario("s71")
        with pytest.raises(ValueError, match=f"tsmc.{next(iter(changes))}"):
            replace(base, tsmc=replace(base.tsmc, **changes))

    @pytest.mark.parametrize(
        "name,field",
        [
            ("s74", "observer"),
            ("s74", "tsmc"),
            ("s74", "z0_offset"),
            ("s74", "ekf"),
            ("s71", "smc"),
            ("s72", "smc"),
            ("s73", "smc"),
            ("s71", "ekf"),
            ("s72", "ekf"),
            ("s71", "seed"),
            ("s72", "seed"),
            ("s74", "seed"),
        ],
    )
    def test_fields_the_kind_never_reads(self, name, field):
        # the config loader cannot set these, but a library caller could,
        # and the kind's loop would then ignore them without a word
        values = {"z0_offset": 1.0, "seed": 7, "smc": load_scenario("s74").smc}
        s73 = load_scenario("s73")
        value = values[field] if field in values else getattr(s73, field)
        with pytest.raises(ValueError, match=f"does not use {field}"):
            replace(load_scenario(name), **{field: value})


class TestCompare:
    def test_failed_row_does_not_poison_others(self, tmp_path):
        good = replace(load_scenario("s71"), horizon=1.0, label="good")
        sat_base = load_scenario("s72")
        bad = replace(
            sat_base,
            plant=PlantParams(K1=-50.0, K2=-19.97, g=-1.09),
            tsmc=replace(sat_base.tsmc, sat=SatBounds(-0.1, 0.1)),
            horizon=4.0,
            label="bad",
        )
        reports, text = compare_controllers([good, bad], out_dir=tmp_path)
        assert reports[0].failed is None
        assert reports[1].failed is not None
        assert "FAILED" in text
        assert (tmp_path / "good.csv").exists()
        assert (tmp_path / "bad.csv").exists()  # partial trace still exported

    @pytest.mark.parametrize("labels,message", [
        (("a", "a"), "two scenarios share the label 'a'"),
        (("report", "b"), "label 'report': its trace would overwrite report.csv"),
    ], ids=["shared", "report"])
    def test_clashing_labels_write_nothing(self, tmp_path, labels, message):
        # a shared label would leave one trace file for two rows, and a trace
        # named report.csv would be overwritten by the table
        short = [replace(load_scenario(name), horizon=0.1, label=label)
                 for name, label in zip(("s71", "s72"), labels)]
        out = tmp_path / "out"
        with pytest.raises(ValueError, match=re.escape(message)):
            compare_controllers(short, out_dir=out)
        assert not out.exists()


class TestReportTable:
    def test_a_norm_too_wide_for_its_column_is_written_in_e_form(self):
        # s72 with beta0 = 1e308 reaches ||u_c||inf = 2.2e307, whose .4f
        # form runs to 313 characters
        wide = RunReport(label="wide", kind="tsmc_saturated", u_l2=954.2323, uc_l2=math.inf,
                         uc_linf=2.2299e307, ex_l2=12345678.0, ex_linf=1234567.0)
        header, row = format_report_table([wide]).splitlines()
        assert row.split() == ["wide", "954.2323", "0.0000", "0.0000", "0.0000",
                               "1.2346e+07", "1.2346e+06", "inf", "2.2299e+307",
                               "not", "settled", "-"]
        # every value ends where its header name ends
        for name in ("||u||2", "||e_x||2", "||e_x||inf", "||u_c||inf", "t_s"):
            end = header.index(name) + len(name)
            assert row[end - 1] != " " and row[end:end + 1] in (" ", ""), name
        # the widest value that fits keeps its fixed-point form
        narrow = replace(wide, ex_l2=123456.0, ex_linf=None, uc_l2=None, uc_linf=None)
        assert "123456.0000" in format_report_table([narrow])


class TestTraceFiles:
    def test_round_trip_precision(self, tmp_path):
        rng = np.random.default_rng(61)
        tr = Trace(
            dt=1e-3,
            columns={
                "t": np.arange(50) * 1e-3,
                "x1": rng.normal(scale=123.0, size=50),
                "x2": rng.normal(scale=1e-6, size=50),
            },
        )
        path = tmp_path / "trip.csv"
        export_trace(tr, path)
        back = load_csv(path)
        for name in ("t", "x1", "x2"):
            a, b = tr.column(name), back.column(name)
            assert np.all(np.abs(a - b) <= 1e-10 * np.maximum(np.abs(a), 1e-300))

    def test_header_only_for_empty_trace(self, tmp_path):
        path = tmp_path / "empty.csv"
        export_trace(Trace(dt=1.0, columns={}), path)
        assert path.read_text() == "\n"

    def test_time_column_leads(self, tmp_path):
        tr = Trace(dt=0.5, columns={"x1": [1.0, 2.0], "t": [0.0, 0.5]})
        path = tmp_path / "order.csv"
        export_trace(tr, path)
        assert path.read_text().splitlines()[0].startswith("t,")
        assert load_csv(path).dt == pytest.approx(0.5)


def oracle_export(tr: Trace, path) -> None:
    """The row-by-row `%.12e` writer that `export_trace` must match byte for byte."""
    names = list(tr.columns)
    if "t" in names:
        names.remove("t")
        names.insert(0, "t")
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(names) + "\n")
        if not tr.columns:
            return
        fmt = ",".join(["%.12e"] * len(names)) + "\n"
        fh.writelines(fmt % row for row in zip(*(tr.columns[name] for name in names)))


def assert_oracle_bytes(directory, tr: Trace) -> None:
    export_trace(tr, directory / "kernel.csv")
    oracle_export(tr, directory / "oracle.csv")
    assert (directory / "kernel.csv").read_bytes() == (directory / "oracle.csv").read_bytes()


def column_trace(*columns) -> Trace:
    return Trace(dt=1.0, columns={f"c{j}": np.asarray(c, dtype=float) for j, c in enumerate(columns)})


def near_ties() -> list[float]:
    """Doubles next to the halfway points of 13-digit rounding, and at range edges."""
    rng = np.random.default_rng(71)
    centres = [float(f"{D}5e{E - 13}")  # the double nearest (D + 0.5) * 10**(E - 12)
               for D, E in zip(rng.integers(10**12, 10**13, 300), rng.integers(-99, 99, 300))]
    centres += [10000000000000.5, 9.9999999999995, 1e-99, 1e99]
    centres += [float(f"1e{k}") for k in range(-100, 100)]
    values = []
    for c in centres:
        values += [c, np.nextafter(c, math.inf), np.nextafter(c, -math.inf)]
    return values + [-v for v in values]


class TestTraceBytes:
    """`export_trace` writes exactly the bytes of the row-by-row `%` writer."""

    @settings(max_examples=300)
    @given(values=st.lists(st.floats(), min_size=1, max_size=40))
    def test_any_float_one_column(self, tmp_path_factory, values):
        assert_oracle_bytes(tmp_path_factory.mktemp("one"), column_trace(values))

    @settings(max_examples=200)
    @given(rows=st.integers(1, 7).flatmap(
        lambda k: st.lists(st.lists(st.floats(), min_size=k, max_size=k), min_size=1, max_size=20)))
    def test_any_float_many_columns(self, tmp_path_factory, rows):
        assert_oracle_bytes(tmp_path_factory.mktemp("many"), column_trace(*zip(*rows)))

    def test_random_bits_over_several_blocks(self, tmp_path):
        # 3 columns do not divide a block, so every block ends mid-file
        bits = np.random.default_rng(72).integers(0, 2**64, 15000, dtype=np.uint64)
        assert_oracle_bytes(tmp_path, column_trace(*bits.view(np.float64).reshape(3, -1)))

    def test_near_ties_and_range_edges(self, tmp_path):
        values = near_ties()
        assert_oracle_bytes(tmp_path, column_trace(values))
        assert_oracle_bytes(tmp_path, column_trace(values[::2], values[1::2]))

    def test_tie_margin_covers_both_roundings(self):
        # the value tests also pass margins too small to be sound, so hold the
        # margin to the bound: a scaled value below 1e13 moves by the table
        # entry's relative error times 1e13, and by half an ulp below 2**44,
        # 2**-10, when the product is rounded
        exponents = range(harness._E_MIN, harness._E_MAX + 1)
        assert len(harness._POW) == len(exponents)
        max_rel = max(abs(Fraction(power) / Fraction(10) ** (12 - e) - 1)
                      for e, power in zip(exponents, harness._POW.tolist()))
        assert max_rel <= Fraction(1, 2**53)  # each entry is the double nearest its power
        assert 10**13 * max_rel + Fraction(1, 2**10) < harness._TIE_MARGIN

    @pytest.mark.parametrize("name", ["s71", "s72", "s73", "s74"])
    def test_bundled_traces(self, bundled_runs, tmp_path, name):
        _, trace, _, _ = bundled_runs[name]
        assert_oracle_bytes(tmp_path, trace)

    def test_partial_trace_beyond_the_vector_range(self, tmp_path):
        # the partial trace of test_overflowing_observer_raises_divergence:
        # v_r and u_c near 1e301 take the `%` fallback
        sc = load_scenario("s72")
        sc = replace(sc, horizon=3000 * sc.dt, tsmc=replace(sc.tsmc, delta=1e300))
        with pytest.raises(DivergenceError) as exc:
            run_scenario(sc)
        trace = exc.value.trace
        assert np.all(np.abs(trace.column("v_r")) >= 1e99)
        assert_oracle_bytes(tmp_path, trace)


# scenarios that settle, each with the full run's t_s
SETTLING = {
    "s71": lambda: load_scenario("s71"),
    "s72": lambda: load_scenario("s72"),
    "tune_s71": lambda: load_pso_job("tune_s71")[1].scenario,
    # the bundled s73 never settles in its 2e-4 band; it does in a 5% band
    "s73_band_5pct": lambda: replace(load_scenario("s73"), threshold_fraction=0.05),
}


def assert_prefix(short, full):
    assert list(short.columns) == list(full.columns)
    for name, col in short.columns.items():
        assert np.array_equal(col, full.columns[name][: len(col)]), name


def stop_samples(sc, full, bound) -> int:
    """The samples a run with `settle_by=bound` logs, from the full run's trace:
    it ends at the sample that completes a hold window, or at the first one
    after which the earliest window start, `next_log * dt`, is at or past
    `bound`."""
    x1, x2 = full.column("x1"), full.column("x2")
    band = sc.threshold_fraction * max(abs(x1[0]), abs(x2[0]))
    inside = (np.abs(x1) <= band) & (np.abs(x2) <= band)
    window = int(round(SETTLING_HOLD / full.dt)) + 1
    start = 0  # the sample after the last one out of band
    for k in range(full.n_samples):
        if not inside[k]:
            start = k + 1
        if k + 1 - start >= window or start * sc.decimation * sc.dt >= bound:
            return k + 1
    return full.n_samples


@pytest.fixture(scope="module")
def settling_runs():
    """Each SETTLING scenario with its full run, as (scenario, trace, report)."""
    out = {}
    for name, make in SETTLING.items():
        sc = make()
        out[name] = (sc, *run_scenario(sc))
    return out


class TestStopWhenSettled:
    @pytest.mark.parametrize("name", sorted(SETTLING))
    def test_stops_at_first_window_with_the_same_t_s(self, settling_runs, name):
        sc, full, full_report = settling_runs[name]
        short, report = run_scenario(replace(sc, settle_by=math.inf))
        assert full_report.t_s is not None
        assert report.t_s == full_report.t_s
        assert_prefix(short, full)
        # the last simulated sample completes the first hold window
        first = int(np.flatnonzero(full.column("t") == full_report.t_s)[0])
        window = int(round(SETTLING_HOLD / full.dt)) + 1
        assert short.n_samples == first + window < full.n_samples

    def test_unsettled_run_covers_the_horizon(self, bundled_runs):
        sc, full, full_report, _ = bundled_runs["s73"]
        assert full_report.t_s is None
        short, report = run_scenario(replace(sc, settle_by=math.inf))
        assert report.t_s is None
        assert short.n_samples == full.n_samples
        assert_prefix(short, full)

    @pytest.mark.parametrize("bound", [0.0, -0.0, -1.0, -math.inf])
    def test_bound_at_or_below_zero_stops_at_the_first_sample(self, bound):
        # the earliest window start is 0.0 before the first step.  A start
        # at rest lies in its zero-width band until the disturbance moves
        # it, so the first sample opens a run of in-band samples
        sc = replace(load_scenario("s71"), x0=(0.0, 0.0), horizon=1.0)
        short, report = run_scenario(replace(sc, settle_by=bound))
        assert short.n_samples == 1 and report.t_s is None

    def test_rejected_on_smc_baseline(self):
        with pytest.raises(ValueError, match="settle_by"):
            replace(load_scenario("s74"), settle_by=math.inf)

    @settings(max_examples=30)
    @given(data=st.data())
    def test_any_bound_keeps_the_prefix_and_every_t_s_below_it(self, settling_runs, data):
        name = data.draw(st.sampled_from(sorted(SETTLING)), label="scenario")
        sc, full, full_report = settling_runs[name]
        # the stop rule ties at sample times, and at the samples around t_s
        # it decides between the full run's t_s and None
        times = full.column("t").tolist()
        k = times.index(full_report.t_s)
        ties = [times[k - 1], times[k], math.nextafter(times[k], math.inf), times[k + 1]]
        bound = data.draw(st.floats(-1.0, 2.0 * sc.horizon) | st.sampled_from(times)
                          | st.sampled_from(ties), label="settle_by")
        short, report = run_scenario(replace(sc, settle_by=bound))
        assert_prefix(short, full)
        assert short.n_samples == stop_samples(sc, full, bound)
        if full_report.t_s < bound:
            assert report.t_s == full_report.t_s
        if report.t_s is None:
            assert full_report.t_s >= bound
        else:
            assert report.t_s == full_report.t_s
            assert short.n_samples < full.n_samples
