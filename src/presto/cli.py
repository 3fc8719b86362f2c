"""Command-line front end.

    presto simulate <config> [--out DIR]   run one scenario, write trace + report
    presto compare <config>... [--out DIR] run several, write the comparison table
    presto tune <config> [--out DIR]       swarm-tune gains declared in [pso]
    presto coeffs <config>                 print plant coefficients for [beam]
    presto validate <config>               check a scenario, [compare], [pso]
                                           or [beam] config and its gain gates

Exit codes: 0 success, 1 configuration or validation failure, 2 runtime
divergence.  Bare names like 's71' resolve to the bundled configs.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import config as cfgmod
from . import harness
from .plant import galerkin_coefficients
from .tuner import fitness_settling_time, pso_run

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DIVERGED = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="presto",
        description="closed-loop sliding-mode control simulation toolkit",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("simulate", help="run one scenario")
    p.add_argument("config")
    p.add_argument("--out", default=".", help="output directory (default: .)")

    p = sub.add_parser("compare", help="run several scenarios and tabulate them")
    p.add_argument("configs", nargs="+")
    p.add_argument("--out", default=".", help="output directory (default: .)")

    p = sub.add_parser("tune", help="particle-swarm tune gains from a [pso] job")
    p.add_argument("config")
    p.add_argument("--out", default=".", help="output directory (default: .)")

    p = sub.add_parser("coeffs", help="print reduced-plant coefficients for [beam]")
    p.add_argument("config")

    p = sub.add_parser("validate", help="validate a config without running it")
    p.add_argument("config")
    return parser


def _cmd_simulate(args) -> int:
    sc = cfgmod.load_scenario(args.config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        trace, report = harness.run_scenario(sc)
    except harness.DivergenceError as err:
        partial = out / f"{sc.label}_partial.csv"
        harness.export_trace(err.trace, partial)
        print(f"error: {err} (partial trace: {partial})", file=sys.stderr)
        return EXIT_DIVERGED
    trace_path = out / f"{sc.label}.csv"
    harness.export_trace(trace, trace_path)
    report.trace_path = trace_path.name
    text = harness.format_report_table([report])
    (out / f"{sc.label}_report.txt").write_text(text, newline="\n")
    (out / f"{sc.label}_report.csv").write_text(
        harness.report_csv_rows([report]), newline="\n"
    )
    print(text, end="")
    for note in report.diagnostics:
        print(f"note: {note}", file=sys.stderr)
    return EXIT_OK


def _cmd_compare(args) -> int:
    scenarios = cfgmod.load_compare_entries(args.configs)
    reports, text = harness.compare_controllers(scenarios, out_dir=args.out)
    print(text, end="")
    for r in reports:
        for note in r.diagnostics:
            print(f"note [{r.label}]: {note}", file=sys.stderr)
    if any(r.failed is not None for r in reports):
        return EXIT_DIVERGED
    return EXIT_OK


def _cmd_tune(args) -> int:
    pso_cfg, template = cfgmod.load_pso_job(args.config)
    # the bound rides in the template, so fitness_settling_time keeps the
    # (x, template) call shape that wrappers of it, such as the
    # benchmark's counting one, rely on
    result = pso_run(lambda x, bound: fitness_settling_time(x, replace(template, cutoff=bound)),
                     pso_cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stem = Path(str(args.config)).stem
    lines = ["gain,value"]
    for name, value in zip(template.names, result.best_x):
        lines.append(f"{name},{value:.12e}")
    lines.append(f"best_cost,{result.best_cost:.12e}")
    (out / f"{stem}_best.csv").write_text("\n".join(lines) + "\n", newline="\n")
    hist = ["generation,best_cost"]
    hist += [f"{i + 1},{c:.12e}" for i, c in enumerate(result.history)]
    (out / f"{stem}_history.csv").write_text("\n".join(hist) + "\n", newline="\n")
    print(f"best cost {result.best_cost:.6g} at " + ", ".join(
        f"{n}={v:.6g}" for n, v in zip(template.names, result.best_x)
    ))
    return EXIT_OK


def _cmd_coeffs(args) -> int:
    bp = cfgmod.load_beam_params(args.config)
    pp = galerkin_coefficients(bp)
    print(f"alpha={bp.alpha:g} beta={bp.beta:g} lambda={bp.lam:g}")
    print(f"  K1={pp.K1:.10g}  K2={pp.K2:.10g}  g={pp.g:.10g}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    path = cfgmod.resolve_config_path(args.config)
    if cfgmod.is_beam_file(path):  # the input of `presto coeffs`
        cfgmod.load_beam_params(path)
        print(f"{path}: OK (beam)")
        return EXIT_OK
    scenarios = cfgmod.load_compare_entries([path])
    for sc in scenarios:
        bound = sc.disturbance.bound
        if sc.observer is not None and bound > sc.observer.beta0:
            print(
                f"warning [{sc.label}]: disturbance amplitude bound {bound:g} exceeds "
                f"observer beta0={sc.observer.beta0:g}",
                file=sys.stderr,
            )
        # the baseline's switching gain is designed for a K1 inside its interval
        if sc.smc is not None and not (sc.smc.K1_min <= sc.plant.K1 <= sc.smc.K1_max):
            print(
                f"warning [{sc.label}]: plant K1={sc.plant.K1:g} lies outside [smc] "
                f"K1_min..K1_max = [{sc.smc.K1_min:g}, {sc.smc.K1_max:g}]",
                file=sys.stderr,
            )
    print(f"{path}: OK ({', '.join(sc.kind for sc in scenarios)})")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_CONFIG
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_CONFIG
    handler = {
        "simulate": _cmd_simulate,
        "compare": _cmd_compare,
        "tune": _cmd_tune,
        "coeffs": _cmd_coeffs,
        "validate": _cmd_validate,
    }[args.command]
    try:
        return handler(args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
