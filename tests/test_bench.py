"""The benchmark's hooks into the program must keep fitting it.

`bench/run.py --trace 1` wraps each `(module, attribute)` of its TRACED
list where the caller looks it up.  The list is read out of the script's
source, without importing the script, so a refactor that moves or renames
one of those functions fails here instead of in a traced benchmark run.
The benchmark also counts work by replacing `harness.run_scenario` with a
wrapper that takes exactly one positional scenario, and
`cli.fitness_settling_time` with one that takes exactly `(x, template)`.
That wrapper reads attributes of the `DivergenceError` a divergent run
raises; their names are read out of the source the same way.
"""

import ast
import contextlib
import importlib
import io
import math
from dataclasses import replace
from pathlib import Path

import pytest

import presto.cli as cli
import presto.harness as harness
from presto.config import load_pso_job, load_scenario
from presto.controller import SatBounds
from presto.harness import Scenario
from presto.plant import PlantParams
from presto.tuner import TuneTemplate, fitness_settling_time

RUN_PY = Path(__file__).resolve().parent.parent / "bench" / "run.py"


def traced_entries() -> list[tuple[str, str, str]]:
    tree = ast.parse(RUN_PY.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED list in {RUN_PY}")


def divergence_attributes() -> set[str]:
    """The `err.<attr>` names that `Counters.install` reads."""
    tree = ast.parse(RUN_PY.read_text())
    counters = next(node for node in tree.body
                    if isinstance(node, ast.ClassDef) and node.name == "Counters")
    install = next(node for node in counters.body
                   if isinstance(node, ast.FunctionDef) and node.name == "install")
    return {node.attr for node in ast.walk(install) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "err"}


def test_divergence_attributes_resolve():
    names = divergence_attributes()
    assert names
    # an unstable spring under a clamp far too weak to hold it
    base = load_scenario("s72")
    bad = replace(base, plant=PlantParams(K1=-50.0, K2=-19.97, g=-1.09),
                  tsmc=replace(base.tsmc, sat=SatBounds(-0.1, 0.1)), horizon=4.0)
    with pytest.raises(harness.DivergenceError) as exc:
        harness.run_scenario(bad)
    for name in names:
        assert hasattr(exc.value, name), f"DivergenceError has no attribute {name!r}"


def test_traced_names_resolve():
    entries = traced_entries()
    assert entries
    for layer, module, attribute in entries:
        target = getattr(importlib.import_module(module), attribute, None)
        assert callable(target), f"{layer}: {module}.{attribute} does not resolve"


def test_fitness_runs_one_scenario_through_a_one_argument_wrapper(monkeypatch):
    run_scenario = harness.run_scenario
    seen = []

    def counted_run(sc):  # the signature of the benchmark's counting wrapper
        seen.append(sc)
        return run_scenario(sc)

    monkeypatch.setattr(harness, "run_scenario", counted_run)
    _, template = load_pso_job("tune_s71")
    unsettled = TuneTemplate(scenario=replace(template.scenario, horizon=0.05),
                             names=template.names)
    for calls, tpl in enumerate((template, unsettled, template), start=1):
        fitness_settling_time([4.0, 7.0, 10.0], tpl)
        assert len(seen) == calls
        assert isinstance(seen[-1], Scenario) and seen[-1].settle_by is not None


def test_tune_calls_fitness_through_a_two_argument_wrapper(monkeypatch, tmp_path):
    fitness = cli.fitness_settling_time
    cutoffs = []

    def counted_fitness(x, template, /):  # the signature of the benchmark's wrapper
        cutoffs.append(template.cutoff)
        return fitness(x, template)

    monkeypatch.setattr(cli, "fitness_settling_time", counted_fitness)
    cfg, _ = load_pso_job("tune_s71")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["tune", "tune_s71", "--out", str(tmp_path)]) == 0
    assert len(cutoffs) == cfg.swarm_size * cfg.max_generations
    # the personal-best bound reaches the fitness from the second generation on
    assert all(c == math.inf for c in cutoffs[: cfg.swarm_size])
    assert any(math.isfinite(c) for c in cutoffs[cfg.swarm_size:])
