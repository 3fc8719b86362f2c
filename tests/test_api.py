"""The package's top-level API: exactly the names README's Library use documents."""

from __future__ import annotations

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import presto

README = Path(__file__).resolve().parents[1] / "README.md"

EXPORTED = {
    "load_scenario", "load_compare_entries", "load_pso_job", "run_scenario",
    "compare_controllers", "export_trace", "pso_run", "galerkin_coefficients",
    "ConfigError", "Scenario", "Trace", "RunReport", "DivergenceError", "PsoResult",
    "ExponentPair", "BeamParams", "PlantParams", "DisturbanceSpec", "DisturbanceTerm",
    "ObserverGains", "TsmcGains", "SatBounds", "SmcGains", "EkfConfig", "PsoConfig",
}

# names the package no longer re-exports, by the module that defines them
MODULE_ONLY = {
    "mathcore": ("sgn", "signed_pow", "prescribed_time_bound", "check_exponent_pair",
                 "l2_norm", "linf_norm", "settling_time"),
    "plant": ("plant_derivative", "disturbance_value"),
    "observer": ("ObserverState", "observer_init", "disturbance_estimate", "observer_advance"),
    "controller": ("saturate", "sliding_stack_n2", "tsmc_control", "saturated_tsmc_control",
                   "smc_control"),
    "estimator": ("EkfState", "ekf_init", "ekf_predict", "ekf_update"),
}

SUBMODULES = ["config", "controller", "estimator", "harness", "mathcore", "observer", "plant",
              "tuner"]


def _library_use() -> str:
    text = README.read_text()
    return text[text.index("## Library use"):]


def test_all_is_the_documented_api():
    assert len(presto.__all__) == len(EXPORTED) == 25
    assert set(presto.__all__) == EXPORTED
    for name in presto.__all__:
        assert getattr(presto, name) is not None, name


def test_readme_lists_every_export():
    section = _library_use()
    missing = [name for name in EXPORTED if f"`{name}`" not in section]
    assert not missing


def test_readme_imports_resolve():
    lines = re.findall(r"^from presto import (.+)$", README.read_text(), re.M)
    assert lines
    for line in lines:
        for name in (n.strip() for n in line.split(",")):
            assert name in presto.__all__, name


def test_dropped_names_import_from_their_modules():
    dropped = [name for names in MODULE_ONLY.values() for name in names]
    assert len(dropped) == 22
    for module, names in MODULE_ONLY.items():
        mod = importlib.import_module(f"presto.{module}")
        for name in names:
            assert callable(getattr(mod, name)), (module, name)
            assert name not in vars(presto), name


def test_import_loads_the_eight_submodules():
    # a fresh interpreter, so the other tests' imports do not count
    code = "import sys, presto; print(*sorted(m for m in sys.modules if m.startswith('presto.')))"
    env = {**os.environ, "PYTHONPATH": str(Path(presto.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.split() == [f"presto.{m}" for m in SUBMODULES]
