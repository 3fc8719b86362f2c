import time
from dataclasses import replace

import pytest
from hypothesis import settings

from presto import load_scenario, run_scenario
from reference import reference_run

# every property test draws the same examples on every run, with no example
# database and no per-example deadline; a test sets only its max_examples
settings.register_profile("presto", derandomize=True, database=None, deadline=None)
settings.load_profile("presto")


def edit_config(text: str, *edits: tuple[str, str]) -> str:
    """`text` with each (old, new) edit applied in turn.

    Each `old` must occur exactly once, so an edit whose needle a config
    change removed fails here, by name, instead of silently doing nothing.
    """
    for old, new in edits:
        n = text.count(old)
        assert n == 1, f"{old!r} occurs {n} times in the config, not once"
        text = text.replace(old, new)
    return text


@pytest.fixture(scope="session")
def bundled_runs():
    """Run each bundled scenario once and share (scenario, trace, report, seconds)."""
    out = {}
    for name in ("s71", "s72", "s73", "s74"):
        sc = load_scenario(name)
        t0 = time.perf_counter()
        trace, report = run_scenario(sc)
        out[name] = (sc, trace, report, time.perf_counter() - t0)
    return out


@pytest.fixture(scope="session")
def ideal_s71():
    """s71 over 3.0 s at decimation 1 with the true disturbance in place of
    the observer's estimate, through `reference_run(..., perfect_observer=True)`;
    shared as (scenario, trace)."""
    sc = replace(load_scenario("s71"), horizon=3.0, decimation=1)
    trace, _ = reference_run(sc, perfect_observer=True)
    return sc, trace
