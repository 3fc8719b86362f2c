"""The benchmark's per-layer tracer must find every function it wraps.

`bench/run.py --trace 1` wraps each `(module, attribute)` of its TRACED
list where the caller looks it up.  The list is read out of the script's
source, without importing the script, so a refactor that moves or renames
one of those functions fails here instead of in a traced benchmark run.
"""

import ast
import importlib
from pathlib import Path

RUN_PY = Path(__file__).resolve().parent.parent / "bench" / "run.py"


def traced_entries() -> list[tuple[str, str, str]]:
    tree = ast.parse(RUN_PY.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED list in {RUN_PY}")


def test_traced_names_resolve():
    entries = traced_entries()
    assert entries
    for layer, module, attribute in entries:
        target = getattr(importlib.import_module(module), attribute, None)
        assert callable(target), f"{layer}: {module}.{attribute} does not resolve"
