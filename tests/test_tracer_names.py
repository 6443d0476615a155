"""Every function perfbench/tracer.py wraps must still exist in its legdet
module: `perfbench/run.py --trace 1` looks each one up with getattr.  The
tracer is parsed, not imported, so this test runs nothing from perfbench/.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _traced_functions() -> dict:
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED_FUNCTIONS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("TRACED_FUNCTIONS not found in perfbench/tracer.py")


def test_traced_functions_resolve():
    traced = _traced_functions()
    assert traced
    missing = [
        f"{module}.{name}"
        for module, names in traced.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"legdet.{module}"), name, None))
    ]
    assert missing == []
