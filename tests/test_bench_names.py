"""Every function the benchmark tracer wraps by name exists in its module.

``bench/tracer.py`` looks each traced name up with ``getattr`` when a
traced run starts, so a deleted or renamed function would fail only there.
The file is parsed, not imported, so this test leaves ``bench/`` as it is.
"""

import ast
import importlib
from pathlib import Path

from groupcodes.control import WindowOracle

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def tracer_constant(name):
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} not assigned in {TRACER}")


def test_traced_functions_exist():
    traced = tracer_constant("TRACED")
    assert traced
    missing = [
        f"{module}.{fname}"
        for module, names in traced.items()
        for fname in names
        if not callable(getattr(importlib.import_module(f"groupcodes.{module}"), fname, None))
    ]
    assert missing == []


def test_traced_oracle_queries_exist():
    missing = [q for q in tracer_constant("ORACLE_QUERIES") if q not in vars(WindowOracle)]
    assert missing == []
