"""Every function the benchmark tracer wraps by name exists in its module.

``bench/tracer.py`` looks each traced name up with ``getattr`` when a
traced run starts, so a deleted or renamed function would fail only there.
The file is parsed, not imported, so this test leaves ``bench/`` as it is.
"""

import ast
import functools
import importlib
import inspect
from pathlib import Path

from groupcodes import control
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


def test_oracle_entry_points_stay_plain_and_memos_stay_on_the_instance():
    # The tracer wraps these entries of vars(WindowOracle) in place; a
    # cached_property or cache wrapper there would break traced runs.
    members = vars(WindowOracle)
    entries = ("__init__",) + tracer_constant("ORACLE_QUERIES")
    assert [name for name in entries if not inspect.isfunction(members[name])] == []
    # No cache decorator on any member and no container shared by every instance,
    # at class or at module level.
    cached = [
        name
        for name, value in members.items()
        if hasattr(getattr(value, "__func__", value), "cache_info") or isinstance(value, functools.cached_property)
    ]
    assert cached == []
    assert [name for name, value in members.items() if isinstance(value, (dict, list, set))] == []
    tree = ast.parse(inspect.getsource(WindowOracle))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert [name for name in sorted(read) if isinstance(getattr(control, name, None), (dict, list, set))] == []
