"""Every name a package module imports is used there or re-exported, every
private module-level function is referenced elsewhere in the package, and
every public one is reached by the package, the benchmark or the acceptance
suite."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import groupcodes

MODULES = sorted(Path(groupcodes.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parents[1]
TREES = {path: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}


def _imported(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used_or_exported(path):
    tree = TREES[path]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(_imported(tree) - used - _exported(tree)) == []


def _used(top: ast.AST) -> set[str]:
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(top) if isinstance(n, (ast.Name, ast.Attribute))}


USED = [(top, _used(top)) for tree in TREES.values() for top in tree.body]


def _referenced(skip: ast.AST) -> set[str]:
    """Names and attributes used anywhere in the package outside the top-level node ``skip``."""
    return set().union(*(names for top, names in USED if top is not skip))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_private_function_is_referenced(path):
    private = [
        node
        for node in TREES[path].body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_") and not node.name.startswith("__")
    ]
    assert sorted(node.name for node in private if node.name not in _referenced(node)) == []


# Public names that nothing in the package, the benchmark or the acceptance suite reaches, kept on purpose.
KEPT_PUBLIC = {
    "parse_report": "the report reader a report-replaying command will call",
    "trivial": "test fixture",
    "constant": "test fixture",
    "support": "test fixture",
    "enumerate_elements": "the reference enumeration the tests check the engine against",
}


def _names_and_strings(path: Path) -> set[str]:
    """Names, attributes, imported names and string constants used in one file."""
    names = set()
    for n in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif isinstance(n, ast.alias):
            names.add(n.asname or n.name)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            names.add(n.value)
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_public_name_is_reached(path):
    files = [*(ROOT / "bench").glob("*.py"), ROOT / "tests" / "test_acceptance.py"]
    outside = set(KEPT_PUBLIC).union(*map(_names_and_strings, files))
    public = [
        node
        for node in TREES[path].body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]
    assert sorted(n.name for n in public if n.name not in outside and n.name not in _referenced(n)) == []


def test_cli_import_runs_no_optional_layer():
    # families, structure and torus wait in sys.modules as lazy modules until first use; fractions comes with torus.
    names = ("fractions", "groupcodes.families", "groupcodes.structure", "groupcodes.torus")
    code = f"import sys, types, groupcodes.cli; print([n for n in {names!r} if type(sys.modules.get(n)) is types.ModuleType])"
    env = {**os.environ, "PYTHONPATH": str(Path(groupcodes.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env, check=True)
    assert done.stdout == "[]\n"


def test_every_package_name_resolves():
    assert all(getattr(groupcodes, name) is not None for name in groupcodes.__all__)
    assert groupcodes.decompose is groupcodes.structure.decompose
    with pytest.raises(AttributeError):
        groupcodes.no_such_name
