"""Every name a package module imports is used there or re-exported, and
every private module-level function is referenced elsewhere in the package."""

import ast
from pathlib import Path

import pytest

import groupcodes

MODULES = sorted(Path(groupcodes.__file__).parent.glob("*.py"))
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


def _referenced(skip: ast.AST) -> set[str]:
    """Names and attributes used anywhere in the package outside the node ``skip``."""
    nodes = (n for tree in TREES.values() for top in tree.body if top is not skip for n in ast.walk(top))
    return {n.id if isinstance(n, ast.Name) else n.attr for n in nodes if isinstance(n, (ast.Name, ast.Attribute))}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_private_function_is_referenced(path):
    private = [
        node
        for node in TREES[path].body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_") and not node.name.startswith("__")
    ]
    assert sorted(node.name for node in private if node.name not in _referenced(node)) == []
