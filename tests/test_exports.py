"""The package's export list matches what its __init__ binds."""

import ast
from pathlib import Path

import srled


def _public_names_bound_in_init() -> set[str]:
    tree = ast.parse(Path(srled.__file__).read_text())
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
    return {name for name in names if not name.startswith("_")}


def test_all_lists_exactly_the_public_bindings():
    assert srled.__all__ == sorted(_public_names_bound_in_init())


def test_every_export_resolves():
    missing = [name for name in srled.__all__ if not hasattr(srled, name)]
    assert not missing
