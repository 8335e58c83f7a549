"""Whole-library checks over the source of the scenekin package."""

import ast
import pathlib

import scenekin

SRC = pathlib.Path(scenekin.__file__).parent


def test_every_library_name_has_a_caller():
    """Each function, class and method is used somewhere in the package, as
    a name, an attribute or an import; code only tests use belongs in the
    tests."""
    trees = [ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))]
    nodes = [node for tree in trees for node in ast.walk(tree)]
    defined = {
        node.name for node in nodes
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))}
    used = {node.id if isinstance(node, ast.Name) else
            node.attr if isinstance(node, ast.Attribute) else node.name
            for node in nodes
            if isinstance(node, (ast.Name, ast.Attribute, ast.alias))}
    assert sorted(defined - used) == []
