"""Whole-library checks over the source of the scenekin package."""

import ast
import dataclasses
import pathlib
import typing

import scenekin
from scenekin.config import PipelineConfig

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


def _field_names(dc_type) -> set:
    """Field names of a config dataclass and of every section nested in it."""
    names = set()
    for name, hint in typing.get_type_hints(dc_type).items():
        names.add(name)
        if dataclasses.is_dataclass(hint):
            names |= _field_names(hint)
    return names


def test_every_config_key_is_read():
    """Every PipelineConfig key, at every level, is read as an attribute
    outside config.py (other than through `self`), so each key can have an
    effect on a run."""
    read = {node.attr
            for p in sorted(SRC.glob("*.py")) if p.name != "config.py"
            for node in ast.walk(ast.parse(p.read_text()))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and not (isinstance(node.value, ast.Name)
                     and node.value.id == "self")}
    assert sorted(_field_names(PipelineConfig) - read) == []
