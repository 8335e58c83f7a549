"""Whole-library checks over the source of the scenekin package."""

import ast
import pathlib
import re
from collections import Counter

import scenekin

SRC = pathlib.Path(scenekin.__file__).parent


def test_every_library_name_has_a_caller():
    """Each function, class and method is named somewhere in the package
    besides its own definition; code only tests use belongs in the tests."""
    sources = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    text = "\n".join(sources)
    defined = Counter(
        node.name for source in sources for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__")))
    unused = sorted(name for name, n_defs in defined.items()
                    if len(re.findall(rf"\b{name}\b", text)) <= n_defs)
    assert unused == []
