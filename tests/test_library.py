"""Whole-library checks over the source of the scenekin package."""

import ast
import dataclasses
import pathlib
import typing

import scenekin
from scenekin.config import PipelineConfig

SRC = pathlib.Path(scenekin.__file__).parent
BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"

LIBRARY = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}

# (function, parameter) pairs whose default no call an AST scan can see
# both leaves out and sets.
DEFAULTS_ALLOWED = {
    # the console entry point: the installed script calls main() bare
    ("cli.main", "argv"),
    # bench/run.py calls these through `_stage(fn, *args)`, leaving the
    # parameter out where an AST scan cannot see it; the CLI sets it
    ("pipeline.run", "workers"),
    ("pipeline.evaluate", "force"),
    # bench/test_bench.py calls generate_scene(3), and bench/ is frozen
    ("simworld.generate_scene", "config"),
}


def _source_module(node: ast.ImportFrom) -> str | None:
    """The scenekin module of `from .module import ...` or
    `from scenekin.module import ...`, else None."""
    if node.level == 1:
        return node.module
    if node.module and node.module.startswith("scenekin."):
        return node.module.split(".", 1)[1]
    return None


def _imported(tree) -> dict:
    """{name: module} of the names a module imports from scenekin modules."""
    return {alias.asname or alias.name: module
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            and (module := _source_module(node)) is not None
            for alias in node.names}


def _owner(node: ast.Attribute) -> str | None:
    """The scenekin module `module` of a `module.name` attribute, else None."""
    value = node.value
    name = (value.id if isinstance(value, ast.Name) else
            value.attr if isinstance(value, ast.Attribute) else None)
    return name if name in LIBRARY else None


def _is_def(node) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef))


def test_every_library_name_has_a_caller():
    """Each function, class and method is used somewhere in the package;
    code only tests use belongs in the tests.

    A module-level name counts as used only through its own module: as a
    bare name inside it, as `module.name`, or imported with
    `from .module import name`. Methods and nested functions count as used
    wherever their name appears."""
    top, inner = set(), set()
    for module, tree in LIBRARY.items():
        top |= {(module, node.name) for node in tree.body if _is_def(node)}
        inner |= {node.name for outer in tree.body if _is_def(outer)
                  for node in ast.walk(outer)
                  if _is_def(node) and node is not outer}
    used_top, used_names = set(), set()
    for module, tree in LIBRARY.items():
        imported = _imported(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used_names.add(node.id)
                used_top.add((imported.get(node.id, module), node.id))
            elif isinstance(node, ast.Attribute):
                used_names.add(node.attr)
                if _owner(node):
                    used_top.add((_owner(node), node.attr))
            elif isinstance(node, ast.ImportFrom) and _source_module(node):
                used_top |= {(_source_module(node), alias.name)
                             for alias in node.names}
    unused_inner = {name for name in inner - used_names
                    if not (name.startswith("__") and name.endswith("__"))}
    assert sorted(top - used_top) == [] and sorted(unused_inner) == []


def _defaulted_functions() -> dict:
    """{key: (kind, name, positional parameters, defaulted parameters)} of
    every function ("module.function"), method ("module.Class.method",
    `self` dropped) and nested function ("module.outer.function") of the
    package, with kind "function", "method" or "nested"."""
    out = {}

    def visit(node, prefix, kind):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}.{child.name}", "method")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = [a.arg for a in args.posonlyargs + args.args]
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in child.decorator_list)
                if kind == "method" and not static:
                    positional = positional[1:]
                defaulted = positional[len(positional) - len(args.defaults):]
                defaulted += [a.arg for a, d in zip(args.kwonlyargs,
                                                    args.kw_defaults) if d]
                key = f"{prefix}.{child.name}"
                out[key] = (kind, child.name, positional, defaulted)
                visit(child, key, "nested")

    for module, tree in LIBRARY.items():
        visit(tree, module, "function")
    return out


def _callees(call: ast.Call, module: str | None, imported: dict,
             functions: dict) -> list:
    """Keys of `functions` a call may reach: module-level functions through
    their own module, methods by name, nested functions by name within
    their module."""
    func = call.func
    if isinstance(func, ast.Name):
        for owner in (module, imported.get(func.id)):
            if functions.get(f"{owner}.{func.id}", ("",))[0] == "function":
                return [f"{owner}.{func.id}"]
        return [key for key, (kind, name, _, _) in functions.items()
                if kind == "nested" and name == func.id
                and key.startswith(f"{module}.")]
    if isinstance(func, ast.Attribute):
        if _owner(func):
            key = f"{_owner(func)}.{func.attr}"
            return [key] if key in functions else []
        return [key for key, (kind, name, _, _) in functions.items()
                if kind == "method" and name == func.attr]
    return []


def test_every_parameter_default_is_used():
    """Each default of a library function is left out by some call in the
    package or the benchmark harness (its tests aside), and the parameter is
    set by some such call: a default only tests rely on, or a parameter no
    caller sets, is a setting without a user."""
    functions = _defaulted_functions()
    sources = list(LIBRARY.items())
    sources += [(None, ast.parse(p.read_text()))
                for p in sorted(BENCH.glob("*.py"))
                if p.name != "test_bench.py"]
    left_out, set_by = set(), set()
    for module, tree in sources:
        imported = _imported(tree)
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call) or any(
                    isinstance(a, ast.Starred) for a in call.args) or any(
                    k.arg is None for k in call.keywords):
                continue
            keywords = {k.arg for k in call.keywords}
            for key in _callees(call, module, imported, functions):
                _, _, positional, defaulted = functions[key]
                for name in defaulted:
                    given = (name in keywords or name in positional
                             and positional.index(name) < len(call.args))
                    (set_by if given else left_out).add((key, name))
    defaults = {(key, name) for key, (_, _, _, defaulted) in functions.items()
                for name in defaulted}
    unused = sorted(defaults - left_out - DEFAULTS_ALLOWED)
    unset = sorted(defaults - set_by - DEFAULTS_ALLOWED)
    assert (unused, unset) == ([], [])
    assert DEFAULTS_ALLOWED <= defaults


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


def _is_dataclass(node) -> bool:
    """Whether a class is decorated `@dataclass` or `@dataclass(...)`."""
    return isinstance(node, ast.ClassDef) and any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
        and d.func.id == "dataclass"
        or isinstance(d, ast.Name) and d.id == "dataclass"
        for d in node.decorator_list)


def _dataclass_fields() -> set:
    """{(module.Class, field)} of every dataclass the package defines."""
    out = set()
    for module, tree in LIBRARY.items():
        for node in ast.walk(tree):
            if _is_dataclass(node):
                out |= {(f"{module}.{node.name}", item.target.id)
                        for item in node.body
                        if isinstance(item, ast.AnnAssign)
                        and isinstance(item.target, ast.Name)}
    return out


def test_every_dataclass_field_is_read():
    """Each field of a library dataclass is read as an attribute of that
    name somewhere in the package or the benchmark harness (its tests
    aside): a field nothing reads is a record of something no one uses."""
    trees = list(LIBRARY.values())
    trees += [ast.parse(p.read_text()) for p in sorted(BENCH.glob("*.py"))
              if p.name != "test_bench.py"]
    read = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    assert sorted(f"{owner}.{name}" for owner, name in _dataclass_fields()
                  if name not in read) == []
