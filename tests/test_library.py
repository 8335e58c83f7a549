"""Whole-library checks over the source of the scenekin package."""

import ast
import dataclasses
import json
import pathlib
import re
import typing

import scenekin
from scenekin.config import PipelineConfig, config_to_dict

SRC = pathlib.Path(scenekin.__file__).parent
TESTS = pathlib.Path(__file__).resolve().parent
BENCH = TESTS.parent / "bench"
README = TESTS.parent / "README.md"

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
    """{key: (kind, name, positional parameters, {defaulted parameter:
    default expression})} of every function ("module.function"), method
    ("module.Class.method", `self` dropped) and nested function
    ("module.outer.function") of the package, with kind "function",
    "method" or "nested"."""
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
                defaulted = dict(zip(
                    positional[len(positional) - len(args.defaults):],
                    args.defaults))
                defaulted |= {a.arg: d for a, d in zip(args.kwonlyargs,
                                                       args.kw_defaults) if d}
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


CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*$")


def _readable(node, module: str, imported: dict) -> str | None:
    """An argument's value as far as an AST scan can read it: the repr of
    a literal, or "module.NAME" of a module constant; otherwise None."""
    try:
        return repr(ast.literal_eval(node))
    except ValueError:
        pass
    if isinstance(node, ast.Name) and CONSTANT.match(node.id):
        return f"{imported.get(node.id, module)}.{node.id}"
    if (isinstance(node, ast.Attribute) and _owner(node)
            and CONSTANT.match(node.attr)):
        return f"{_owner(node)}.{node.attr}"
    return None


def _examples(test) -> dict:
    """{parameter: [argument, ...]} of the `@example(...)` decorators of
    a hypothesis test."""
    names = [a.arg for a in test.args.args if a.arg != "self"]
    out = {}
    for d in test.decorator_list:
        if isinstance(d, ast.Call) and getattr(d.func, "id", "") == "example":
            for name, arg in [*zip(names, d.args),
                              *((k.arg, k.value) for k in d.keywords)]:
                out.setdefault(name, []).append(arg)
    return out


def test_no_parameter_gets_one_value():
    """No parameter of a library function gets the same module constant
    or literal at every call (two or more) in the package, its tests and
    the benchmark harness: such a value is a constant beside its reader.

    A call that leaves a parameter out passes its default. An argument the
    scan cannot read (a variable, an attribute, an expression) is a value
    of its own, except a parameter a hypothesis test draws for itself: the
    test passes only what its `@example` decorators give, since the values
    it draws sweep the function rather than choose a setting."""
    functions = _defaulted_functions()
    given = {}  # (function, parameter) -> values passed

    def visit(node, module, imported, enclosing):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, module, imported, child)
                continue
            visit(child, module, imported, enclosing)
            if not isinstance(child, ast.Call) or any(
                    isinstance(a, ast.Starred) for a in child.args):
                continue
            keywords = {k.arg: k.value for k in child.keywords}
            for key in _callees(child, module if module in LIBRARY else None,
                                imported, functions):
                _, _, positional, defaulted = functions[key]
                owner = key.split(".")[0]
                for i, name in enumerate(positional):
                    if i < len(child.args) or name in keywords:
                        arg = (child.args[i] if i < len(child.args)
                               else keywords[name])
                        drawn = (isinstance(arg, ast.Name)
                                 and enclosing is not None
                                 and enclosing.name.startswith("test")
                                 and arg.id in {a.arg for a in
                                                enclosing.args.args})
                        args = (_examples(enclosing).get(arg.id, [])
                                if drawn else [arg])
                        values = [_readable(a, module, imported) or a
                                  for a in args]
                    elif None in keywords:
                        continue  # perhaps in **kwargs
                    elif name in defaulted:
                        values = [_readable(defaulted[name], owner,
                                            _imported(LIBRARY[owner]))
                                  or defaulted[name]]
                    else:
                        continue
                    given.setdefault((key, name), []).extend(values)

    for path in sorted([*SRC.glob("*.py"), *TESTS.glob("*.py"),
                        *BENCH.glob("*.py")]):
        tree = ast.parse(path.read_text())
        visit(tree, path.stem, _imported(tree), None)
    one_value = sorted(f"{key}({name})"
                       for (key, name), values in given.items()
                       if len(values) >= 2 and len(set(values)) == 1)
    assert one_value == []


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


def test_only_artifacts_reads_and_writes_json_files():
    """No module calls `json.dump` or `json.load` but `artifacts`, the one
    writer and reader of the documents the stages hand each other, and
    `config.load_config`, which reads the user's config file."""
    calls = set()
    for module, tree in LIBRARY.items():
        for top in tree.body:
            calls |= {(module, getattr(top, "name", None))
                      for node in ast.walk(top)
                      if isinstance(node, ast.Attribute)
                      and node.attr in ("dump", "load")
                      and isinstance(node.value, ast.Name)
                      and node.value.id == "json"
                      or isinstance(node, ast.ImportFrom)
                      and node.module == "json"}
    assert sorted(c for c in calls if c[0] != "artifacts"
                  and c != ("config", "load_config")) == []


def _callers(names) -> list:
    """Sorted (module, top-level definition) pairs of the library whose
    code calls a function or method named in `names`."""
    calls = set()
    for module, tree in LIBRARY.items():
        for top in tree.body:
            calls |= {(module, getattr(top, "name", None))
                      for node in ast.walk(top)
                      if isinstance(node, ast.Call)
                      and (getattr(node.func, "id", None) in names
                           or getattr(node.func, "attr", None) in names)}
    return sorted(calls)


def test_only_hotspot_ranks_rows():
    """No module calls `score_bounds`, `refine_bounds`, `predict` or `nms`
    but `hotspot`, whose `ranked` decides which row the loop pulls next."""
    ranking = ("score_bounds", "refine_bounds", "predict", "nms")
    assert [c for c in _callers(ranking) if c[0] != "hotspot"] == []


def test_only_artinfer_fits_motion():
    """No module calls `estimate_motion` or `kabsch` but `artinfer`, where
    only `infer_articulation` calls `estimate_motion`: every observation
    pair is fitted inside `infer_articulation`."""
    assert _callers(("estimate_motion", "kabsch")) == [
        ("artinfer", "estimate_motion"), ("artinfer", "infer_articulation")]


def test_each_view_set_is_captured_once():
    """Only `sensing._fused_captures` calls `fuse_clouds`, so every set of
    cameras is fused once. Only `pipeline._approach` (the before cameras)
    and `sensing.capture_interaction_after` (the fresh after cameras)
    place object views: `capture_object_views` captures the cameras it is
    given."""
    assert _callers(("fuse_clouds",)) == [("sensing", "_fused_captures")]
    assert _callers(("object_view_poses",)) == [
        ("pipeline", "_approach"), ("sensing", "capture_interaction_after")]


def test_only_pipeline_imports_concurrency():
    """No module imports `threading`: every block of rows runs on the
    calling thread. Only `pipeline` imports from `concurrent.futures`, for
    the `ProcessPoolExecutor` that runs rooms in parallel (`--workers`)."""
    imports = set()
    for module, tree in LIBRARY.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imports |= {(module, alias.name) for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imports |= {(module, f"{node.module}.{alias.name}")
                            for alias in node.names}
    assert sorted(i for i in imports
                  if i[1].split(".")[0] in ("threading", "concurrent")) == [
        ("pipeline", "concurrent.futures.ProcessPoolExecutor")]


def _flatten(doc, path="") -> dict:
    """{"section.key": value} of every leaf of a nested config document."""
    out = {}
    for name, value in doc.items():
        if isinstance(value, dict):
            out |= _flatten(value, f"{path}{name}.")
        else:
            out[path + name] = value
    return out


def _config_classes(dc_type=PipelineConfig, path="") -> dict:
    """{class name: (section path, field names)} of PipelineConfig and of
    every section nested in it."""
    out = {dc_type.__name__: (path, [f.name for f in dataclasses.fields(
        dc_type)])}
    for name, hint in typing.get_type_hints(dc_type).items():
        if dataclasses.is_dataclass(hint):
            out |= _config_classes(hint, f"{path}{name}.")
    return out


CONFIG_CLASSES = _config_classes()
DEFAULTS = _flatten(config_to_dict(PipelineConfig()))


def _is_raises(node) -> bool:
    """Whether `node` is a `pytest.raises(...)` or `raises(...)` call."""
    func = getattr(node, "func", None)
    return isinstance(func, (ast.Name, ast.Attribute)) and "raises" in (
        getattr(func, "id", None), getattr(func, "attr", None))


def _as_json(value):
    """`value` with its tuples as lists, as a config document holds it."""
    if isinstance(value, (tuple, list)):
        return [_as_json(v) for v in value]
    return value


def _is_dict_call(node) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "dict")


class _Setters(ast.NodeVisitor):
    """The config keys a module sets, each as a path ("capture.voxel") or,
    for a keyword of `replace`/`dc_replace`, whose target the scan cannot
    type, as "*." plus the field name.

    A key is set by a keyword or positional argument of its own config
    class, a keyword of `replace`/`dc_replace`, or a string key of a dict
    literal (or of a `dict(...)` call) at its path, where every dict is read
    as a config document: its top-level keys are sections. A literal equal
    to the key's default sets nothing, and nothing inside
    `with pytest.raises(...)` counts."""

    def __init__(self):
        self.found = set()

    def _set(self, path, value):
        try:
            literal = _as_json(ast.literal_eval(value))
        except ValueError:
            literal = None
        if path.startswith("*."):
            if all(literal != d for p, d in DEFAULTS.items()
                   if p.rsplit(".", 1)[-1] == path[2:]):
                self.found.add(path)
        elif path not in DEFAULTS or literal != DEFAULTS[path]:
            self.found.add(path)
        self.visit(value)

    def _keywords(self, keywords, path):
        for k in keywords:
            if k.arg:
                self._entry(path + k.arg, k.value)
            else:
                self.visit(k.value)

    def _document(self, node, path):
        """Keys of a dict literal or `dict(...)` call at section `path`."""
        if isinstance(node, ast.Dict):
            for key, value in zip(node.keys, node.values):
                if isinstance(key, ast.Constant) and isinstance(key.value,
                                                                 str):
                    self._entry(path + key.value, value)
                else:
                    self.visit(value)
            return
        for arg in node.args:
            if isinstance(arg, ast.Dict):
                self._document(arg, path)
            else:
                self.visit(arg)
        self._keywords(node.keywords, path)

    def _entry(self, path, value):
        if isinstance(value, ast.Dict) or _is_dict_call(value):
            self._document(value, path + ".")
        else:
            self._set(path, value)

    def visit_With(self, node):
        if not any(_is_raises(item.context_expr) for item in node.items):
            self.generic_visit(node)

    def visit_Dict(self, node):
        self._document(node, "")

    def visit_Call(self, node):
        func = node.func
        name = getattr(func, "id", None) or getattr(func, "attr", None)
        if name in CONFIG_CLASSES:
            path, names = CONFIG_CLASSES[name]
            for field, arg in zip(names, node.args):
                self._entry(path + field, arg)
            self._keywords(node.keywords, path)
        elif name in ("replace", "dc_replace"):
            for arg in node.args:
                self.visit(arg)
            for k in node.keywords:
                if k.arg:
                    self._set(f"*.{k.arg}", k.value)
                else:
                    self.visit(k.value)
        elif _is_dict_call(node):
            self._document(node, "")
        else:
            self.generic_visit(node)


def test_every_config_key_has_a_setter():
    """Every PipelineConfig key is set to another value than its default in
    a config context (`_Setters`) somewhere in the package, its tests or the
    benchmark harness, or at its path in a JSON object of README.md. A
    setting no caller sets to another value is a constant beside its
    reader, not a key.

    `generation` is exempt: it is the scene distribution, whose planned
    caller is ROADMAP item 7's robustness sweep over room sizes and
    cabinet density."""
    setters = _Setters()
    for path in sorted([*SRC.glob("*.py"), *TESTS.glob("*.py"),
                        *BENCH.glob("*.py")]):
        setters.visit(ast.parse(path.read_text()))
    for span in re.findall(r'`(\{".*?\})`', README.read_text()):
        setters.found |= {key for key, value in
                          _flatten(json.loads(span)).items()
                          if DEFAULTS.get(key) != value}
    set_by = {key for key in DEFAULTS
              if key in setters.found
              or f"*.{key.rsplit('.', 1)[-1]}" in setters.found}
    assert sorted(key for key in set(DEFAULTS) - set_by
                  if not key.startswith("generation.")) == []
