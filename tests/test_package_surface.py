"""Every name the package exports has a user: program code in src/ that
reads it, or the benchmark under perfbench/, which wraps the functions
perfbench/tracer.py pins (FUNCTIONS) by name; every method of an exported
class is read in src/ or pinned there too (METHODS); every property of an
exported class, every field of a dataclass of src/ and every module-level
private name is read in src/.  A name that only tests call is test-only
API: move what the tests need into tests/ and delete it.  Every default of
a function that src/ calls is passed by some call there, no keyword takes
one literal at every call, and only lattice reads the closed-form evaluator
_tori and its complex step STEP.
"""
import ast
import dataclasses
import importlib
import importlib.util
import inspect
import sys
import types
from pathlib import Path

import focusfocus

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "focusfocus"


def load_tracer(monkeypatch):
    """perfbench/tracer.py, imported without writing bytecode there."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(
        "tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def src_nodes():
    """Every AST node of src/ outside the package's __init__ (which only
    re-exports)."""
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            yield from ast.walk(ast.parse(path.read_text(encoding="utf-8")))


def attribute_reads() -> set[str]:
    """The names src/ reads as an attribute."""
    return {node.attr for node in src_nodes()
            if isinstance(node, ast.Attribute)}


def referenced_names() -> set[str]:
    """The names src/ reads, as a name or an attribute."""
    return attribute_reads() | {node.id for node in src_nodes()
                                if isinstance(node, ast.Name)}


def test_every_export_has_a_user(monkeypatch):
    pinned = {name for _, name in load_tracer(monkeypatch).FUNCTIONS}
    used = referenced_names() | pinned
    exports = [name for name in focusfocus.__all__
               if not isinstance(getattr(focusfocus, name), types.ModuleType)]
    assert exports
    assert [name for name in exports if name not in used] == []


def test_every_property_has_a_reader():
    # a property of an exported class is read as an attribute in src/;
    # one that only tests read is test-only API, as an export would be
    read = attribute_reads()
    properties = sorted(
        f"{name}.{attr}" for name in focusfocus.__all__
        if isinstance(cls := getattr(focusfocus, name), type)
        for attr, value in inspect.getmembers(cls)
        if isinstance(value, property))
    assert properties
    assert [p for p in properties if p.split(".")[1] not in read] == []


def loaded_attributes() -> set[str]:
    """The names src/ loads as an attribute (reads, not assignments)."""
    return {node.attr for node in src_nodes()
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def test_every_method_has_a_reader(monkeypatch):
    # a method defined in an exported class's own body is loaded as an
    # attribute in src/, or pinned by the tracer (METHODS), which wraps it
    # by name; one that only tests call is test-only API
    read = loaded_attributes()
    pinned = {(cls, meth) for _, cls, meth, _ in
              load_tracer(monkeypatch).METHODS}
    methods = sorted(
        (name, attr) for name in focusfocus.__all__
        if isinstance(cls := getattr(focusfocus, name), type)
        for attr, value in vars(cls).items()
        if not attr.startswith("__")
        and (inspect.isfunction(value)
             or isinstance(value, (staticmethod, classmethod))))
    assert methods
    assert [f"{name}.{attr}" for name, attr in methods
            if attr not in read and (name, attr) not in pinned] == []


def test_every_dataclass_field_has_a_reader():
    # a field of a dataclass defined in src/ is loaded as an attribute in
    # src/; a field that only tests read is test-only API, computed and
    # stored for nothing
    read = loaded_attributes()
    fields = []
    for path in PACKAGE.glob("*.py"):
        module = importlib.import_module(f"focusfocus.{path.stem}")
        fields += [f"{path.stem}.{name}.{field.name}"
                   for name, cls in vars(module).items()
                   if isinstance(cls, type) and dataclasses.is_dataclass(cls)
                   and cls.__module__ == module.__name__
                   for field in dataclasses.fields(cls)]
    assert fields
    assert [f for f in fields if f.rpartition(".")[2] not in read] == []


def module_private_names() -> list[str]:
    """The private names (one leading underscore) each module of src/
    binds at module level: its functions, classes and assignments."""
    names = []
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bound = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                bound = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
            else:
                continue
            names += [f"{path.stem}.{name}" for name in bound
                      if name.startswith("_") and not name.startswith("__")]
    return sorted(names)


def test_every_private_name_has_a_reader():
    # a module-level helper or constant is read (loaded as a name or an
    # attribute) somewhere in src/; one that only tests read is dead code
    read = {node.id for node in src_nodes() if isinstance(node, ast.Name)
            and isinstance(node.ctx, ast.Load)}
    read |= loaded_attributes()
    names = module_private_names()
    assert names
    assert [n for n in names if n.partition(".")[2] not in read] == []


def test_every_default_is_passed():
    # a parameter with a default, in a function that src/ calls, is passed
    # by some call in src/: a default that no call overrides is a knob that
    # acts on nothing.  cli.main's argv is the command line, and the tracer
    # reads the defaults of reduced_period_rotation's engine and rel_tol
    exempt = {"main.argv", "reduced_period_rotation.engine",
              "reduced_period_rotation.rel_tol"}
    calls: dict[str, list[ast.Call]] = {}
    defaults = []   # (function, parameter, positional index or None)
    for node in src_nodes():
        if isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "id", getattr(func, "attr", None))
            calls.setdefault(name, []).append(node)
        elif isinstance(node, ast.FunctionDef):
            args = node.args
            positional = args.posonlyargs + args.args
            bound = int(positional[:1] != [] and positional[0].arg in
                        ("self", "cls"))
            first = len(positional) - len(args.defaults)
            defaults += [(node.name, arg.arg, i - bound) for i, arg in
                         enumerate(positional[first:], first)]
            defaults += [(node.name, arg.arg, None) for arg, default in
                         zip(args.kwonlyargs, args.kw_defaults)
                         if default is not None]

    def passes(call, param, index):
        return (any(isinstance(a, ast.Starred) for a in call.args)
                or any(kw.arg in (None, param) for kw in call.keywords)
                or index is not None and index < len(call.args))

    unpassed = [f"{func}.{param}" for func, param, index in defaults
                if func in calls and f"{func}.{param}" not in exempt
                and not any(passes(call, param, index)
                            for call in calls[func])]
    assert unpassed == []


def literal(node: ast.AST) -> str | None:
    """The repr of the literal a node of src/ spells, or None."""
    try:
        return repr(ast.literal_eval(node))
    except ValueError:
        return None


def test_no_keyword_takes_one_value():
    # a keyword that every src/ call of a function or class of src/ passes
    # as the same literal is an option with one value: the callee should
    # do that one thing, without the keyword and the branches it selects
    nodes = list(src_nodes())
    defined = {node.name for node in nodes
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    calls: dict[str, int] = {}
    values: dict[tuple[str, str], list] = {}
    for node in nodes:
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", getattr(node.func, "attr", None))
        if name not in defined:
            continue
        calls[name] = calls.get(name, 0) + 1
        for kw in node.keywords:
            if kw.arg is not None:
                values.setdefault((name, kw.arg), []).append(literal(kw.value))
    one = [f"{func}({arg}={found[0]})"
           for (func, arg), found in values.items()
           if len(found) == calls[func] and found[0] is not None
           and found.count(found[0]) == len(found)]
    assert one == []


def test_only_lattice_reads_the_evaluator_and_its_step():
    # every other module takes tori and derivatives from lattice's public
    # calls (transport, polar_tori, derivatives), not from the evaluator
    # _tori or the complex step STEP
    readers = []
    for path in sorted(PACKAGE.glob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
        read = {getattr(node, "id", getattr(node, "attr", None))
                for node in nodes}
        read |= {alias.name for node in nodes
                 if isinstance(node, ast.ImportFrom) for alias in node.names}
        readers += [f"{path.stem}.{name}" for name in ("_tori", "STEP")
                    if name in read and path.name != "lattice.py"]
    assert readers == []


def numpy_names(node: ast.AST) -> list[str]:
    """The dotted names a node of src/ names: an attribute of a name
    (np.linalg), an imported module, or a name imported from a module
    (numpy.random from "from numpy import random")."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return [f"{node.value.id}.{node.attr}"]
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        return [module] + [f"{module}.{alias.name}" for alias in node.names]
    return []


def test_no_module_names_numpy_linalg_or_random():
    # the package runs on numpy's core: no branch of any module reaches
    # LAPACK through numpy.linalg or loads numpy.random, not only the
    # branches a cold run at the defaults takes (test_cli's COLD_PROBE)
    named = [f"{path.name}:{node.lineno} {name}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             for name in numpy_names(node)
             if name.split(".")[:2] in (["np", "linalg"], ["np", "random"],
                                        ["numpy", "linalg"],
                                        ["numpy", "random"])]
    assert named == []
