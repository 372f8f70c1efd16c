"""Every name the package exports has a user: program code in src/ that
reads it, or the benchmark under perfbench/, which wraps the functions
perfbench/tracer.py pins (FUNCTIONS) by name.  A name that only tests
call is test-only API: move what the tests need into tests/ and delete it.
"""
import ast
import importlib.util
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


def referenced_names() -> set[str]:
    """The names src/ reads, as a name or an attribute, outside the
    package's __init__ (which only re-exports)."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_export_has_a_user(monkeypatch):
    pinned = {name for _, name in load_tracer(monkeypatch).FUNCTIONS}
    used = referenced_names() | pinned
    exports = [name for name in focusfocus.__all__
               if not isinstance(getattr(focusfocus, name), types.ModuleType)]
    assert exports
    assert [name for name in exports if name not in used] == []
