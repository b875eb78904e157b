"""No dead code in the package modules (`__init__.py` aside): every import is
used unless its line says `# noqa: F401`, and every module-level private name
(def, class or assignment) is referenced somewhere in `src/` outside its own
definition. Built on the standard library's `ast`, as no linter is installed."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "spectral_attn"
SOURCES = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
TREES = {name: ast.parse(text, name) for name, text in SOURCES.items()}
MODULES = [name for name in SOURCES if name != "__init__.py"]


def _unused_imports(module):
    tree, lines = TREES[module], SOURCES[module].splitlines()
    loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in loaded and "# noqa: F401" not in lines[alias.lineno - 1]:
                yield f"{module}:{alias.lineno}: {bound}"


def _private_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.endswith("__"):
                yield name, node


def _refers_to(node, name):
    if isinstance(node, ast.Name):
        return node.id == name and isinstance(node.ctx, ast.Load)
    if isinstance(node, ast.Attribute):
        return node.attr == name
    if isinstance(node, ast.ImportFrom):
        return any(alias.name == name for alias in node.names)
    return False


def _unreferenced_privates(module):
    for name, definition in _private_definitions(TREES[module]):
        inside = {id(n) for n in ast.walk(definition)}
        if not any(id(n) not in inside and _refers_to(n, name)
                   for tree in TREES.values() for n in ast.walk(tree)):
            yield f"{module}:{definition.lineno}: {name}"


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    assert list(_unused_imports(module)) == []


@pytest.mark.parametrize("module", MODULES)
def test_every_private_module_name_is_referenced_elsewhere(module):
    assert list(_unreferenced_privates(module)) == []


def test_the_check_flags_an_unused_import_and_an_unreferenced_private():
    source = "import math\nimport os  # noqa: F401\n\ndef _leftover():\n    return _leftover()\n"
    TREES["probe.py"], SOURCES["probe.py"] = ast.parse(source), source
    try:
        assert list(_unused_imports("probe.py")) == ["probe.py:1: math"]
        assert list(_unreferenced_privates("probe.py")) == ["probe.py:4: _leftover"]
    finally:
        del TREES["probe.py"], SOURCES["probe.py"]
