"""No dead code in the package modules (`__init__.py` aside): every import is
used unless its line says `# noqa: F401`, and every module-level private name
(def, class or assignment) is referenced somewhere in `src/` outside its own
definition. The same for the tests: every import of `tests/*.py` is used, and
every top-level function of `tests/oracles.py` is referenced somewhere in
`tests/` outside its own definition. And no raise that `cli.main` would let
out as a traceback: every `raise` in the package raises a class of
`errors.py` or MemoryError, re-raises with `raise type(exc)(...)`, or is
bare. Built on the standard library's `ast`, as no linter is installed."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "spectral_attn"
SOURCES = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
TREES = {name: ast.parse(text, name) for name, text in SOURCES.items()}
MODULES = [name for name in SOURCES if name != "__init__.py"]
TESTS = Path(__file__).resolve().parent
TEST_SOURCES = {p.name: p.read_text(encoding="utf-8") for p in sorted(TESTS.glob("*.py"))}
TEST_TREES = {name: ast.parse(text, name) for name, text in TEST_SOURCES.items()}


def _unused_imports(module, sources=SOURCES, trees=TREES):
    tree, lines = trees[module], sources[module].splitlines()
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


def _unreferenced(module, definitions, trees):
    for name, definition in definitions:
        inside = {id(n) for n in ast.walk(definition)}
        if not any(id(n) not in inside and _refers_to(n, name)
                   for tree in trees.values() for n in ast.walk(tree)):
            yield f"{module}:{definition.lineno}: {name}"


def _unreferenced_privates(module):
    return _unreferenced(module, _private_definitions(TREES[module]), TREES)


def _unreferenced_oracles(module="oracles.py"):
    functions = [(node.name, node) for node in TEST_TREES[module].body if isinstance(node, ast.FunctionDef)]
    return _unreferenced(module, functions, TEST_TREES)


RAISABLE = {node.name for node in TREES["errors.py"].body if isinstance(node, ast.ClassDef)} | {"MemoryError"}


def _uncaught_raises(module):
    for node in ast.walk(TREES[module]):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        raised = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        if isinstance(raised, ast.Name) and raised.id in RAISABLE:
            continue
        if isinstance(raised, ast.Call) and isinstance(raised.func, ast.Name) and raised.func.id == "type":
            continue
        yield f"{module}:{node.lineno}: {ast.unparse(node.exc)}"


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    assert list(_unused_imports(module)) == []


@pytest.mark.parametrize("module", MODULES)
def test_every_private_module_name_is_referenced_elsewhere(module):
    assert list(_unreferenced_privates(module)) == []


@pytest.mark.parametrize("module", sorted(TEST_SOURCES))
def test_every_test_import_is_used(module):
    assert list(_unused_imports(module, TEST_SOURCES, TEST_TREES)) == []


def test_every_oracle_function_is_referenced_by_a_test():
    assert list(_unreferenced_oracles()) == []


@pytest.mark.parametrize("module", sorted(SOURCES))
def test_every_raise_ends_in_an_error_line(module):
    assert list(_uncaught_raises(module)) == []


def test_the_check_flags_a_raise_that_cli_main_would_not_catch():
    source = ("try:\n    raise ShapeError('x')\nexcept ShapeError as exc:\n    raise type(exc)('y') from None\n"
              "raise MemoryError\nraise\nraise ValueError('z')\nraise KeyError\nraise exc\n")
    TREES["probe.py"] = ast.parse(source)
    try:
        assert list(_uncaught_raises("probe.py")) == [
            "probe.py:7: ValueError('z')", "probe.py:8: KeyError", "probe.py:9: exc"]
    finally:
        del TREES["probe.py"]


def test_the_check_flags_an_unused_import_and_an_unreferenced_private():
    source = "import math\nimport os  # noqa: F401\n\ndef _leftover():\n    return _leftover()\n"
    TREES["probe.py"], SOURCES["probe.py"] = ast.parse(source), source
    try:
        assert list(_unused_imports("probe.py")) == ["probe.py:1: math"]
        assert list(_unreferenced_privates("probe.py")) == ["probe.py:4: _leftover"]
    finally:
        del TREES["probe.py"], SOURCES["probe.py"]


def test_the_check_flags_an_unused_test_import_and_an_unreferenced_oracle():
    oracles = "def used():\n    return 1\n\ndef leftover():\n    return leftover()\n"
    test = "import os\nimport re  # noqa: F401\nfrom probe_oracles import used\n\nused()\n"
    probes = {"probe_oracles.py": oracles, "probe_test.py": test}
    for name, source in probes.items():
        TEST_TREES[name], TEST_SOURCES[name] = ast.parse(source), source
    try:
        assert list(_unused_imports("probe_test.py", TEST_SOURCES, TEST_TREES)) == ["probe_test.py:1: os"]
        assert list(_unreferenced_oracles("probe_oracles.py")) == ["probe_oracles.py:4: leftover"]
    finally:
        for name in probes:
            del TEST_TREES[name], TEST_SOURCES[name]
