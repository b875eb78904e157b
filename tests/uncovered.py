"""List every statement of the package that the test suite never runs.

    python tests/uncovered.py [pytest arguments]

Runs pytest in this process under a `sys.settrace` line tracer that follows
only frames whose code lives in `src/spectral_attn`, so no coverage package
is needed. A statement counts as run if one of its own lines (for a compound
statement, its header) made a line event; docstrings make none and are
skipped. Code that only a subprocess runs counts as never run. Prints
`path:line: source` for each statement never run, then their count. Pytest
does not collect this file; the traced run is about 2.5x slower than plain.
"""

import ast
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = str(ROOT / "src" / "spectral_attn")
ran = set()


def _lines(frame, event, arg):
    if event == "line":
        ran.add((frame.f_code.co_filename, frame.f_lineno))
    return _lines


def _calls(frame, event, arg):
    return _lines if frame.f_code.co_filename.startswith(PACKAGE) else None


def statements(path):
    """(first line, last own line) of each statement of `path` below the module's top level
    (inside a function, class or `if`), docstrings aside: the top level runs on import."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in (n for top in tree.body for n in ast.walk(top) if n is not top):
        if isinstance(node, ast.stmt) and not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)):
            body = getattr(node, "body", None)
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            yield first, max(first, body[0].lineno - 1) if isinstance(body, list) else node.end_lineno


if __name__ == "__main__":
    os.chdir(ROOT)   # so pytest finds pyproject.toml and its testpaths
    sys.settrace(_calls)
    pytest.main(["-q", "-p", "no:cacheprovider", *sys.argv[1:]])
    sys.settrace(None)
    missed = []
    for path in sorted(Path(PACKAGE).glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        for first, last in sorted(set(statements(path))):
            if not any((str(path), line) in ran for line in range(first, last + 1)):
                missed.append(f"{path.relative_to(ROOT)}:{first}: {source[first - 1].strip()}")
    print("\n".join(missed + [f"{len(missed)} statements never run"]))
