"""Rules on the library's source text."""

from __future__ import annotations

import ast
import subprocess
import sys

import pytest

from conftest import ROOT

MODULES = sorted((ROOT / "src" / "cpbasis").glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # `python -O` strips asserts, so a broken invariant must raise explicitly
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"assert statements in {path.name} at lines {lines}"


# no module may import these, and importing the CLI must not load them:
# each adds milliseconds to every one-shot run before any work starts
SLOW_IMPORTS = ("dataclasses", "inspect", "typing")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_slow_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        imported += [(node.lineno, n) for n in names if n.split(".")[0] in SLOW_IMPORTS]
    assert imported == [], f"{path.name} imports {imported}"


def test_cli_import_loads_no_slow_modules():
    # -S: no site hooks, which may load any of these on their own
    code = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import cpbasis.cli; "
        f"print(sorted(set({SLOW_IMPORTS!r}) & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# `Frozen` builds every value class's __eq__ and __hash__ from its __slots__
EQUALITY_METHODS = ("__eq__", "__hash__")


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "_frozen.py"], ids=lambda p: p.name
)
def test_equality_and_hashing_only_in_frozen(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    defined = []
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [getattr(t, "id", getattr(t, "attr", None)) for t in node.targets]
        else:
            continue
        defined += [(node.lineno, n) for n in names if n in EQUALITY_METHODS]
    assert defined == [], f"{path.name} defines {defined}"
