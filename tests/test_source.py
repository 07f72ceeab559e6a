"""Rules on the library's source text."""

from __future__ import annotations

import ast

import pytest

from conftest import ROOT

MODULES = sorted((ROOT / "src" / "cpbasis").glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # `python -O` strips asserts, so a broken invariant must raise explicitly
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"assert statements in {path.name} at lines {lines}"
