"""Every narrative demo runs to completion against this checkout's sources."""

from __future__ import annotations

import pytest

from conftest import ROOT, run_python

DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_zero(demo):
    proc = run_python(str(demo))
    assert proc.returncode == 0, proc.stderr
