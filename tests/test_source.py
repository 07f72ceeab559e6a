"""Rules on the library's source text and on the modules that importing it loads."""

from __future__ import annotations

import ast
import importlib
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


def run_bare(code: str) -> str:
    """The stdout of `code` run by a fresh ``python -S`` on this checkout's sources.

    ``-S`` skips the site hooks, which may import any module on their own.
    """
    code = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r})\n" + code
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_import_loads_no_slow_modules():
    # nor `json`, which each command that writes JSON imports when it runs
    out = run_bare(
        f"import cpbasis.cli; print(sorted({{*{SLOW_IMPORTS!r}, 'json'}} & set(sys.modules)))"
    )
    assert out.strip() == "[]"


def test_package_import_loads_no_submodule():
    out = run_bare(
        "import cpbasis\n"
        "print(sorted(m for m in sys.modules if m.startswith('cpbasis.')))\n"
        "cpbasis.BasisKind\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('cpbasis.'))\n"
        "print('BasisKind' in vars(cpbasis), loaded)\n"
    )
    # a name read through the package is imported from its home and kept,
    # and its home imports no other module of the package but `_frozen`
    assert out.splitlines() == ["[]", "True ['cpbasis._frozen', 'cpbasis.series']"]


def test_submodules_still_import_from_the_package():
    out = run_bare("from cpbasis import basis, cli\nprint(basis.__name__, cli.__name__)")
    assert out.split() == ["cpbasis.basis", "cpbasis.cli"]


def test_exported_names_are_their_home_modules_objects():
    import cpbasis

    assert set(cpbasis._HOMES) == set(cpbasis.__all__)
    for name in cpbasis.__all__:
        home = importlib.import_module(f"cpbasis.{cpbasis._HOMES[name]}")
        value = getattr(cpbasis, name)
        assert value is getattr(home, name), name
        # the module that defines it, not one that imports it
        assert getattr(value, "__module__", home.__name__) == home.__name__, name
    assert set(cpbasis.__all__) | {"__all__", "__version__"} <= set(dir(cpbasis))


def test_star_import_binds_every_name():
    import cpbasis

    namespace = {}
    exec("from cpbasis import *", namespace)
    assert {name: namespace.get(name) for name in cpbasis.__all__} == {
        name: getattr(cpbasis, name) for name in cpbasis.__all__
    }


def test_unknown_name_is_attribute_error():
    import cpbasis

    with pytest.raises(AttributeError, match="no_such_name"):
        cpbasis.no_such_name
    assert not hasattr(cpbasis, "no_such_name")


# a command imports what it runs when it runs, and none of these needs the
# oracle, the root data, exact fractions nor `csv`: `leading-terms` writes
# its CSV rows itself, `series` counts without the walk, `verify-coincidence`
# walks, and `enumerate` lists slice paths from a walk over single slices.
# Only JSON output loads `json`, so of these runs only `series` does
WALK_MODULES = ["_frozen", "basis", "cli", "leading", "partitions", "series"]
COMMAND_MODULES = {
    "leading-terms": ["_frozen", "cli", "leading", "partitions", "series"],
    "series": ["_frozen", "cli", "series"],
    "enumerate": sorted(WALK_MODULES + ["listing"]),
    "verify-coincidence": WALK_MODULES,
}


@pytest.mark.parametrize(
    "argv",
    [
        ["leading-terms", "--kind", "fs", "--rank", "3", "--level", "2", "--window", "1",
         "--format", "csv"],
        ["series", "--kind", "fs", "--rank", "2", "--level", "3", "--max-degree", "20"],
        ["enumerate", "--kind", "std", "--rank", "2", "--level", "2", "--max-degree", "4",
         "--format", "csv"],
        ["verify-coincidence", "--ell", "1", "--level", "2", "--max-degree", "5"],
    ],
    ids=lambda argv: argv[0],
)
def test_command_loads_only_what_it_runs(argv):
    out = run_bare(
        "import contextlib, io\n"
        "from cpbasis import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main({argv!r})\n"
        "print(code, sorted(m for m in sys.modules if m.startswith('cpbasis')))\n"
        "print(sorted({'fractions', 'decimal', 'csv', 'json'} & set(sys.modules)))\n"
    )
    loaded = ["cpbasis"] + [f"cpbasis.{name}" for name in COMMAND_MODULES[argv[0]]]
    stdlib = ["json"] if argv[0] == "series" else []
    assert out.splitlines() == [f"0 {loaded}", str(stdlib)]


def test_only_a_listing_loads_array():
    # a listing keeps its successor lists in arrays and imports `array` with `listing`;
    # dense point checks by both checkers, a series count and the coincidence
    # walk hold no listing, and loading the module costs each run its memory
    out = run_bare(
        "import contextlib, io\n"
        "from cpbasis import cli\n"
        "from cpbasis.basis import admissible_by_divisibility, admissible_by_inequalities\n"
        "from cpbasis.partitions import ColoredPartition, upper_scheme\n"
        "from cpbasis.series import BasisKind\n"
        "fs = BasisKind('fs', 4, 2)\n"
        "for facs in [(((1, 1), -1), ((2, 3), -1), ((1, 4), -2)), (((1, 1), -1),) * 3]:\n"
        "    pi = ColoredPartition.from_pairs(upper_scheme(4), *facs)\n"
        "    verdicts = admissible_by_divisibility(pi, fs), admissible_by_inequalities(pi, fs)\n"
        "    print(*verdicts, 'array' in sys.modules)\n"
        "for argv in (\n"
        "    ['series', '--kind', 'fs', '--rank', '2', '--level', '3', '--max-degree', '20'],\n"
        "    ['verify-coincidence', '--ell', '1', '--level', '2', '--max-degree', '5'],\n"
        "    ['enumerate', '--kind', 'std', '--rank', '1', '--level', '1', '--max-degree', '3'],\n"
        "):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = cli.main(argv)\n"
        "    print(argv[0], code, 'array' in sys.modules)\n"
    )
    # each partition holds three factors on degrees -1 and -2, more than the
    # level 2, so each check pushes a tracker; the listing shows the probe works
    assert out.splitlines() == [
        "True True False",
        "False False False",
        "series 0 False",
        "verify-coincidence 0 False",
        "enumerate 0 True",
    ]


# `Frozen` builds every value class's __eq__ and __hash__ from its fields
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
