"""Exit codes and output formats of the command-line front end."""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import WALK_GRID, run_python, run_python_peak, source_env
from cpbasis import basis as basis_module, cli, listing
from cpbasis.basis import _entries, enumerate_basis, enumerate_keys, leading_terms
from cpbasis.cli import main
from cpbasis.ident import transport_partition
from cpbasis.leading import window_split
from cpbasis.partitions import Color, Factor
from cpbasis.series import BasisKind, QSeries, _triangle_rank


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSeries:
    def test_std_rank1_level1(self, capsys):
        code, out, _ = run(
            capsys, "series", "--kind", "std", "--rank", "1",
            "--level", "1", "--max-degree", "2",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload == {
            "kind": "std",
            "rank": 1,
            "level": 1,
            "truncation": 2,
            "coeffs": [1, 3, 4],
        }


    def test_fs_rank2_level3_to_degree_20(self, capsys):
        code, out, _ = run(
            capsys, "series", "--kind", "fs", "--rank", "2",
            "--level", "3", "--max-degree", "20",
        )
        assert code == 0
        assert json.loads(out)["coeffs"] == [
            1, 3, 9, 22, 42, 81, 151, 264, 450, 749, 1212, 1926, 3009,
            4617, 6993, 10459, 15450, 22590, 32711, 46923, 66753,
        ]

    def test_fs_rank50_level1(self):
        # 1,275 triangle pairs, past the default recursion limit
        proc = run_python(
            "-m", "cpbasis.cli", "series", "--kind", "fs", "--rank", "50",
            "--level", "1", "--max-degree", "1",
        )
        assert proc.returncode == 0
        assert "Traceback" not in proc.stderr
        assert json.loads(proc.stdout)["coeffs"] == [1, 1275]


class TestLeadingTerms:
    def test_csv_rows(self, capsys):
        code, out, _ = run(
            capsys, "leading-terms", "--kind", "fs", "--rank", "2",
            "--level", "1", "--window", "1", "--format", "csv",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 15
        assert {r["split"] for r in rows} == {"0", "1", "2"}
        assert all(r["window"] == "1" for r in rows)

    def test_json_deterministic(self, capsys):
        args = (
            "leading-terms", "--kind", "std", "--rank", "1",
            "--level", "2", "--window", "2", "--format", "json",
        )
        code, out1, _ = run(capsys, *args)
        assert code == 0
        _, out2, _ = run(capsys, *args)
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["kind"] == "std" and len(payload["terms"]) > 0

    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is read in KiB, as on Linux")
    def test_json_memory_is_bounded(self, tmp_path):
        # the terms are streamed into the envelope: one dict per term for a
        # single json.dumps peaked at about 49 MB on these 32,175 terms
        out = tmp_path / "out"
        code, peak_kib = run_python_peak(
            out, "-m", "cpbasis.cli", "leading-terms", "--kind", "fs", "--rank", "8",
            "--level", "3", "--window", "1", "--format", "json",
        )
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "aadb326ba1a87ef4a3cb4ed9d7d7d5f9f38112a78c8cc04d5674b9178944631b"
        )
        assert peak_kib < 40 * 1024


def leading_terms_from_objects(kind, rank, level, window, fmt) -> str:
    """The leading-terms command's output, formatted from sorted `ColoredPartition` objects."""
    terms = sorted(
        leading_terms(BasisKind(kind, rank, level), window), key=lambda p: p.sort_key
    )
    rows = [
        {
            "window": window,
            "split": window_split(t, window),
            "factors": [str(f) for f in t.factors],
        }
        for t in terms
    ]
    out = io.StringIO()
    if fmt == "json":
        payload = {
            "kind": kind, "rank": rank, "level": level, "window": window, "terms": rows,
        }
        print(json.dumps(payload), file=out)
    elif fmt == "csv":
        writer = csv.writer(out)
        writer.writerow(["window", "split", "factors"])
        for row in rows:
            writer.writerow([row["window"], row["split"], " ".join(row["factors"])])
    else:
        print(f"leading terms: kind={kind} rank={rank} "
              f"level={level} window={window} ({len(rows)} terms)", file=out)
        for row in rows:
            print(f"  split={row['split']}  {' '.join(row['factors'])}", file=out)
    return out.getvalue()


@pytest.mark.parametrize("level", [1, 2, 3])
@pytest.mark.parametrize(
    "kind, rank", [("fs", 1), ("fs", 2), ("fs", 3), ("fs", 4), ("std", 1), ("std", 2)]
)
def test_leading_terms_output_matches_partition_objects(capsys, kind, rank, level):
    for window in (1, 2, 3):
        for fmt in ("human", "json", "csv"):
            code, out, err = run(
                capsys, "leading-terms", "--kind", kind, "--rank", str(rank),
                "--level", str(level), "--window", str(window), "--format", fmt,
            )
            assert (code, err) == (0, "")
            assert out == leading_terms_from_objects(kind, rank, level, window, fmt), (
                window, fmt,
            )


class TestEnumerate:
    def test_csv_degrees(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--kind", "std", "--rank", "1",
            "--level", "1", "--max-degree", "2", "--format", "csv",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert sum(1 for r in rows if r["degree"] == "-2") == 4
        assert sum(1 for r in rows if r["degree"] == "0") == 1

    def test_json_counts(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--kind", "fs", "--rank", "1",
            "--level", "1", "--max-degree", "3", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["elements"]) == 4

    @pytest.mark.parametrize("fmt", ["human", "csv"])
    def test_closed_pipe_exits_141_quietly(self, fmt):
        # as under `| head -1`: the reader leaves after one line of a listing
        # (about 0.8 MB) far larger than a pipe's buffer, so a later write fails
        proc = subprocess.Popen(
            [sys.executable, "-m", "cpbasis.cli", "enumerate", "--kind", "std",
             "--rank", "2", "--level", "2", "--max-degree", "7", "--format", fmt],
            env=source_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        assert proc.stdout.readline()
        proc.stdout.close()
        _, stderr = proc.communicate(timeout=120)
        assert (proc.returncode, stderr) == (141, b"")

    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is read in KiB, as on Linux")
    def test_listing_memory_is_bounded(self, tmp_path):
        # the listing streams slice paths and holds no layer, and a shape's
        # cached tails hold at most one write block each, so std(2,2) to
        # degree 13 (2,783,797 rows, 140 MB) peaks at about 17 MB, where the
        # packed layers took 36 MB and groups held as tuples about 100 MB
        out = tmp_path / "out"
        code, peak_kib = run_python_peak(
            out, "-m", "cpbasis.cli", "enumerate", "--kind", "std", "--rank", "2",
            "--level", "2", "--max-degree", "13", "--format", "csv",
        )
        digest = hashlib.sha256()
        with open(out, "rb") as listing:
            for chunk in iter(lambda: listing.read(1 << 20), b""):
                digest.update(chunk)
        out.unlink()  # 140 MB
        assert code == 0
        assert digest.hexdigest() == (
            "e19d1b1bdec380c3a6a4f3fd4a522a3487a9154a34f08b4f37598e89e9a4c30d"
        )
        assert peak_kib < 25 * 1024


def enumerate_from_objects(kind, rank, level, max_degree, fmt) -> str:
    """The enumerate command's output, formatted from `enumerate_basis` objects."""
    layers = enumerate_basis(BasisKind(kind, rank, level), max_degree)
    out = io.StringIO()
    if fmt == "json":
        payload = {
            "kind": kind,
            "rank": rank,
            "level": level,
            "truncation": max_degree,
            "elements": [
                {"degree": -m, "factors": [str(f) for f in p.factors]}
                for m, layer in enumerate(layers)
                for p in layer
            ],
        }
        print(json.dumps(payload), file=out)
    elif fmt == "csv":
        writer = csv.writer(out)
        writer.writerow(["degree", "factors"])
        for m, layer in enumerate(layers):
            for p in layer:
                writer.writerow([-m, " ".join(str(f) for f in p.factors)])
    else:
        print(f"admissible partitions: kind={kind} rank={rank} "
              f"level={level} down to degree -{max_degree}", file=out)
        for m, layer in enumerate(layers):
            print(f"degree -{m}: {len(layer)} elements", file=out)
            for p in layer:
                print(f"  {p}", file=out)
    return out.getvalue()


@pytest.mark.parametrize("fmt", ["human", "json", "csv"])
@pytest.mark.parametrize("max_degree", [0, 1, 6])
@pytest.mark.parametrize("level", [1, 2])
@pytest.mark.parametrize(
    "kind, rank", [("fs", 1), ("fs", 2), ("fs", 3), ("std", 1), ("std", 2)]
)
def test_enumerate_output_matches_partition_objects(
    capsys, kind, rank, level, max_degree, fmt
):
    code, out, _ = run(
        capsys, "enumerate", "--kind", kind, "--rank", str(rank), "--level",
        str(level), "--max-degree", str(max_degree), "--format", fmt,
    )
    assert code == 0
    expected = enumerate_from_objects(kind, rank, level, max_degree, fmt)
    # line by line, line ends included: pytest's diff of two long outputs is slow
    got, want = out.splitlines(keepends=True), expected.splitlines(keepends=True)
    for n, (line, wanted) in enumerate(zip(got, want)):
        assert line == wanted, f"line {n}"
    assert len(got) == len(want)
    if (kind, rank, level, max_degree) == ("std", 2, 2, 6):
        # a layer longer than one block of the writer, so a seam is crossed
        _, layers = enumerate_keys(BasisKind(kind, rank, level), max_degree)
        assert max(len(layer) for layer in layers) > 1024


class Digest:
    """A stdout that keeps only the sha256 of the text written to it."""

    def __init__(self):
        self.sha = hashlib.sha256()

    def write(self, text):
        self.sha.update(text.encode())


def output_digest(*argv) -> str:
    out = Digest()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.sha.hexdigest()


@pytest.mark.parametrize(
    "kind, rank, level, max_degree",
    [("fs", m, k, n) for m, k, n in WALK_GRID]
    + [("std", m // 2, k, n) for m, k, n in WALK_GRID if m % 2 == 0]
    + [("std", 2, 2, 12)],
)
def test_listing_is_the_same_with_no_tail_built(monkeypatch, kind, rank, level, max_degree):
    # a block of 0 rows builds no tail (and writes each group on its own),
    # so every format is then written from one group per second-deepest slice
    argv = ["enumerate", "--kind", kind, "--rank", str(rank), "--level", str(level),
            "--max-degree", str(max_degree), "--format"]
    for fmt in ("csv", "json", "human"):
        tailed = output_digest(*argv, fmt)
        with monkeypatch.context() as patch:
            patch.setattr(listing, "BLOCK", 0)
            assert output_digest(*argv, fmt) == tailed, fmt


@pytest.mark.parametrize("kind, ranks", [("fs", range(1, 9)), ("std", range(1, 5))])
def test_factor_labels_need_no_csv_quoting(kind, ranks):
    """The enumerate CSV rows are written unquoted, which csv.writer matches only
    while no factor label holds a comma, a quote or a line break."""
    for rank in ranks:
        basis = BasisKind(kind, rank, 1)
        for a, b, v in _entries(_triangle_rank(basis), 3):
            label = str(Factor(Color(basis.alphabet, a, b), -v))
            assert not set(label) & set(',"\r\n'), (rank, label)


def refusing(tracker_type, key):
    """`tracker_type` that also refuses the partition `key`, by ``push`` and by ``fitting``."""

    class Refusing(tracker_type):
        def __init__(self, *args):
            super().__init__(*args)
            self.pushed = []

        def push(self, i):
            self.pushed.append(i)
            return super().push(i) and tuple(self.pushed) != key

        def pop(self, i):
            self.pushed.pop()
            super().pop(i)

        def fitting(self, lo, hi):
            return [i for i in super().fitting(lo, hi) if (*self.pushed, i) != key]

    return Refusing


def check_one_refused_partition(capsys, monkeypatch, refused, admitted_by):
    """verify-coincidence fails at degree -3, naming the partition, when the
    tracker class `refused` refuses one admissible partition there."""
    # two admissible degree -3 partitions of fs(2, 1): 22(-2) 12(-1) is
    # pushed, 22(-3) is a leaf to degree -5 and so decided by `fitting`
    entries = _entries(2, 5)
    for factors, label in [([(1, 2, 1), (2, 2, 2)], "22(-2) 12(-1)"), ([(2, 2, 3)], "22(-3)")]:
        key = tuple(entries.index(entry) for entry in factors)
        with monkeypatch.context() as patch:
            patch.setattr(basis_module, refused, refusing(getattr(basis_module, refused), key))
            code, out, _ = run(
                capsys, "verify-coincidence", "--ell", "1",
                "--level", "1", "--max-degree", "5",
            )
        assert code == 1
        lines = out.splitlines()
        assert [line.split()[-1] for line in lines[2:5]] == ["yes"] * 3
        assert lines[5:] == [
            f"    -3  NO  {label} is admitted by the {admitted_by} only",
            "coincidence FAILED",
        ]


def verify_coincidence_from_objects(ell, k, n) -> tuple[int, str]:
    """Exit code and output of verify-coincidence, by transporting partition objects."""
    fs_layers = enumerate_basis(BasisKind("fs", 2 * ell, k), n)
    std_layers = enumerate_basis(BasisKind("std", ell, k), n)
    out = io.StringIO()
    ok = True
    print(
        f"coincidence check: fs rank {2 * ell} vs std rank {ell}, level {k}", file=out
    )
    print("degree  count  agree", file=out)
    for m in range(n + 1):
        transported = {transport_partition(p, ell) for p in fs_layers[m]}
        match = transported == set(std_layers[m]) and len(transported) == len(
            fs_layers[m]
        )
        ok = ok and match
        print(f"{-m:6d}  {len(fs_layers[m]):5d}  {'yes' if match else 'NO'}", file=out)
    series_equal = [len(x) for x in fs_layers] == [len(x) for x in std_layers]
    ok = ok and series_equal
    print(f"graded series equal: {'yes' if series_equal else 'NO'}", file=out)
    print("coincidence verified" if ok else "coincidence FAILED", file=out)
    return (0 if ok else 1), out.getvalue()


@pytest.mark.parametrize("max_degree", [0, 1, 6])
@pytest.mark.parametrize("level", [1, 2])
@pytest.mark.parametrize("ell", [1, 2])
def test_verify_coincidence_matches_partition_objects(capsys, ell, level, max_degree):
    code, out, _ = run(
        capsys, "verify-coincidence", "--ell", str(ell), "--level", str(level),
        "--max-degree", str(max_degree),
    )
    expected_code, expected = verify_coincidence_from_objects(ell, level, max_degree)
    assert code == expected_code == 0
    got, want = out.splitlines(keepends=True), expected.splitlines(keepends=True)
    for n, (line, wanted) in enumerate(zip(got, want)):
        assert line == wanted, f"line {n}"
    assert len(got) == len(want)


class TestVerifiers:
    def test_coincidence(self, capsys):
        code, out, _ = run(
            capsys, "verify-coincidence", "--ell", "1",
            "--level", "1", "--max-degree", "6",
        )
        assert code == 0
        assert "coincidence verified" in out

    def test_coincidence_walks_both_sides(self, capsys, monkeypatch):
        # fs(2l) by path inequalities and std(l) by leading terms: one tracker
        # of each, pushed together in one walk, and no listing is kept
        built = []

        def counted(tracker_type):
            class Counted(tracker_type):
                def __init__(self, *args):
                    built.append(tracker_type)
                    super().__init__(*args)

            return Counted

        def no_listing(*args):
            raise AssertionError("the coincidence lists a walk")

        for name in ("_CutTracker", "_Tracker"):
            monkeypatch.setattr(basis_module, name, counted(getattr(basis_module, name)))
        monkeypatch.setattr(basis_module, "_enumerate_cached", no_listing)
        code, _, _ = run(
            capsys, "verify-coincidence", "--ell", "1",
            "--level", "2", "--max-degree", "5",
        )
        assert code == 0
        assert sorted(t.__name__ for t in built) == ["_CutTracker", "_Tracker"]

    def test_coincidence_detects_a_missing_std_partition(self, capsys, monkeypatch):
        check_one_refused_partition(capsys, monkeypatch, "_Tracker", "fs path inequalities")

    def test_coincidence_detects_a_missing_fs_partition(self, capsys, monkeypatch):
        check_one_refused_partition(capsys, monkeypatch, "_CutTracker", "std leading terms")

    def test_coincidence_checks_the_counts_against_the_series(self, capsys, monkeypatch):
        graded_series = cli.graded_series

        def off_by_one(basis, max_degree):
            coeffs = list(graded_series(basis, max_degree).coeffs)
            coeffs[3] += 1
            return QSeries(tuple(coeffs))

        monkeypatch.setattr(cli, "graded_series", off_by_one)
        code, out, _ = run(
            capsys, "verify-coincidence", "--ell", "1",
            "--level", "1", "--max-degree", "5",
        )
        assert code == 1
        assert out.splitlines()[-2:] == ["graded series equal: NO", "coincidence FAILED"]

    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is read in KiB, as on Linux")
    def test_coincidence_memory_is_bounded(self, tmp_path):
        # one walk that only counts: no listing is kept, so the peak does not
        # grow with the layers (keeping both walks' groups took about 79 MB)
        code, peak_kib = run_python_peak(
            tmp_path / "out", "-m", "cpbasis.cli", "verify-coincidence",
            "--ell", "2", "--level", "3", "--max-degree", "10",
        )
        assert code == 0
        assert (tmp_path / "out").read_text().endswith("coincidence verified\n")
        assert peak_kib < 40 * 1024

    def test_audit_oracle(self, capsys):
        code, out, _ = run(
            capsys, "audit-oracle", "--rank", "2", "--level", "1",
            "--max-window", "2",
        )
        assert code == 0
        assert json.loads(out)["mismatches"] == []

    def test_branching(self, capsys):
        code, out, _ = run(capsys, "verify-branching", "--ell", "2", "--max-m", "3")
        assert code == 0
        assert "10" in out and "branching verified" in out

    def test_rr(self, capsys):
        code, out, _ = run(capsys, "rr-check", "--max", "4")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[1].split() == ["1", "1", "1"]
        assert lines[4].split() == ["4", "2", "2"]

    def test_rr_large_max(self):
        # deep enough to overflow the stack of a recursive gap-two count
        proc = run_python("-m", "cpbasis.cli", "rr-check", "--max", "500")
        assert proc.returncode == 0
        assert "Traceback" not in proc.stderr
        assert proc.stdout.splitlines()[-1] == "counts agree"


class TestWeylDim:
    def test_dimension(self, capsys):
        code, out, _ = run(
            capsys, "weyl-dim", "--family", "C", "--rank", "2", "--weight", "2,0"
        )
        assert code == 0
        assert out.strip() == "10"

    def test_rational_weight(self, capsys):
        code, out, _ = run(
            capsys, "weyl-dim", "--family", "B", "--rank", "2", "--weight", "1/2,1/2"
        )
        assert code == 0
        assert out.strip() == "4"

    def test_negative_weight_after_equals_sign(self, capsys):
        code, out, _ = run(
            capsys, "weyl-dim", "--family", "A", "--rank", "1", "--weight=-1,-1"
        )
        assert code == 0
        assert out.strip() == "1"

    def test_negative_weight_as_separate_value_is_usage_error(self):
        # argparse takes a value that starts with "-" for an option
        proc = run_python(
            "-m", "cpbasis.cli", "weyl-dim", "--family", "A", "--rank", "1",
            "--weight", "-1,-1",
        )
        assert proc.returncode == 2
        assert "usage:" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_zero_denominator_names_the_coordinate(self, capsys):
        code, out, err = run(
            capsys, "weyl-dim", "--family", "C", "--rank", "2", "--weight=1/0,1"
        )
        assert code == 2
        assert out == ""
        assert err == "error: zero denominator in weight coordinate '1/0'\n"

    def test_non_dominant_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "weyl-dim", "--family", "C", "--rank", "2", "--weight", "1,2"
        )
        assert code == 2
        assert "error" in err


class TestUsageErrors:
    def test_unknown_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["series", "--kind", "std", "--rank", "1", "--level", "1",
                  "--max-degree", "2", "--bogus"])
        assert exc.value.code == 2

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["series", "enumerate"])
    @pytest.mark.parametrize(
        "flag, value", [("--max-degree", "-1"), ("--rank", "0"), ("--level", "0")]
    )
    def test_out_of_range_value(self, command, flag, value):
        flags = {"--kind": "fs", "--rank": "2", "--level": "1", "--max-degree": "3"}
        flags[flag] = value
        argv = [item for pair in flags.items() for item in pair]
        proc = run_python("-m", "cpbasis.cli", command, *argv)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "ell, max_m", [("2", "0"), ("0", "3")], ids=["empty-grid", "zero-ell"]
    )
    def test_verify_branching_out_of_range(self, ell, max_m):
        proc = run_python(
            "-m", "cpbasis.cli", "verify-branching", "--ell", ell, "--max-m", max_m
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr


# every subcommand's flags; the value sizes below keep each run small
INT_FLAGS = {
    "leading-terms": ["--rank", "--level", "--window"],
    "enumerate": ["--rank", "--level", "--max-degree"],
    "series": ["--rank", "--level", "--max-degree"],
    "verify-coincidence": ["--ell", "--level", "--max-degree"],
    "audit-oracle": ["--rank", "--level", "--max-window"],
    "weyl-dim": ["--rank"],
    "verify-branching": ["--ell", "--max-m"],
    "rr-check": ["--max"],
}
CHOICE_FLAGS = {
    "leading-terms": {"--kind": ["fs", "std"], "--format": ["human", "json", "csv"]},
    "enumerate": {"--kind": ["fs", "std"], "--format": ["human", "json", "csv"]},
    "series": {"--kind": ["fs", "std"]},
    "weyl-dim": {"--family": ["A", "B", "C", "D"]},
}
NOT_INTEGERS = ["x", "", "1.5", "0x1", "1e3", "3/2", "--"]
WEIGHTS = ["1/0", "1,,", "x", "", ",", "1,0", "1/2,1/2", "0,0,0", "-1", "nan", "2,0"]


@st.composite
def cli_argv(draw):
    """A subcommand with small, garbage or missing values; and whether it is misused."""
    command = draw(st.sampled_from(sorted(INT_FLAGS)))
    argv, misuse = [command], False

    def flag(name, good, bad):
        nonlocal misuse
        choice = draw(st.sampled_from(["good", "good", "good", "bad", "missing"]))
        if choice == "missing":
            misuse = misuse or name != "--format"
            return
        if choice == "bad":
            misuse = True
            argv.extend([name, draw(st.sampled_from(bad))])
        else:
            argv.extend([name, draw(good)])

    for name, choices in CHOICE_FLAGS.get(command, {}).items():
        flag(name, st.sampled_from(choices), ["E", "xml", "", "FS"])
    for name in INT_FLAGS[command]:
        flag(name, st.integers(-2, 2).map(str), NOT_INTEGERS)
    if command == "weyl-dim":
        fractions = st.fractions(min_value=-2, max_value=2, max_denominator=3).map(str)
        weights = st.lists(fractions, min_size=1, max_size=3).map(",".join)
        value = draw(st.one_of(st.sampled_from(WEIGHTS), weights))
        argv.append(f"--weight={value}")
    if draw(st.integers(0, 9)) == 0:
        misuse = True
        argv.append(draw(st.sampled_from(["--bogus", "extra", "-x"])))
    return argv, misuse


@settings(max_examples=300, deadline=None)
@given(case=cli_argv())
@example(case=(["weyl-dim", "--family", "C", "--rank", "2", "--weight=1/0"], False))
@example(case=(["weyl-dim", "--family", "C", "--rank", "2", "--weight=1,,"], False))
@example(case=(["weyl-dim", "--family", "B", "--rank", "2", "--weight=x"], False))
@example(case=(["rr-check", "--max", "x"], True))
def test_fuzzed_arguments_exit_cleanly(case):
    argv, misuse = case
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2)
    if misuse:
        assert code == 2
    if code == 2:
        assert err.getvalue().startswith(("usage:", "error:"))
    else:
        assert err.getvalue() == ""
    assert "Traceback" not in err.getvalue()
