"""Command-line front end with machine-readable output.

Every run is deterministic for fixed flags.  Exit codes: 0 = success or
verified, 1 = verification failure, 2 = usage error, 141 = stdout closed
by its reader (128 + SIGPIPE, as in ``cpbasis enumerate ... | head``).
Human-readable tables go to stdout; `--format json|csv` switches to
structured output; diagnostics go to stderr.

Each command imports what it runs when it runs.  Of the package only
`series` (with `_frozen`) is loaded up front, so `series` compiles the
counting code alone; `enumerate` and `verify-coincidence` load `basis`
(with `leading` and `partitions`), `enumerate` also `listing`, and none of
them loads the oracle, the root data or `fractions`.

`enumerate` streams its rows as paths in the window-1 slice graph (see
`listing`): each slice is written once per degree as a piece, a row is
its layer's head, then the pieces of its slices, deepest first, then its
end, and the rows that share all but their two deepest slices go out in
one ``str.join`` over a tail of their last two pieces, cached while a
shape lasts if it holds at most one block of rows.  It writes blocks of
about 1024 rows, one write per block, streaming even its JSON listing,
and counts each layer of the human listing with a pass over the same
paths before it writes the layer.  Only the commands that write JSON
import `json`.
`leading-terms` writes its rows, JSON included, as it formats each
sorted term.
`verify-coincidence` counts each layer over the groups of one
`basis._walk` of both conditions' trackers together (`basis._Pair`, whose
``fitting`` records each entry that one condition accepts alone), so it
holds no listing; it checks the counts against `graded_series`, and on a
disagreement names a partition of the least degree where the conditions
differ.  No command holds a listing.
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import groupby, islice
from operator import add

from .series import BasisKind, graded_series, rr_counts


def _leading_rows(kind: str, rank: int, level: int, window: int):
    """The window's term count and its terms in ascending `sort_key` order, formatted from `rows`.

    Each term comes out as ``(split, labels)`` as it is sorted out.  On one
    window every term has k+1 factors, and its degree falls as its split
    grows.  Within a split the offsets sit at the same places, so the order
    compares the (a, b, offset) keys from the last factor down, the larger
    first.
    """
    from .leading import check_window, rows
    from .partitions import Factor

    basis = BasisKind(kind, rank, level)
    check_window(rank, level, window)
    alphabet = basis.alphabet
    terms = []
    for row in rows(alphabet.index_bound, level):
        keys = [key for key, e in row for _ in range(e)]
        split = sum(e for (_, _, offset), e in row if offset)
        terms.append((split, keys[::-1]))
    terms.sort(reverse=True)
    # one label per (a, b, offset), the color at degree -window-offset
    labels = {
        (color.a, color.b, offset): str(Factor(color, -window - offset))
        for color in alphabet.colors()
        for offset in (0, 1)
    }
    return len(terms), (
        (split, [labels[key] for key in reversed(keys)]) for split, keys in terms
    )


def _cmd_leading_terms(args) -> int:
    count, terms = _leading_rows(args.kind, args.rank, args.level, args.window)
    if args.format == "json":
        import json

        # the envelope as json.dumps writes it, with the terms streamed into
        # its list as `enumerate` streams its elements
        head = json.dumps(
            {
                "kind": args.kind,
                "rank": args.rank,
                "level": args.level,
                "window": args.window,
                "terms": [],
            }
        )
        sys.stdout.write(head[:-2])
        _write_lines(
            (", " if i else "")
            + json.dumps({"window": args.window, "split": split, "factors": f})
            for i, (split, f) in enumerate(terms)
        )
        sys.stdout.write("]}\n")
    elif args.format == "csv":
        # the bytes csv.writer writes, as no label needs quoting (see the enumerate CSV)
        sys.stdout.write("window,split,factors\r\n")
        _write_lines(f"{args.window},{split},{' '.join(f)}\r\n" for split, f in terms)
    else:
        print(f"leading terms: kind={args.kind} rank={args.rank} "
              f"level={args.level} window={args.window} ({count} terms)")
        _write_lines(f"  split={split}  {' '.join(f)}\n" for split, f in terms)
    return 0


def _cmd_enumerate(args) -> int:
    from .basis import _slice_graph

    basis = BasisKind(args.kind, args.rank, args.level)
    graph = _slice_graph(basis, args.max_degree)
    # a row is its head, then its factor labels in canonical order, deepest
    # degree first, then its end; degree 0 holds the empty partition alone
    if args.format == "json":
        import json

        # the envelope as json.dumps writes it, with the elements streamed
        # into its list
        head = json.dumps(
            {
                "kind": args.kind,
                "rank": args.rank,
                "level": args.level,
                "truncation": args.max_degree,
                "elements": [],
            }
        )
        sys.stdout.write(head[:-2] + json.dumps({"degree": 0, "factors": []}))
        quoted = _piece(basis.alphabet, lambda labels: ", ".join(map(json.dumps, labels)))
        _write_rows(graph, quoted, ", ", ', {{"degree": {}, "factors": [', "]}")
        sys.stdout.write("]}\n")
    elif args.format == "csv":
        # no label holds a comma, a quote or a line break, so csv.writer
        # would quote no field and these rows are the bytes it writes
        sys.stdout.write("degree,factors\r\n0,\r\n")
        _write_rows(graph, _piece(basis.alphabet, " ".join), " ", "{},", "\r\n")
    else:
        print(f"admissible partitions: kind={args.kind} rank={args.rank} "
              f"level={args.level} down to degree -{args.max_degree}")
        print("degree -0: 1 elements\n  1")
        _write_rows(graph, _piece(basis.alphabet, _powers), " ", "  ", "\n", graph.counts())
    return 0


def _piece(alphabet, write):
    """``piece(colors, d)`` of a `listing.SliceGraph`: ``write`` of the slice's labels in canonical order.

    A slice lists its color positions ascending, so canonical order, by
    descending color within a degree, reads them in reverse.
    """
    from .partitions import Factor

    colors = alphabet.colors()
    labels: dict[int, list[str]] = {}

    def piece(slice, d):
        found = labels.get(d)
        if found is None:
            found = labels[d] = [str(Factor(color, -d)) for color in colors]
        return write([found[x] for x in reversed(slice)])

    return piece


def _powers(labels: list[str]) -> str:
    """Labels as ``ColoredPartition.__str__`` writes them: a run of one label as a power."""
    runs = [(label, len([*run])) for label, run in groupby(labels)]
    return " ".join([label if e == 1 else f"{label}^{e}" for label, e in runs])


def _write_rows(graph, piece, sep, head, end, counts=None):
    """Write layers 1..N of `graph` as rows ``head, pieces joined by sep, end``.

    ``head`` is formatted with the layer's degree.  A group of rows, those
    that share all but their two deepest slices, goes out in one
    ``str.join`` over its cached tail, and groups are written in blocks of
    about `listing.BLOCK` rows, one write per block, as in `_write_lines`.
    With `counts`, the human listing's per-layer counts, each layer starts
    with its count line.
    """
    from .listing import BLOCK

    write = sys.stdout.write
    for n, layer in enumerate(graph.layers(piece, lambda acc, p: sep + p + acc, add, ""), 1):
        if counts is not None:
            write(f"degree -{n}: {next(counts)} elements\n")
        lead = head.format(-n)
        block, rows = [], 0
        for acc, tail in layer:
            acc += end
            block.append(lead + (acc + lead).join(tail) + acc)
            rows += len(tail)
            if rows >= BLOCK:
                write("".join(block))
                block, rows = [], 0
        write("".join(block))


def _write_lines(lines) -> None:
    """Write finished lines to stdout, joined 1024 at a time, one ``write`` per block.

    The bound keeps a long layer from being held as one string.
    """
    lines = iter(lines)
    while block := list(islice(lines, 1024)):
        sys.stdout.write("".join(block))


def _cmd_series(args) -> int:
    import json

    basis = BasisKind(args.kind, args.rank, args.level)
    series = graded_series(basis, args.max_degree)
    print(
        json.dumps(
            {
                "kind": args.kind,
                "rank": args.rank,
                "level": args.level,
                "truncation": args.max_degree,
                "coeffs": list(series.coeffs),
            }
        )
    )
    return 0


def _cmd_verify_coincidence(args) -> int:
    from .basis import _entries, _Pair, _partitions, _walk

    ell, k, n = args.ell, args.level, args.max_degree
    # iota is the identity on (a, b) encodings, so one walk over fs(2l) keys
    # tests both conditions: path inequalities for fs(2l), leading terms for std(l)
    basis = BasisKind("fs", 2 * ell, k)
    series = graded_series(basis, n).coeffs
    pair = _Pair(2 * ell, k, n)
    counts = [1] + [0] * n
    for total, _, ids in _walk(pair, n, n):
        counts[total] += len(ids)
    entries = _entries(2 * ell, n)
    # the least degree where the conditions differ, with one partition there
    failed = min(((sum(entries[i][2] for i in key), key, by_cut)
                  for key, by_cut in pair.disagreements), default=None)
    print(f"coincidence check: fs rank {2 * ell} vs std rank {ell}, level {k}")
    # one count per degree: `agree` means no disagreement was recorded there
    print("degree  count  agree")
    for m in range(failed[0] if failed else n + 1):
        print(f"{-m:6d}  {counts[m]:5d}  yes")
    if failed:
        d, key, by_cut = failed
        side = "fs path inequalities" if by_cut else "std leading terms"
        (pi,) = _partitions(basis.alphabet, entries, [key])
        print(f"{-d:6d}  NO  {pi} is admitted by the {side} only")
        print("coincidence FAILED")
        return 1
    # the walk's counts against the transfer matrix, an independent route
    series_equal = counts == list(series)
    print(f"graded series equal: {'yes' if series_equal else 'NO'}")
    print("coincidence verified" if series_equal else "coincidence FAILED")
    return 0 if series_equal else 1


def _cmd_audit_oracle(args) -> int:
    import json

    from .oracle import audit_windows

    report = audit_windows(args.rank, args.level, args.max_window)
    print(json.dumps(report.to_json()))
    return 0 if report.ok else 1


def _coordinate(text: str):
    """One ``--weight`` coordinate as a `Fraction`: an integer or one such as ``1/2``."""
    from fractions import Fraction

    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in weight coordinate {text!r}") from None


def _cmd_weyl_dim(args) -> int:
    from .rootdata import RootSystemSpec, weight, weyl_dim

    spec = RootSystemSpec(args.family, args.rank)
    lam = weight(spec, [_coordinate(c) for c in args.weight.split(",")])
    print(weyl_dim(spec, lam))
    return 0


def _cmd_verify_branching(args) -> int:
    if args.ell < 1 or args.max_m < 1:
        raise ValueError("ell and max-m must be positive")
    from .rootdata import branching_dimensions

    ok = True
    print("ell  m  symplectic-dim  special-linear-dim  binomial  match")
    for m in range(1, args.max_m + 1):
        c_dim, a_dim, binom = branching_dimensions(args.ell, m)
        match = c_dim == a_dim == binom
        ok = ok and match
        print(
            f"{args.ell:3d}  {m}  {c_dim:14d}  {a_dim:18d}  {binom:8d}  "
            f"{'yes' if match else 'NO'}"
        )
    print("branching verified" if ok else "branching FAILED")
    return 0 if ok else 1


def _cmd_rr_check(args) -> int:
    rows = rr_counts(args.max)
    ok = all(c == d for _, c, d in rows)
    print("m  congruence-count  gap-count")
    for m, c, d in rows:
        print(f"{m}  {c}  {d}")
    print("counts agree" if ok else "counts DISAGREE")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpbasis",
        description="Monomial-basis combinatorics for symplectic affine Lie algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_kind_flags(p, with_window=False, with_max_degree=False, with_format=True):
        p.add_argument("--kind", choices=["fs", "std"], required=True)
        p.add_argument("--rank", type=int, required=True)
        p.add_argument("--level", type=int, required=True)
        if with_window:
            p.add_argument("--window", type=int, required=True)
        if with_max_degree:
            p.add_argument("--max-degree", type=int, required=True)
        if with_format:
            p.add_argument(
                "--format", choices=["human", "json", "csv"], default="human"
            )

    p = sub.add_parser("leading-terms", help="closed-form leading terms on one window")
    add_kind_flags(p, with_window=True)
    p.set_defaults(func=_cmd_leading_terms)

    p = sub.add_parser("enumerate", help="admissible partitions by degree")
    add_kind_flags(p, with_max_degree=True)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("series", help="graded series of admissible partitions (JSON)")
    add_kind_flags(p, with_max_degree=True, with_format=False)
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser(
        "verify-coincidence",
        help="transport bijection and series equality between fs(2l) and std(l)",
    )
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--max-degree", type=int, required=True)
    p.set_defaults(func=_cmd_verify_coincidence)

    p = sub.add_parser(
        "audit-oracle", help="brute-force audit of the leading-term generators (JSON)"
    )
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--max-window", type=int, required=True)
    p.set_defaults(func=_cmd_audit_oracle)

    p = sub.add_parser("weyl-dim", help="exact dimension of an irreducible module")
    p.add_argument("--family", choices=["A", "B", "C", "D"], required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument(
        "--weight",
        required=True,
        help="comma-separated rational coordinates; "
        "write --weight=-1,-1 when the first is negative",
    )
    p.set_defaults(func=_cmd_weyl_dim)

    p = sub.add_parser(
        "verify-branching", help="rank-doubling dimension identity, m = 1..max-m"
    )
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--max-m", type=int, required=True)
    p.set_defaults(func=_cmd_verify_branching)

    p = sub.add_parser("rr-check", help="Rogers-Ramanujan counting demo")
    p.add_argument("--max", type=int, required=True)
    p.set_defaults(func=_cmd_rr_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (`| head`): exit as SIGPIPE would, 128 + 13,
        # with stdout on devnull so the flush at shutdown cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    console_main()
