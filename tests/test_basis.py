"""Admissibility checkers, enumeration engines, series and counting demos."""

from __future__ import annotations

import builtins
import gc
import hashlib
import json
import random
from array import array
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import product

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import (
    WALK_GRID,
    DiagonalPath,
    diagonal_paths,
    gen_partitions,
    path_leading_terms,
    transport_partition_inverse,
)
from cpbasis import basis as basis_module, leading, listing as listing_module
from cpbasis.ident import transport_partition
from cpbasis.basis import (
    _CutTracker,
    _cuts_fit,
    _entries,
    _enumerate_cached,
    _Pair,
    _slice_graph,
    _term_masks,
    _terms_fit,
    _Tracker,
    _walk,
    admissible_by_divisibility,
    admissible_by_inequalities,
    enumerate_basis,
    enumerate_keys,
    leading_terms,
)
from cpbasis.listing import SliceGraph
from cpbasis.partitions import (
    ColoredPartition,
    Factor,
    divides,
    full_scheme,
    unit,
    upper_scheme,
)
from cpbasis.series import (
    BasisKind,
    QSeries,
    _cut_profiles,
    character_oracle,
    graded_series,
    rr_counts,
)


def partition_series(max_degree):
    """The generating series of ordinary partitions, prod 1/(1-q^n)."""
    coeffs = [1] + [0] * max_degree
    for part in range(1, max_degree + 1):
        for m in range(part, max_degree + 1):
            coeffs[m] += coeffs[m - part]
    return QSeries(tuple(coeffs))


def theta_series(max_degree):
    """Sum of q^(m^2) over all integers m, truncated."""
    coeffs = [0] * (max_degree + 1)
    coeffs[0] = 1
    m = 1
    while m * m <= max_degree:
        coeffs[m * m] = 2
        m += 1
    return QSeries(tuple(coeffs))


def theta_route_character(max_degree):
    """Graded dimension of the rank-1 level-1 vacuum module, by a route of its own.

    The series product (sum over the root lattice of q^(m^2)) / (q; q)_infinity,
    independent of any enumeration and of the general Weyl-Kac sum.
    """
    return theta_series(max_degree) * partition_series(max_degree)


def up_part(m, *facs):
    return ColoredPartition.from_pairs(upper_scheme(m), *facs)


def full_part(ell, *facs):
    return ColoredPartition.from_pairs(full_scheme(ell), *facs)


class TestAdmissibility:
    def test_empty_partition(self):
        assert admissible_by_divisibility(unit(upper_scheme(2)), BasisKind("fs", 2, 1))
        assert admissible_by_divisibility(unit(full_scheme(2)), BasisKind("std", 2, 1))
        assert admissible_by_inequalities(unit(upper_scheme(2)), BasisKind("fs", 2, 1))

    @pytest.mark.parametrize("k", [1, 2])
    def test_top_color_power_rejected(self, k):
        fs_pi = up_part(2, *([((1, 1), -1)] * (k + 1)))
        std_pi = full_part(2, *([((1, 1), -1)] * (k + 1)))
        assert not admissible_by_divisibility(fs_pi, BasisKind("fs", 2, k))
        assert not admissible_by_inequalities(fs_pi, BasisKind("fs", 2, k))
        assert not admissible_by_divisibility(std_pi, BasisKind("std", 2, k))

    def test_rank_two_level_one_pairs(self):
        basis = BasisKind("fs", 2, 1)
        bad = up_part(2, ((1, 2), -1), ((1, 1), -1))
        good = up_part(2, ((2, 2), -1), ((1, 1), -1))
        assert not admissible_by_divisibility(bad, basis)
        assert not admissible_by_inequalities(bad, basis)
        assert admissible_by_divisibility(good, basis)
        assert admissible_by_inequalities(good, basis)

    def test_single_factor_always_admissible(self):
        basis = BasisKind("fs", 2, 1)
        for c in upper_scheme(2).colors():
            pi = ColoredPartition.from_pairs(upper_scheme(2), ((c.a, c.b), -3))
            assert admissible_by_divisibility(pi, basis)
            assert admissible_by_inequalities(pi, basis)

    def test_split_pair_rejected(self):
        # the (1,1)|(2,2) chain makes this two-degree pair inadmissible
        basis = BasisKind("fs", 2, 1)
        pi = up_part(2, ((1, 1), -2), ((2, 2), -1))
        assert not admissible_by_divisibility(pi, basis)
        assert not admissible_by_inequalities(pi, basis)

    def test_std_kind_inequalities_rejected(self):
        with pytest.raises(ValueError):
            admissible_by_inequalities(unit(full_scheme(1)), BasisKind("std", 1, 1))

    def test_wrong_alphabet_rejected(self):
        with pytest.raises(ValueError):
            admissible_by_divisibility(unit(upper_scheme(2)), BasisKind("fs", 3, 1))

    def test_nonnegative_degree_rejected(self):
        basis = BasisKind("fs", 1, 1)
        for pi in (up_part(1, ((1, 1), 0)), up_part(1, ((1, 1), -3), ((1, 1), 2))):
            with pytest.raises(ValueError):
                admissible_by_divisibility(pi, basis)
            with pytest.raises(ValueError):
                admissible_by_inequalities(pi, basis)

    @pytest.mark.parametrize("rank,k", [(1, 1), (2, 1), (2, 2)])
    def test_checkers_agree_pointwise(self, rank, k):
        basis = BasisKind("fs", rank, k)
        for pi in gen_partitions(upper_scheme(rank), 6):
            assert admissible_by_divisibility(pi, basis) == admissible_by_inequalities(
                pi, basis
            )

    def test_std_checker_matches_transported_inequalities(self):
        ell, k = 1, 1
        std = BasisKind("std", ell, k)
        fs = BasisKind("fs", 2 * ell, k)
        for pi in gen_partitions(full_scheme(ell), 6):
            pulled = transport_partition_inverse(pi, ell)
            assert admissible_by_divisibility(pi, std) == admissible_by_inequalities(
                pulled, fs
            )

    def test_pure_minus_one_window_is_checked(self):
        # partitions supported entirely in degree -1 still hit window 1
        basis = BasisKind("fs", 2, 1)
        pi = up_part(2, ((2, 2), -1), ((2, 2), -1))
        assert not admissible_by_divisibility(pi, basis)
        assert not admissible_by_inequalities(pi, basis)

    def test_sparse_partition_compiles_no_terms(self):
        # no window holds more than k = 3 factors, so no leading term can
        # divide and fs(16, 3)'s term family is never compiled
        _term_masks.cache_clear()
        leading.rows.cache_clear()
        basis = BasisKind("fs", 16, 3)
        pi = up_part(16, ((1, 1), -2), ((1, 16), -1), ((16, 16), -1))
        assert admissible_by_divisibility(pi, basis)
        assert _term_masks.cache_info().currsize == 0
        assert leading.rows.cache_info().currsize == 0
        assert admissible_by_inequalities(pi, basis)

    @pytest.mark.parametrize(
        "factors, expected",
        [
            ((((1, 4), -100000), ((1, 4), -100000), ((2, 3), -100000)), False),
            ((((4, 4), -100000), ((1, 1), -99999), ((1, 1), -99999)), True),
            ((((1, 1), -100001), ((1, 4), -100000), ((1, 4), -100000)), False),
        ],
    )
    def test_deep_partition_is_checked_at_its_own_size(self, monkeypatch, factors, expected):
        # a check reads the degrees the partition holds, not their depth: the
        # deepest compact degree its decision reads is at most 2 per held degree
        depths = []

        def recorded(fits):
            def decide(keys, m, k):
                depths.append(keys[-1] // (m * (m + 1) // 2) + 1)
                return fits(keys, m, k)

            return decide

        for name in ("_terms_fit", "_cuts_fit"):
            monkeypatch.setattr(basis_module, name, recorded(getattr(basis_module, name)))
        basis = BasisKind("fs", 4, 2)
        pi = up_part(4, *factors)
        assert admissible_by_divisibility(pi, basis) is expected
        assert admissible_by_inequalities(pi, basis) is expected
        assert depths and max(depths) <= 2 * len({f.degree for f in pi.factors})

    def test_point_check_runs_no_import(self, monkeypatch):
        # an import statement on the check path costs every check some
        # microseconds, as a function-local import in `BasisKind.alphabet` would
        fs, std = BasisKind("fs", 4, 2), BasisKind("std", 2, 2)
        samples = [
            up_part(4, ((1, 1), -1), ((1, 1), -1), ((1, 1), -1)),
            up_part(4, ((1, 1), -2), ((2, 3), -2), ((1, 4), -1)),
            up_part(4, ((1, 2), -3), ((3, 4), -3), ((2, 2), -5), ((1, 4), -7)),
            up_part(4, ((4, 4), -41), ((1, 1), -40), ((2, 3), -40), ((1, 1), -39)),
        ]

        def decide(partitions):
            return [
                (
                    admissible_by_inequalities(pi, fs),
                    admissible_by_divisibility(pi, fs),
                    admissible_by_divisibility(transport_partition(pi, 2), std),
                )
                for pi in partitions
            ]

        def refuse(name, *args, **kwargs):
            raise ImportError(f"a point check imports {name!r}")

        verdicts = decide(samples)  # warms the caches
        # built before the patch, never checked and never transported: their
        # first checks encode them, and their transports build new images.
        # Moved 100 degrees deeper, which changes no verdict (window
        # invariance), so the images' factors are new to the std table too.
        fresh = [
            up_part(4, *((f.color.pair, f.degree - 100) for f in pi.factors)) for pi in samples
        ]
        assert all(pi._code is None for pi in fresh)
        monkeypatch.setattr(builtins, "__import__", refuse)
        try:
            again = decide(samples)
            first = decide(fresh)
        finally:
            monkeypatch.undo()
        assert again == first == verdicts
        assert {v for row in verdicts for v in row} == {False, True}
        assert all(len(set(row)) == 1 for row in verdicts)


VERDICT_SCHEMES = [("fs", 1), ("fs", 2), ("fs", 3), ("fs", 4), ("std", 1), ("std", 2)]
# the sha256 of `verdict_rows()` before point checks kept their encoding
VERDICT_DIGEST = "c676918922579561e35afde4ae066d5284ecc85ff4cfe5eb1b238be70ad067cc"


def verdict_samples(per_scheme=1000, seed=2033):
    """Seeded ``(kind, rank, pairs)``, `per_scheme` for each of `VERDICT_SCHEMES`.

    Up to 9 factors, all within a depth drawn from 1, 2, 3, 5, 8 and 40,
    so both verdicts occur at every level 1..3, and deep ones hold gaps.
    """
    rng = random.Random(seed)
    for kind, rank in VERDICT_SCHEMES:
        alphabet = BasisKind(kind, rank, 1).alphabet
        pairs = [c.pair for c in alphabet.colors()]
        for _ in range(per_scheme):
            depth = rng.choice((1, 2, 3, 5, 8, 40))
            size = rng.randint(0, 9)
            yield kind, rank, tuple(
                (rng.choice(pairs), -rng.randint(1, depth)) for _ in range(size)
            )


def verdict_routes(kind, rank, k, p, image):
    """The routes that decide `p` at level k, each a call; `image()` is p in the other scheme.

    An fs partition is decided by both conditions, and by divisibility
    after transport when its rank is even; a std partition by divisibility,
    and by both conditions over the rank-2*rank triangle.
    """
    if kind == "fs":
        fs = BasisKind("fs", rank, k)
        yield lambda: admissible_by_inequalities(p, fs)
        yield lambda: admissible_by_divisibility(p, fs)
        if rank % 2 == 0:
            yield lambda: admissible_by_divisibility(image(), BasisKind("std", rank // 2, k))
    else:
        fs = BasisKind("fs", 2 * rank, k)
        yield lambda: admissible_by_divisibility(p, BasisKind("std", rank, k))
        yield lambda: admissible_by_inequalities(image(), fs)
        yield lambda: admissible_by_divisibility(image(), fs)


def verdict_rows(per_scheme=1000, seed=2033):
    """Per sample of `verdict_samples`, the verdicts of its routes at levels 1, 2 and 3.

    Each sample is built twice.  At every level, in a seeded shuffled order
    of the levels, one copy is decided by its routes in order, each with a
    new image, and the other in reverse order, with one image kept across
    the levels; the two must agree.
    """
    rng = random.Random(seed + 1)
    rows = []
    for kind, rank, pairs in verdict_samples(per_scheme, seed):
        alphabet = BasisKind(kind, rank, 1).alphabet
        forward, backward = (ColoredPartition.from_pairs(alphabet, *pairs) for _ in "fb")
        kept = []

        def image(p=forward):
            if kind == "fs":
                return transport_partition(p, rank // 2)
            return up_part(2 * rank, *pairs)

        def kept_image():
            if not kept:
                kept.append(image(backward))
            return kept[0]

        levels = [1, 2, 3]
        rng.shuffle(levels)
        row = {}
        for k in levels:
            ahead = [route() for route in verdict_routes(kind, rank, k, forward, image)]
            behind = [
                route()
                for route in reversed(list(verdict_routes(kind, rank, k, backward, kept_image)))
            ]
            assert ahead == behind[::-1], (kind, rank, k, pairs)
            row[k] = ahead
        rows.append([row[k] for k in (1, 2, 3)])
    return rows


def test_verdicts_match_the_recorded_digest():
    # an encoding kept per partition must serve every route and every level
    # exactly as a fresh one did; the digest was taken before it was kept
    rows = verdict_rows()
    assert len(rows) == 6000
    assert all(len(set(verdicts)) == 1 for row in rows for verdicts in row)
    flat = [verdicts[0] for row in rows for verdicts in row]
    assert 0.3 < sum(flat) / len(flat) < 0.7
    assert sum(len({verdicts[0] for verdicts in row}) > 1 for row in rows) > 500
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == VERDICT_DIGEST


def test_transported_image_starts_without_an_encoding():
    fs, std = BasisKind("fs", 4, 2), BasisKind("std", 2, 2)
    pi = up_part(4, ((1, 1), -2), ((2, 3), -2), ((1, 4), -1), ((1, 1), -1))
    assert pi._code is None
    assert not admissible_by_inequalities(pi, fs)
    assert pi._code is not None
    image = transport_partition(pi, 2)
    assert image._code is None
    assert not admissible_by_divisibility(image, std)
    # iota is the identity on encodings, so the image encodes as its source
    assert image._code == pi._code
    assert transport_partition(pi, 2)._code is None


@st.composite
def deep_fs_partitions(draw):
    """An fs basis of rank <= 4 and level <= 2 with a partition of degree -11..-16."""
    rank = draw(st.integers(min_value=1, max_value=4))
    basis = BasisKind("fs", rank, draw(st.integers(min_value=1, max_value=2)))
    colors = upper_scheme(rank).colors()
    left = draw(st.integers(min_value=11, max_value=16))
    factors = []
    while left:
        part = draw(st.integers(min_value=1, max_value=left))
        color = draw(st.sampled_from(colors))
        factors.append(((color.a, color.b), -part))
        left -= part
    return basis, up_part(rank, *factors)


@settings(max_examples=100, deadline=None)
@given(case=deep_fs_partitions())
def test_checkers_agree_beyond_enumerated_degrees(case):
    # the enumerations of AC-4 compare the checkers down to degree -10 only
    basis, pi = case
    assert admissible_by_divisibility(pi, basis) == admissible_by_inequalities(pi, basis)


@lru_cache(maxsize=None)
def _all_paths(m: int) -> tuple:
    """Every diagonal path of rank m, reduced to (upper colors, lower colors) sets."""
    seen = set()
    for path in diagonal_paths(m, 2 * m):
        seen.add((frozenset(path.upper_block), frozenset(path.lower_block)))
    return tuple(sorted(seen, key=lambda ul: (sorted(ul[0]), sorted(ul[1]))))


@lru_cache(maxsize=None)
def _maximal_paths(m: int) -> tuple:
    """Paths not contained block-wise in another, as (upper, lower) pair sets.

    A path's upper block lies within its outermost pair (i, c) and its
    lower block starts at c or later (the cut lemma behind
    `_cut_profiles`).  So the maximal paths are, for each cut c = 1..m, a
    maximal chain down from (1, c) as upper block and one down from
    (c, m) as lower block, each step taking (i, j) to (i+1, j) or
    (i, j-1) until the chain reaches the diagonal: m * 2^(m-1) paths,
    sorted by their sorted blocks.
    """

    def chains(i: int, j: int) -> list[tuple[tuple[int, int], ...]]:
        if i == j:
            return [((i, j),)]
        return [((i, j),) + rest for rest in chains(i + 1, j) + chains(i, j - 1)]

    paths = [
        (frozenset(upper), frozenset(lower))
        for c in range(1, m + 1)
        for upper in chains(1, c)
        for lower in chains(c, m)
    ]
    return tuple(sorted(paths, key=lambda ul: (sorted(ul[0]), sorted(ul[1]))))


@lru_cache(maxsize=None)
def reference_terms(basis, d):
    """The leading terms of window d as factor-count dicts."""
    return tuple(dict(term.factor_counts()) for term in leading_terms(basis, d))


def reference_divisibility(pi, basis):
    """Term by term: no leading term of windows 1..max(1, |lowest degree|-1) divides `pi`."""
    if not pi.factors:
        return True
    counts = pi.factor_counts()
    windows = max(1, -min(f.degree for f in pi.factors) - 1)
    return not any(
        all(counts[f] >= e for f, e in term.items())
        for d in range(1, windows + 1)
        for term in reference_terms(basis, d)
    )


def reference_inequalities(pi, basis):
    """Path sums over every diagonal path of every window, maximal or not."""
    mult = Counter((f.color.a, f.color.b, -f.degree) for f in pi.factors)
    depth = max((v for _, _, v in mult), default=0)
    return all(
        sum(mult[a, b, d + 1] for a, b in upper) + sum(mult[a, b, d] for a, b in lower)
        <= basis.level
        for d in range(1, depth + 1)
        for upper, lower in _all_paths(basis.rank)
    )


@st.composite
def checker_cases(draw):
    """A basis (fs rank <= 4 or std rank <= 2, level <= 5) and a partition over it.

    Either a few factors anywhere down to degree -16, or up to 2k+2 copies
    each of a few colors on the two degrees of one window, so that windows
    holding exactly k+1 factors and long single-window inputs both occur.
    """
    kind = draw(st.sampled_from(["fs", "std"]))
    rank = draw(st.integers(min_value=1, max_value=4 if kind == "fs" else 2))
    level = draw(st.integers(min_value=1, max_value=5))
    basis = BasisKind(kind, rank, level)
    colors = st.sampled_from(basis.alphabet.colors())
    if draw(st.booleans()):
        factors = draw(
            st.lists(st.tuples(colors, st.integers(min_value=-16, max_value=-1)), max_size=12)
        )
    else:
        d = draw(st.integers(min_value=1, max_value=15))
        factors = [
            (color, degree)
            for color in draw(st.lists(colors, min_size=1, max_size=3, unique=True))
            for degree in (-d - 1, -d)
            for _ in range(draw(st.integers(min_value=0, max_value=2 * level + 2)))
        ]
    return basis, ColoredPartition(basis.alphabet, tuple(Factor(c, n) for c, n in factors))


@settings(max_examples=200, deadline=None)
@given(case=checker_cases())
def test_checkers_match_reference_definitions(case):
    basis, pi = case
    expected = reference_divisibility(pi, basis)
    assert admissible_by_divisibility(pi, basis) == expected
    if basis.kind == "fs":
        assert admissible_by_inequalities(pi, basis) == expected
        assert reference_inequalities(pi, basis) == expected


@st.composite
def admissible_cases(draw):
    """A basis (fs rank <= 3 or std rank <= 2, level <= 3) and an admissible partition.

    Drawn factors are kept while the partition stays admissible by
    divisibility, so the result has at most 8 factors.
    """
    kind = draw(st.sampled_from(["fs", "std"]))
    rank = draw(st.integers(min_value=1, max_value=3 if kind == "fs" else 2))
    basis = BasisKind(kind, rank, draw(st.integers(min_value=1, max_value=3)))
    candidates = st.tuples(
        st.sampled_from(basis.alphabet.colors()), st.integers(min_value=-6, max_value=-1)
    )
    pi = unit(basis.alphabet)
    for color, degree in draw(st.lists(candidates, max_size=8)):
        grown = ColoredPartition(basis.alphabet, pi.factors + (Factor(color, degree),))
        if admissible_by_divisibility(grown, basis):
            pi = grown
    return basis, pi


@settings(max_examples=100, deadline=None)
@given(case=admissible_cases())
def test_admissible_sets_closed_under_divisors(case):
    basis, pi = case
    counts = pi.factor_counts()
    for exponents in product(*(range(n + 1) for n in counts.values())):
        sub = ColoredPartition(
            pi.alphabet,
            tuple(f for f, e in zip(counts, exponents) for _ in range(e)),
        )
        assert admissible_by_divisibility(sub, basis)
        if basis.kind == "fs":
            assert admissible_by_inequalities(sub, basis)


@st.composite
def ascending_pushes(draw):
    """A rank m <= 5, a level k <= 3 and factor keys (a, b, v), v <= 4, by ascending v."""
    m = draw(st.integers(min_value=1, max_value=5))
    k = draw(st.integers(min_value=1, max_value=3))
    colors = [c.pair for c in upper_scheme(m).colors()]
    drawn = draw(
        st.lists(
            st.tuples(st.sampled_from(colors), st.integers(min_value=1, max_value=4)),
            max_size=14,
        )
    )
    # a stable sort: the colors keep their drawn order within a degree
    return m, k, sorted(((a, b, v) for (a, b), v in drawn), key=lambda key: key[2])


@settings(max_examples=200, deadline=None)
@given(case=ascending_pushes())
def test_cut_tracker_matches_reference(case):
    m, k, keys = case
    basis = BasisKind("fs", m, k)
    tracker = _CutTracker(m, k, 4)
    index = {key: i for i, key in enumerate(_entries(m, 4))}
    pushed = []
    for key in keys:
        pushed.append(key)
        prefix = up_part(m, *(((a, b), -v) for a, b, v in pushed))
        verdict = tracker.push(index[key])
        assert verdict == reference_inequalities(prefix, basis)
        if not verdict:
            break
    for key in reversed(pushed):
        tracker.pop(index[key])
    assert not any(any(table) for table in tracker.slices + tracker.inside)


@settings(max_examples=200, deadline=None)
@given(case=ascending_pushes())
def test_tracker_matches_reference(case):
    m, k, keys = case
    basis = BasisKind("fs", m, k)
    tracker = _Tracker(m, k, 4)
    initial = list(tracker.state)
    index = {key: i for i, key in enumerate(_entries(m, 4))}
    pushed = []
    for key in keys:
        pushed.append(key)
        prefix = up_part(m, *(((a, b), -v) for a, b, v in pushed))
        verdict = tracker.push(index[key])
        assert verdict == reference_divisibility(prefix, basis)
        if not verdict:
            break
    for key in reversed(pushed):
        tracker.pop(index[key])
    assert tracker.state == initial
    assert not any(tracker.mult)


@st.composite
def moved_partitions(draw):
    """An fs basis (rank <= 4, level <= 3), a partition down to degree -12 and a moved copy.

    The copy moves every factor at or below one held degree 1..40 degrees
    deeper: below the shallowest, that shifts the whole partition; below
    the deeper end of a gap of at least 2 between held degrees, it widens
    that gap.
    """
    m = draw(st.integers(min_value=1, max_value=4))
    k = draw(st.integers(min_value=1, max_value=3))
    colors = [c.pair for c in upper_scheme(m).colors()]
    factors = draw(
        st.lists(
            st.tuples(st.sampled_from(colors), st.integers(min_value=1, max_value=12)),
            min_size=1,
            max_size=2 * k + 3,
        )
    )
    held = sorted({v for _, v in factors})
    cut = draw(st.sampled_from(held[:1] + [v for u, v in zip(held, held[1:]) if v - u >= 2]))
    by = draw(st.integers(min_value=1, max_value=40))
    moved = [(pair, v + by if v >= cut else v) for pair, v in factors]
    return (
        BasisKind("fs", m, k),
        up_part(m, *((pair, -v) for pair, v in factors)),
        up_part(m, *((pair, -v) for pair, v in moved)),
    )


@settings(max_examples=200, deadline=None)
@given(case=moved_partitions())
def test_verdicts_survive_wider_gaps_and_shifts(case):
    basis, pi, moved = case
    expected = reference_divisibility(pi, basis)
    for check in (admissible_by_divisibility, admissible_by_inequalities):
        assert check(pi, basis) == check(moved, basis) == expected


def lemma_checks(basis):
    """Both point checkers and the reference definitions that apply to `basis`."""
    checks = [admissible_by_divisibility, reference_divisibility]
    if basis.kind == "fs":
        m, k = basis.rank, basis.level
        checks += [
            admissible_by_inequalities,
            reference_inequalities,
            lambda pi, _: not divided_by_a_window_term(pi, lambda d: path_leading_terms(m, k, d)),
        ]
    return checks


@st.composite
def lemma_cases(draw):
    """A basis (fs rank <= 4 or std rank <= 2, level <= 3) and a partition down to degree -8.

    Each degree holds 0..k+1 factors of a few colors, none most often, so
    that single slices, adjacent pairs and both verdicts all occur.
    """
    kind = draw(st.sampled_from(["fs", "std"]))
    rank = draw(st.integers(min_value=1, max_value=4 if kind == "fs" else 2))
    k = draw(st.integers(min_value=1, max_value=3))
    basis = BasisKind(kind, rank, k)
    colors = st.sampled_from(basis.alphabet.colors()[:4])
    count = st.sampled_from([0, *range(k + 2)])
    factors = [
        Factor(draw(colors), -v) for v in range(1, draw(st.integers(2, 8)) + 1) for _ in range(draw(count))
    ]
    return basis, ColoredPartition(basis.alphabet, tuple(factors))


def moved_to(pi, degrees):
    """The factors of `pi` on the |degrees| listed, the i-th moved to degree -i-1."""
    return ColoredPartition(
        pi.alphabet,
        tuple(Factor(f.color, -1 - degrees.index(-f.degree)) for f in pi.factors if -f.degree in degrees),
    )


@settings(max_examples=150, deadline=None)
@given(case=lemma_cases())
def test_locality_lemma(case):
    # a verdict is the AND of the verdicts of each slice and each adjacent
    # pair of slices, moved to degrees -1 and -2
    basis, pi = case
    held = sorted({-f.degree for f in pi.factors})
    parts = [moved_to(pi, [v]) for v in held]
    parts += [moved_to(pi, [v, v + 1]) for v in held if v + 1 in held]
    for check in lemma_checks(basis):
        assert check(pi, basis) == all(check(part, basis) for part in parts)


@settings(max_examples=150, deadline=None)
@given(case=lemma_cases())
def test_window_invariance_lemma(case):
    # a verdict is unchanged when the partition moves one degree deeper
    basis, pi = case
    deeper = ColoredPartition(pi.alphabet, tuple(Factor(f.color, f.degree - 1) for f in pi.factors))
    for check in lemma_checks(basis):
        assert check(pi, basis) == check(deeper, basis)


class ReachedDecision(Exception):
    """Raised by `undecided`."""


def undecided(*args):
    """A decision routine of `basis._decide` that raises `ReachedDecision`."""
    raise ReachedDecision


@st.composite
def sparse_partitions(draw):
    """An fs basis (rank <= 4, level <= 3) and a partition down to degree -12.

    No two adjacent degrees hold more than k factors between them.
    """
    m = draw(st.integers(min_value=1, max_value=4))
    k = draw(st.integers(min_value=1, max_value=3))
    colors = st.sampled_from([c.pair for c in upper_scheme(m).colors()])
    factors, above = [], 0
    for v in range(1, 13):
        n = draw(st.integers(min_value=0, max_value=k - above))
        factors += [(draw(colors), -v) for _ in range(n)]
        above = n
    return BasisKind("fs", m, k), up_part(m, *factors)


@settings(max_examples=200, deadline=None)
@given(case=sparse_partitions())
@example(
    case=(
        BasisKind("fs", 4, 2),
        up_part(4, ((1, 4), -100000), ((1, 4), -99998), ((2, 3), -99998)),
    )
)
def test_sparse_partitions_build_no_tracker(case):
    # each condition holds by its own definition when no two adjacent degrees
    # hold more than k factors, so no route reaches its decision routine; one
    # with exactly k+1 on two adjacent degrees, where a term can divide, does
    basis, pi = case
    m, k = basis.rank, basis.level
    std = BasisKind("std", m // 2, k) if m % 2 == 0 else None

    def routes(p):
        yield admissible_by_inequalities, p, basis
        yield admissible_by_divisibility, p, basis
        if std:
            yield admissible_by_divisibility, transport_partition(p, m // 2), std

    # k+1 factors on the deepest degree and the one below it
    deepest = pi.factors[0].degree if pi.factors else -1
    held = sum(f.degree == deepest for f in pi.factors)
    dense = pi * up_part(m, *[((1, 1), deepest - 1)] * (k + 1 - held))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(basis_module, "_terms_fit", undecided)
        patch.setattr(basis_module, "_cuts_fit", undecided)
        assert all(route(p, b) for route, p, b in routes(pi))
        for route, p, b in routes(dense):
            with pytest.raises(ReachedDecision):
                route(p, b)
    assert not divided_by_a_window_term(pi, lambda d: path_leading_terms(m, k, d))
    if std:
        q = transport_partition(pi, m // 2)
        assert not divided_by_a_window_term(q, lambda d: leading_terms(std, d))


@st.composite
def decision_cases(draw):
    """An fs basis (rank <= 6, level <= 3) and a partition of 1 to 3 held degrees.

    The shallowest held degree is -1, -2, -3 or past -100, and the gaps
    between held degrees are 1, 2, 3 or 41 wide.  Each degree holds 1 to
    k+2 factors of drawn colors, or k or k+1 copies of one color.
    """
    m = draw(st.integers(min_value=1, max_value=6))
    k = draw(st.integers(min_value=1, max_value=3))
    colors = st.sampled_from([c.pair for c in upper_scheme(m).colors()])
    v = draw(st.sampled_from([1, 2, 3, 101, 150]))
    factors = []
    for held in range(draw(st.integers(min_value=1, max_value=3))):
        if held:
            v += draw(st.sampled_from([1, 2, 3, 41]))
        if draw(st.booleans()):
            factors += [(draw(colors), -v)] * draw(st.integers(min_value=k, max_value=k + 1))
        else:
            factors += [(draw(colors), -v) for _ in range(draw(st.integers(1, k + 2)))]
    return BasisKind("fs", m, k), up_part(m, *factors)


@settings(max_examples=150, deadline=None)
@given(case=decision_cases())
# the path sums read A of the deeper slice and B of the shallower one
@example(case=(BasisKind("fs", 2, 1), up_part(2, ((1, 1), -2), ((2, 2), -1))))
# one slice alone, shallowest and deepest at once, refused by inside(1, m)
@example(case=(BasisKind("fs", 1, 1), up_part(1, ((1, 1), -1), ((1, 1), -1))))
# two slices two degrees apart share no path sum
@example(case=(BasisKind("fs", 1, 1), up_part(1, ((1, 1), -3), ((1, 1), -1))))
@example(case=(BasisKind("fs", 4, 2), up_part(4, ((1, 4), -103), ((2, 3), -102), ((2, 3), -101))))
def test_decisions_match_tracker_pushes_and_references(case):
    # each decision routine gives the verdict of pushing the same keys into
    # its tracker, and of the reference definition on the compact partition
    # those keys encode; the point checks read it past the size test
    basis, pi = case
    m, k = basis.rank, basis.level
    by_cuts = admissible_by_inequalities(pi, basis)
    by_terms = admissible_by_divisibility(pi, basis)
    keys, densest = pi._code
    depth = keys[-1] // (m * (m + 1) // 2) + 1
    assert depth <= 2 * len({f.degree for f in pi.factors})
    entries = _entries(m, depth)
    compact = up_part(m, *(((a, b), -v) for a, b, v in map(entries.__getitem__, keys)))
    cuts, terms = _cuts_fit(keys, m, k), _terms_fit(keys, m, k)
    assert cuts == all(map(_CutTracker(m, k, depth).push, keys))
    assert cuts == reference_inequalities(compact, basis)
    assert terms == all(map(_Tracker(m, k, depth).push, keys))
    assert terms == reference_divisibility(compact, basis)
    assert by_cuts == (densest <= k or cuts) and by_terms == (densest <= k or terms)
    if m % 2 == 0:
        image = transport_partition(pi, m // 2)
        assert admissible_by_divisibility(image, BasisKind("std", m // 2, k)) == by_terms
        assert image._code == pi._code


def compact_depth(pi):
    """The depth of `pi` once each gap wider than 2 between its held degrees closes to 2."""
    depth = last = 0
    for v in sorted({-f.degree for f in pi.factors}):
        depth, last = depth + min(v - last, 2), v
    return depth


def compact_depth_partition(rng, depth, per_degree):
    """A seeded fs(4,2) partition of compact depth `depth`, 1..per_degree factors per held degree.

    Each step of 2 in the compact range is a gap of 2 to 4 degrees, so
    gaps wider than 2 occur.
    """
    colors = [c.pair for c in upper_scheme(4).colors()]
    factors, v = [], 0
    while depth:
        step = 1 if depth == 1 else rng.choice((1, 2))
        v, depth = v + (1 if step == 1 else rng.randint(2, 4)), depth - step
        factors += [(rng.choice(colors), -v) for _ in range(rng.randint(1, per_degree))]
    return up_part(4, *factors)


def dense_admissible_partition(depth):
    """An admissible fs(4,2) partition of compact depth `depth` >= 1 with 3 factors on one degree.

    The deepest degree holds 11 22 33, and a path block holds one diagonal
    color at most; a single 14 sits on every second compact degree above,
    3 degrees apart, so each gap closes from 3 to 2.
    """
    held = [depth % 2 or 2]
    while len(held) <= (depth - held[0]) // 2:
        held.append(held[-1] + 3)
    deepest = [((c, c), -held[-1]) for c in (1, 2, 3)]
    return up_part(4, *(((1, 4), -v) for v in held[:-1]), *deepest)


def divided_by_a_window_term(pi, terms):
    """True when some term of a window that meets the degrees of `pi` divides it."""
    held = {-f.degree for f in pi.factors}
    windows = {d for v in held for d in (v - 1, v) if d >= 1}
    factors = set(pi.factors)  # only a term made of these factors can divide
    return any(
        divides(term, pi)
        for d in sorted(windows)
        for term in terms(d)
        if factors.issuperset(term.factors)
    )


@pytest.mark.parametrize("depth", [0, 1, 2, 3, 4, 5, 8, 9, 16, 17])
def test_verdicts_at_and_past_power_of_two_sizes(depth):
    # a point check sizes its tracker to the compact depth of its partition,
    # and every depth must give the references' verdicts
    fs, std = BasisKind("fs", 4, 2), BasisKind("std", 2, 2)
    rng = random.Random(depth)
    cases = [compact_depth_partition(rng, depth, n) for n in (1, 1, 2, 2, 3, 3, 4)]
    if depth:
        # k+1 copies of one color on the deepest degree: a term, so refused
        deepest = cases[-1].factors[0].degree
        cases.append(cases[-1] * up_part(4, *[((2, 2), deepest)] * 3))
        # more than k = 2 factors on one degree, so both trackers are built
        cases.append(dense_admissible_partition(depth))
    verdicts = set()
    for pi in cases:
        assert compact_depth(pi) == depth
        expected = reference_inequalities(pi, fs)
        q = transport_partition(pi, 2)
        by_terms = not divided_by_a_window_term(pi, lambda d: path_leading_terms(4, 2, d))
        by_std_terms = not divided_by_a_window_term(q, lambda d: leading_terms(std, d))
        assert by_terms == by_std_terms == expected
        assert admissible_by_inequalities(pi, fs) == expected
        assert admissible_by_divisibility(pi, fs) == expected
        assert admissible_by_divisibility(q, std) == expected
        verdicts.add(expected)
    assert verdicts == ({False, True} if depth else {True})


def test_point_checks_share_tracker_tables():
    # a tracker reads tables of (m, k) alone, so checks at every depth share one
    fs = BasisKind("fs", 4, 2)
    _term_masks.cache_clear()
    _entries.cache_clear()
    for depth in range(1, 65):
        # three factors on degree -1 send the check past the size test to the tracker
        pi = up_part(4, ((1, 1), -1), ((2, 3), -1), *(((1, 4), -v) for v in range(1, depth + 1)))
        assert compact_depth(pi) == depth
        assert admissible_by_divisibility(pi, fs) == reference_divisibility(pi, fs)
    assert _term_masks.cache_info().currsize == 1
    assert _entries.cache_info().currsize == 0


def reference_constraints(m, k, max_degree):
    """Every leading term of fs(m, k) on windows 1..max(1, N-1), N = max_degree, as caps.

    The window-1 rows moved to each window; a term is capped at its
    exponents, which sum to k+1, so its capped sum reaches k+1 exactly when
    it divides the monomial.  A deeper window's terms either reach past -N
    or lie on -N alone, as the all-upper term of window N-1.
    """
    for d in range(1, max(1, max_degree - 1) + 1):
        for row in leading.rows(m, k):
            yield {(a, b, d + offset): cap for (a, b, offset), cap in row}


class RoomTracker:
    """Reference for `_Tracker`: one counter per constraint, of the room left to k+1."""

    def __init__(self, m, k, max_degree, constraints):
        self.entries = _entries(m, max_degree)
        index = {key: i for i, key in enumerate(self.entries)}
        kept = dict.fromkeys(
            frozenset((index[key], cap) for key, cap in c.items() if key in index)
            for c in constraints
        )
        self.steps = [[[] for _ in range(max_degree // v)] for _, _, v in self.entries]
        for cid, c in enumerate(kept):
            for i, cap in c:
                for n in range(min(cap, len(self.steps[i]))):
                    self.steps[i][n].append(cid)
        self.room = [k + 1] * len(kept)
        self.mult = [0] * len(self.entries)
        self.violated = 0

    def push(self, i):
        n = self.mult[i]
        self.mult[i] = n + 1
        for cid in self.steps[i][n]:
            self.room[cid] -= 1
            if not self.room[cid]:
                self.violated += 1
        return not self.violated

    def pop(self, i):
        n = self.mult[i] - 1
        self.mult[i] = n
        for cid in self.steps[i][n]:
            if not self.room[cid]:
                self.violated -= 1
            self.room[cid] += 1


@st.composite
def tracker_walks(draw):
    """A rank m <= 4, a level k <= 4, a depth N <= 6 and a walk of pushes and pops.

    Slot widths 3 and 4 occur, and k+1 = 4 among them.  Most pushes fall in
    a pool of up to three entries of degree 1 or 2 and perhaps one deeper,
    so that terms fill.  A step is an entry index to push, or None to pop
    the latest push.
    """
    m = draw(st.integers(min_value=1, max_value=4))
    k = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=1, max_value=6))
    entries = _entries(m, n)
    shallow = st.lists(st.sampled_from(_entries(m, min(n, 2))), min_size=1, max_size=3)
    pool = draw(shallow) + draw(st.lists(st.sampled_from(entries), max_size=1))
    pushes = st.sampled_from([entries.index(key) for key in pool])
    steps = draw(
        st.lists(
            st.one_of(st.none(), pushes, pushes, pushes, st.integers(0, len(entries) - 1)),
            min_size=16,
            max_size=48,
        )
    )
    return m, k, n, steps


@settings(max_examples=200, deadline=None)
@given(case=tracker_walks())
def test_tracker_matches_room_counters(case):
    m, k, n, steps = case
    tracker = _Tracker(m, k, n)
    reference = RoomTracker(m, k, n, reference_constraints(m, k, n))
    entries = _entries(m, n)
    initial = list(tracker.state)
    pushed = []
    for i in steps:
        if i is None:
            if pushed:
                tracker.pop(pushed[-1])
                reference.pop(pushed.pop())
            continue
        # an entry of degree v is pushed at most n // v times
        if tracker.mult[i] == n // entries[i][2]:
            continue
        verdict = tracker.push(i)
        assert verdict == reference.push(i)
        # window 0 only counts offset-1 exponents, which never reach k+1
        assert tracker.state[0] & tracker.high == 0
        if verdict:
            pushed.append(i)
        else:
            # as in the walk, a failing push is popped at once
            tracker.pop(i)
            reference.pop(i)
    for i in reversed(pushed):
        tracker.pop(i)
    assert tracker.state == initial
    assert not any(tracker.mult)


@st.composite
def fitting_cases(draw):
    """A tracker type, an admissible prefix pushed in walk order and a range [lo, hi) after it.

    The rank m <= 5, the level k <= 3 and the depth N <= 5.  The pushes are
    drawn from a pool of a few entries, sorted, and stop before the first
    that fails.  lo is often the last pushed entry, which is then held, and
    otherwise any later entry; hi stays within lo's degree.
    """
    tracker_type = draw(st.sampled_from([_Tracker, _CutTracker]))
    m = draw(st.integers(min_value=1, max_value=5))
    k = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=1, max_value=5))
    tracker = tracker_type(m, k, n)
    count = len(_entries(m, n))
    pool = draw(st.lists(st.integers(0, count - 1), min_size=1, max_size=3))
    pushed = []
    for i in sorted(draw(st.lists(st.sampled_from(pool), max_size=3 * k))):
        if not tracker.push(i):
            tracker.pop(i)
            break
        pushed.append(i)
    last = pushed[-1] if pushed else 0
    lo = draw(st.one_of(st.just(last), st.integers(last, count - 1)))
    width = count // n
    hi = draw(st.integers(lo + 1, (lo // width + 1) * width))
    return tracker, lo, hi


def tracker_snapshot(tracker):
    """A tracker's state by value; a degree's own zero tables equal the shared zero one."""
    if isinstance(tracker, _Tracker):
        return list(tracker.state), list(tracker.mult)
    if isinstance(tracker, _Pair):
        pair = tracker_snapshot(tracker.cut), tracker_snapshot(tracker.div)
        return pair, list(tracker.path), list(tracker.disagreements)
    return (
        [e[: tracker.width] for e in tracker.slices],
        [list(t) for t in tracker.inside],
        [(list(e), list(t), list(g)) for e, t, g in tracker.grown],
    )


@settings(max_examples=400, deadline=None)
@given(case=fitting_cases())
def test_fitting_matches_pushes(case):
    tracker, lo, hi = case
    before = tracker_snapshot(tracker)
    fits = tracker.fitting(lo, hi)
    assert tracker_snapshot(tracker) == before
    expected = []
    for i in range(lo, hi):
        if tracker.push(i):
            expected.append(i)
        tracker.pop(i)
    assert fits == expected
    assert tracker_snapshot(tracker) == before


def test_fitting_reads_held_entries_and_degree_one():
    # rank 1, level 2: X(-1)^2 X(-2) fills X(-2) X(-1)^2, and a third X(-1) is X(-1)^3
    for tracker_type in (_Tracker, _CutTracker):
        tracker = tracker_type(1, 2, 3)
        assert tracker.fitting(0, 1) == [0]
        assert tracker.push(0)
        # held at lo: a second X(-1) still fits, and X(-2) does beside one X(-1)
        assert tracker.fitting(0, 1) == [0] and tracker.fitting(1, 2) == [1]
        assert tracker.push(0)
        assert tracker.fitting(0, 1) == [] and tracker.fitting(1, 2) == []
        assert tracker.fitting(2, 3) == [2]


@pytest.mark.parametrize("tracker_type", [_Tracker, _CutTracker])
def test_fitting_reads_any_push_order_within_a_degree(tracker_type):
    # the walk pushes colors by position, so a degree's later colors are
    # never held when `fitting` runs; here they are, and every color of the
    # degree is asked, so a path through a later color (a, b+1) counts
    rng = random.Random(31)
    for _ in range(300):
        m, k, n = rng.randint(2, 5), rng.randint(1, 3), rng.randint(1, 3)
        tracker = tracker_type(m, k, n)
        width = tracker.width
        drawn = [rng.randrange(width * n) for _ in range(rng.randint(1, 4 * k))]
        deepest = 0
        for i in sorted(drawn, key=lambda i: i // width):  # by degree, colors in drawn order
            if not tracker.push(i):
                tracker.pop(i)
                break
            deepest = i // width
        # as in the walk, no degree below the one asked holds a factor
        for lo in range(deepest * width, width * n, width):
            expected = []
            for i in range(lo, lo + width):
                if tracker.push(i):
                    expected.append(i)
                tracker.pop(i)
            assert tracker.fitting(lo, lo + width) == expected


def test_fitting_reads_held_entries_past_their_caps(monkeypatch):
    # A held entry is asked through its next copy's masks, not its first's.  In
    # the real families the two give one verdict (a full row with the entry at
    # its cap is a path at the level, so a further copy breaks a path
    # inequality); this rank-1 level-1 family has only X(-2) X(-1), so a second
    # X(-1) is past its cap of 1 in that full row and fits.
    monkeypatch.setattr(basis_module, "rows", lambda m, k: ((((1, 1, 1), 1), ((1, 1, 0), 1)),))
    _term_masks.cache_clear()
    try:
        tracker = _Tracker(1, 1, 2)
        assert tracker.push(0)
        assert tracker.fitting(0, 1) == [0] and tracker.fitting(1, 2) == []
        assert tracker.push(0)
        tracker.pop(0)
        assert not tracker.push(1)
    finally:
        _term_masks.cache_clear()


def reference_enumerate_layers(m, max_degree, tracker):
    """The walk as it was before leaves were decided in bulk: a push and pop at every entry."""
    sizes = [v for _, _, v in _entries(m, max_degree)]
    count = len(sizes)
    push, pop = tracker.push, tracker.pop
    shapes = [{(): [()]}] + [{} for _ in range(max_degree)]

    def rec(start, used, prefix, shape):
        for idx in range(start, count):
            v = sizes[idx]
            total = used + v
            if total > max_degree:
                break
            if push(idx):
                key, grown = prefix + (idx,), shape + (v,)
                shapes[total].setdefault(grown, []).append(key)
                if total + v <= max_degree:
                    rec(idx, total, key, grown)
            pop(idx)

    rec(0, 0, (), ())
    return tuple(
        tuple(k for s in sorted(layer, key=lambda t: (len(t), t))[::-1] for k in layer[s][::-1])
        for layer in shapes
    )


def walk_layers(max_degree, tracker):
    """Every layer of keys as the listing filed the factor walk before it listed slice paths.

    Each `_walk` group is filed by layer and shape.  A key lists its factors
    in reverse canonical order, and a deeper degree or later color position
    makes a smaller factor, so in a layer ``sort_key`` ascends as (length,
    shape, colors) descends: shapes by descending (length, shape), and a
    shape's keys in reverse walk order.  That holds as the shape fixes
    whether a key is a leaf, so a shape holds leaf groups only or inner
    groups only, and a recursive call files only longer shapes, so a
    shape's groups arrive in walk order, each ascending.
    """
    shapes = [{} for _ in range(max_degree + 1)]

    def file(total, shape, prefix, ids):
        shapes[total].setdefault(shape, []).append((prefix, ids))

    _walk(max_degree, tracker, file)
    return (((),),) + tuple(
        tuple(
            (*prefix, i)
            for s in sorted(layer, key=lambda t: (len(t), t))[::-1]
            for prefix, ids in layer[s][::-1]
            for i in reversed(ids)
        )
        for layer in shapes[1:]
    )


@pytest.mark.parametrize("tracker_type", [_Tracker, _CutTracker, _Pair])
@pytest.mark.parametrize("m, k, n", WALK_GRID)
def test_walk_matches_push_per_entry_walk(tracker_type, m, k, n):
    tracker = tracker_type(m, k, n)
    walked = walk_layers(n, tracker)
    reference = tracker_type(m, k, n)
    assert walked == reference_enumerate_layers(m, n, reference)
    assert tracker_snapshot(tracker) == tracker_snapshot(tracker_type(m, k, n))


@pytest.mark.parametrize("m, k, n", WALK_GRID)
def test_paired_walk_is_each_trackers_walk(m, k, n):
    # the two conditions agree, so the pair accepts what each accepts and
    # records nothing
    pair = _Pair(m, k, n)
    layers = walk_layers(n, pair)
    assert layers == walk_layers(n, _Tracker(m, k, n))
    assert layers == walk_layers(n, _CutTracker(m, k, n))
    assert pair.disagreements == [] and pair.path == []


@pytest.mark.parametrize("tracker_type", [_Tracker, _CutTracker])
@pytest.mark.parametrize("m, k, n", WALK_GRID)
def test_slice_paths_match_the_factor_walk(tracker_type, m, k, n):
    # both kinds and both methods list the keys of the factor walk of either tracker
    reference = walk_layers(n, tracker_type(m, k, n))
    listings = [(BasisKind("fs", m, k), method) for method in ("divisibility", "inequalities")]
    if m % 2 == 0:
        listings.append((BasisKind("std", m // 2, k), "divisibility"))
    for basis, method in listings:
        entries, layers = enumerate_keys(basis, n, method)
        assert entries == _entries(m, n)
        assert layers == reference


@pytest.mark.parametrize("tracker_type", [_Tracker, _CutTracker])
@pytest.mark.parametrize("m, k, n", WALK_GRID)
def test_walk_files_ascending_int_groups_of_one_degree(tracker_type, m, k, n):
    # the slice graph holds the slices of the depth-1 walk of at most n - 2
    # factors, one degree each, numbered by ascending size and each size
    # descending; its successor lists are integer arrays of one size each
    method = "divisibility" if tracker_type is _Tracker else "inequalities"
    graph = SliceGraph(m, k, n, method)
    width = len(_entries(m, 1))
    walked = []
    _walk(graph.held, tracker_type(m, k, 1), lambda t, s, p, ids: walked.extend(
        (*p, i) for i in ids), depth=1)
    assert sorted(graph.slices) == sorted(walked)
    assert all(0 <= x < width for s in walked for x in s)
    for size in range(1, graph.held + 1):
        held = graph.slices[graph.starts[size] : graph.starts[size + 1]]
        assert all(len(s) == size and list(s) == sorted(s) for s in held)
        assert held == sorted(held, reverse=True)
        if size <= graph.top:
            # a slice of `size` factors streamed as one past the held ones would be
            assert [(*p, x) for p, last in graph.stream(size) for x in last] == held
        for lower in range(len(graph.classes)):
            ids = graph.successors(lower, size)
            assert type(ids) is array and ids.typecode == "I"
            assert list(ids) == sorted(set(ids))
            assert all(graph.starts[size] <= t < graph.starts[size + 1] for t in ids)
        assert list(graph.successors(0, size)) == list(range(graph.starts[size], graph.starts[size + 1]))


@pytest.mark.parametrize("method", ["divisibility", "inequalities"])
@pytest.mark.parametrize("m, k", [(1, 1), (1, 3), (2, 2), (3, 1), (3, 2), (4, 1)])
def test_successors_are_the_admissible_pairs(method, m, k):
    # t follows s exactly when s at degree -1 and t at degree -2 push into
    # the condition's tracker: the class keys decide each pair as the tracker does
    graph = SliceGraph(m, k, 6, method)
    tracker_type = _Tracker if method == "divisibility" else _CutTracker
    width = graph.width
    for s, lower in zip(graph.slices, graph.lower):
        for size in range(1, graph.held + 1):
            follows = {graph.slices[t] for t in graph.successors(lower, size)}
            for t in graph.slices[graph.starts[size] : graph.starts[size + 1]]:
                tracker = tracker_type(m, k, 2)
                pair = [*s, *(width + x for x in t)]
                assert (t in follows) == all(map(tracker.push, pair)), (s, t)


def group_count(graph: SliceGraph) -> int:
    """The number of groups of every layer of `graph`, listed with no row part made."""

    def none(*args):
        return None

    return sum(1 for layer in graph.layers(none, none, none, None) for _ in layer)


def test_walk_groups_leave_the_cyclic_collector():
    # every successor list and class table is an array of machine integers,
    # which references no object but its type (CPython 3.10+ tracks it for
    # that reference alone), so the collector visits one store per (class,
    # size) and no object per path
    graph = _slice_graph(BasisKind("std", 2, 2), 6)
    groups = group_count(graph)
    stores = [*graph.successor_lists.values(), graph.lower, graph.upper]
    assert stores and all(type(store) is array for store in stores)
    assert all(set(gc.get_referents(store)) <= {array} for store in stores)
    assert len(stores) < groups


# most classes with successor lists of one length have the same lists; at
# fs(3,2) to degree 9 two that differ feed the second-deepest degree of one shape
@pytest.mark.parametrize("m, k, n", [*WALK_GRID, (3, 2, 9)])
def test_tails_list_what_the_slice_groups_list(monkeypatch, m, k, n):
    # with no tail built (only an empty one fits a block of 0 rows) every
    # group is one second-deepest slice's successor list.  From degree 6 on a
    # shape may hold three degrees (1 + 2 + 3), a tail is asked for twice and
    # the groups are fewer, except at rank 1, where a size has one slice
    for method in ("divisibility", "inequalities"):
        graph = SliceGraph(m, k, n, method)
        keys, groups = graph.keys(), group_count(graph)
        with monkeypatch.context() as patch:
            patch.setattr(listing_module, "BLOCK", 0)
            assert graph.keys() == keys
            single = group_count(graph)
        assert (groups < single) == (m > 1 and n >= 6)


@pytest.mark.parametrize(
    "kind, rank, level, max_degree", [("std", 2, 2, 16), ("fs", 2, 3, 20), ("fs", 1, 2, 30)]
)
def test_path_counts_are_the_series(kind, rank, level, max_degree):
    # counting the rows of every group, cached tails included, is a second
    # route to the transfer-matrix coefficients at sizes no listing test reaches
    graph = _slice_graph(BasisKind(kind, rank, level), max_degree)
    counts = (1, *graph.counts())
    assert counts == graded_series(BasisKind(kind, rank, level), max_degree).coeffs


class TestEnumeration:
    def test_std_rank1_level1_layers(self):
        layers = enumerate_basis(BasisKind("std", 1, 1), 2)
        assert [len(layer) for layer in layers] == [1, 3, 4]
        assert {str(p) for p in layers[1]} == {"11(-1)", "1_1(-1)", "_1_1(-1)"}
        assert {str(p) for p in layers[2]} == {
            "11(-2)",
            "1_1(-2)",
            "_1_1(-2)",
            "_1_1(-1) 11(-1)",
        }

    def test_fs_rank1_level1_single_colors(self):
        layers = enumerate_basis(BasisKind("fs", 1, 1), 3)
        assert [len(layer) for layer in layers] == [1, 1, 1, 1]
        for m in (1, 2, 3):
            (p,) = layers[m]
            assert p.length == 1 and p.degree == -m

    @pytest.mark.parametrize("method", ["divisibility", "inequalities"])
    def test_engines_match_literal_checkers(self, method):
        basis = BasisKind("fs", 2, 1)
        layers = enumerate_basis(basis, 5, method)
        expected = [
            pi
            for pi in gen_partitions(upper_scheme(2), 5)
            if admissible_by_divisibility(pi, basis)
        ]
        flattened = [p for layer in layers for p in layer]
        assert sorted(p.sort_key for p in flattened) == sorted(
            p.sort_key for p in expected
        )

    def test_std_engine_matches_literal_checker(self):
        basis = BasisKind("std", 1, 1)
        layers = enumerate_basis(basis, 5)
        expected = [
            pi
            for pi in gen_partitions(full_scheme(1), 5)
            if admissible_by_divisibility(pi, basis)
        ]
        assert sum(len(layer) for layer in layers) == len(expected)

    @pytest.mark.parametrize(
        "basis, max_degree",
        [
            (BasisKind("fs", 2, 1), 5),
            (BasisKind("std", 2, 2), 7),
            (BasisKind("fs", 3, 2), 7),
            (BasisKind("fs", 4, 2), 7),
        ],
        ids=str,
    )
    def test_layers_sorted_and_degree_consistent(self, basis, max_degree):
        layers = enumerate_basis(basis, max_degree)
        for m, layer in enumerate(layers):
            assert all(p.degree == -m for p in layer)
            keys = [p.sort_key for p in layer]
            assert keys == sorted(set(keys))

    def test_divisor_closure(self):
        basis = BasisKind("fs", 2, 1)
        layers = enumerate_basis(basis, 5)
        admissible = {p for layer in layers for p in layer}
        for p in list(admissible)[:50]:
            for i in range(p.length):
                sub = ColoredPartition(
                    p.alphabet, p.factors[:i] + p.factors[i + 1 :]
                )
                assert sub in admissible

    def test_tracker_caps_multiplicities(self):
        # rank 1, level 2: window v's terms X(-v-1)^i X(-v)^(3-i), i = 0..2, take
        # slots 0..2 of 3 bits in state[v], each the bias 1 plus the capped sum;
        # X(-v-1)^3 is window v+1's i = 0 term and gets no slot in window v
        tracker = _Tracker(1, 2, 3)
        one, two = (_entries(1, 3).index((1, 1, v)) for v in (1, 2))

        def sums(v):
            return [(tracker.state[v] >> 3 * s & 7) - 1 for s in range(3)]

        assert tracker.push(one) and sums(1) == [1, 1, 1]
        # the second X(-1) is past its cap of 1 in X(-2)^2 X(-1) and adds nothing there
        assert tracker.push(one) and sums(1) == [2, 2, 1]
        state = list(tracker.state)
        # X(-2) X(-1)^2 fills; X(-2) also opens window 2
        assert not tracker.push(two)
        assert sums(1) == [2, 3, 2] and sums(2) == [1, 1, 1]
        tracker.pop(two)
        assert tracker.state == state
        # a third X(-1) fills X(-1)^3
        assert not tracker.push(one)
        for _ in range(3):
            tracker.pop(one)
        # past its cap of 1 in X(-2) X(-1)^2, the second X(-2) adds nothing there
        assert tracker.push(two) and sums(1) == [0, 1, 1]
        assert tracker.push(two) and sums(1) == [0, 1, 2]
        tracker.pop(two)
        tracker.pop(two)
        assert not any(tracker.mult) and sums(1) == sums(2) == sums(3) == [0, 0, 0]

    @pytest.mark.parametrize("ell, k", [(1, 1), (1, 2), (2, 1)])
    def test_std_and_double_rank_fs_share_one_walk(self, ell, k):
        _enumerate_cached.cache_clear()
        std = enumerate_keys(BasisKind("std", ell, k), 5)
        fs = enumerate_keys(BasisKind("fs", 2 * ell, k), 5, "divisibility")
        info = _enumerate_cached.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert fs == std

    @pytest.mark.parametrize("rank, k, max_degree", [(5, 2, 5), (6, 2, 4), (7, 1, 5), (8, 1, 4)])
    def test_engines_agree_past_rank_four(self, rank, k, max_degree):
        # AC-4 compares the two engines up to rank 4 only
        basis = BasisKind("fs", rank, k)
        assert enumerate_keys(basis, max_degree, "divisibility") == enumerate_keys(
            basis, max_degree, "inequalities"
        )

    @pytest.mark.parametrize("ell", [8, 12])
    def test_inequality_walk_reach(self, ell):
        _, layers = enumerate_keys(BasisKind("fs", 2 * ell, 1), 2, "inequalities")
        assert tuple(len(layer) for layer in layers) == character_oracle(ell, 1, 2).coeffs

    def test_inequalities_engine_rejected_for_std(self):
        with pytest.raises(ValueError):
            enumerate_basis(BasisKind("std", 1, 1), 3, "inequalities")


class TestSeries:
    def test_graded_series_counts(self):
        s = graded_series(BasisKind("std", 1, 1), 2)
        assert s.coeffs == (1, 3, 4)

    def test_constant_term(self):
        for basis in (BasisKind("fs", 2, 1), BasisKind("std", 1, 2)):
            assert graded_series(basis, 0).coeffs == (1,)

    def test_truncation_monotone(self):
        short = graded_series(BasisKind("fs", 2, 1), 4)
        long = graded_series(BasisKind("fs", 2, 1), 8)
        assert long.coeffs[:5] == short.coeffs

    def test_qseries_multiplication(self):
        one_plus_q = QSeries((1, 1, 0))
        assert (one_plus_q * one_plus_q).coeffs == (1, 2, 1)

    def test_qseries_refuses_inexact_coefficients(self):
        # a float or a Fraction is refused rather than truncated
        assert QSeries((1, True, 0)).coeffs == (1, 1, 0)
        for bad in (1.9, Fraction(7, 2)):
            with pytest.raises(TypeError):
                QSeries((1, bad))

    def test_partition_series(self):
        assert partition_series(6).coeffs == (1, 1, 2, 3, 5, 7, 11)

    def test_theta_series(self):
        assert theta_series(9).coeffs == (1, 2, 0, 0, 2, 0, 0, 0, 0, 2)

    def test_character_oracle_small(self):
        assert theta_route_character(2).coeffs == (1, 3, 4)

    def test_character_oracle_matches_enumeration(self):
        n = 8
        assert graded_series(BasisKind("std", 1, 1), n).coeffs == (
            theta_route_character(n).coeffs
        )
        layers = enumerate_basis(BasisKind("std", 1, 1), n)
        assert tuple(len(layer) for layer in layers) == (
            theta_route_character(n).coeffs
        )


# The (basis, degree, method) keys of AC-4 and AC-1, so that in a full run
# these comparisons reuse the enumerations the acceptance tests made.
ACCEPTANCE_GRIDS = [
    (BasisKind("fs", rank, k), "inequalities") for rank in (1, 2, 3, 4) for k in (1, 2)
] + [(BasisKind("std", ell, k), None) for ell in (1, 2) for k in (1, 2)]


class TestSliceTransfer:
    @pytest.mark.parametrize("basis, method", ACCEPTANCE_GRIDS, ids=str)
    def test_counts_match_enumeration(self, basis, method):
        _, layers = enumerate_keys(basis, 10, method)
        assert graded_series(basis, 10).coeffs == tuple(len(layer) for layer in layers)

    @pytest.mark.parametrize(
        "ell, k", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 2), (2, 4), (4, 1)]
    )
    def test_counts_match_weyl_kac(self, ell, k):
        series = graded_series(BasisKind("std", ell, k), 30)
        assert series.coeffs == character_oracle(ell, k, 30).coeffs

    def test_high_rank_without_recursion(self):
        # 1,081 triangle pairs, past the default recursion limit
        series = graded_series(BasisKind("std", 23, 1), 1)
        assert series == character_oracle(23, 1, 1)

    def test_std_rank2_level2_reach(self):
        assert graded_series(BasisKind("std", 2, 2), 30).coeffs[30] == 11531735485

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_rank1_andrews_gordon(self, k):
        # prod 1/(1-q^n) over n != 0, +-(k+1) mod 2k+3
        n = 40
        modulus = 2 * k + 3
        product = [1] + [0] * n
        for part in range(1, n + 1):
            if part % modulus not in (0, k + 1, modulus - k - 1):
                for m in range(part, n + 1):
                    product[m] += product[m - part]
        assert graded_series(BasisKind("fs", 1, k), n).coeffs == tuple(product)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            graded_series(BasisKind("fs", 2, 1), -1)


@settings(max_examples=20, deadline=None)
@given(
    kind_method=st.sampled_from(
        [("fs", "inequalities"), ("fs", "divisibility"), ("std", "divisibility")]
    ),
    rank=st.integers(min_value=1, max_value=3),
    level=st.integers(min_value=1, max_value=3),
    max_degree=st.integers(min_value=0, max_value=6),
)
def test_counts_match_enumeration_property(kind_method, rank, level, max_degree):
    kind, method = kind_method
    basis = BasisKind(kind, rank, level)
    series = graded_series(basis, max_degree)
    # the count bounds the cost of enumerating: std(3,3) to degree 6 lists 483,494
    assume(sum(series.coeffs) <= 20_000)
    layers = enumerate_basis(basis, max_degree, method)
    assert series.coeffs == tuple(len(layer) for layer in layers)
    for layer in layers:
        keys = [p.sort_key for p in layer]
        assert all(x < y for x, y in zip(keys, keys[1:]))
    for n in range(max_degree):
        assert graded_series(basis, n).coeffs == series.coeffs[: n + 1]


def inside_table(m, e):
    """inside(i, j) = e(i, j) + max(inside(i+1, j), inside(i, j-1)), 0 when i > j."""
    inside = {}
    for width in range(m):
        for i in range(1, m - width + 1):
            j = i + width
            below = max(inside[i + 1, j], inside[i, j - 1]) if i < j else 0
            inside[i, j] = e[i, j] + below
    return inside


@st.composite
def slice_pairs(draw):
    """A rank m <= 5, a level k <= 3 and two slices t, s with entries at most k."""
    m = draw(st.integers(min_value=1, max_value=5))
    k = draw(st.integers(min_value=1, max_value=3))
    pairs = [(i, j) for i in range(1, m + 1) for j in range(i, m + 1)]
    entries = st.lists(
        st.integers(min_value=0, max_value=k), min_size=len(pairs), max_size=len(pairs)
    )
    return m, k, dict(zip(pairs, draw(entries))), dict(zip(pairs, draw(entries)))


@settings(max_examples=200, deadline=None)
@given(case=slice_pairs())
def test_cut_lemma(case):
    # the fact the series model counts with: the largest path sum over slice
    # t at -v-1 and slice s at -v splits at a cut c into
    # A_t(c) = inside_t(1, c) and B_s(c) = inside_s(c, m)
    m, k, t, s = case
    inside_t, inside_s = inside_table(m, t), inside_table(m, s)
    mixed = max(
        sum(t[p] for p in upper) + sum(s[p] for p in lower)
        for upper, lower in _maximal_paths(m)
    )
    assert mixed == max(inside_t[1, c] + inside_s[c, m] for c in range(1, m + 1))
    chains = max(
        sum(s[p] for p in lower) for upper, lower in _all_paths(m) if not upper
    )
    assert chains == inside_s[1, m]
    if inside_s[1, m] <= k:
        # the listing files an allowed slice under the same profiles
        size = sum(s.values())
        profile_a = tuple(inside_s[1, c] for c in range(1, m + 1))
        profile_b = tuple(inside_s[c, m] for c in range(1, m + 1))
        classes = _cut_profiles(m, k, size)
        assert profile_a in dict(classes.get((size, profile_b), ()))


def one_pair_maximal_paths(m):
    """Maximal paths by filtering every path: none extends by one pair in one block.

    Dropping a pair from either block of a path leaves a path, so a path
    lies inside another exactly when adding one pair to one block does.
    """
    paths = _all_paths(m)
    members = set(paths)
    pairs = [c.pair for c in upper_scheme(m).colors()]
    return tuple(
        (u, low)
        for u, low in paths
        if not any(
            (p not in u and (u | {p}, low) in members)
            or (p not in low and (u, low | {p}) in members)
            for p in pairs
        )
    )


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_maximal_paths_match_one_pair_filter(m):
    assert _maximal_paths(m) == one_pair_maximal_paths(m)


@pytest.mark.parametrize("m", range(1, 11))
def test_maximal_paths_count_and_validity(m):
    paths = _maximal_paths(m)
    assert len(set(paths)) == len(paths) == m * 2 ** (m - 1)
    for upper, lower in paths:
        # each block outermost pair first: smallest i, then largest j
        pairs = sorted(upper, key=lambda p: (p[0], -p[1]))
        pairs += sorted(lower, key=lambda p: (p[0], -p[1]))
        DiagonalPath(m, tuple(pairs), len(upper))  # raises unless a valid path


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_maximal_paths_match_pairwise_definition(m):
    paths = _all_paths(m)
    pairwise = tuple(
        (u, low)
        for u, low in paths
        if not any((u, low) != (u2, l2) and u <= u2 and low <= l2 for u2, l2 in paths)
    )
    assert _maximal_paths(m) == pairwise


class TestWeylKacCharacter:
    def test_rank1_level1_matches_theta_route(self):
        assert character_oracle(1, 1, 25).coeffs == theta_route_character(25).coeffs

    def test_constant_and_first_terms(self):
        # degree -1 is the adjoint representation, of dimension l(2l+1)
        for ell, k in [(1, 1), (2, 1), (2, 3), (3, 2)]:
            assert character_oracle(ell, k, 1).coeffs == (1, ell * (2 * ell + 1))

    @pytest.mark.parametrize("args", [(0, 1, 3), (1, 0, 3), (1, 1, -1)])
    def test_invalid_arguments(self, args):
        with pytest.raises(ValueError):
            character_oracle(*args)


def brute_partition_lists(m):
    """All integer partitions of m as descending lists (reference for counts)."""
    out = []

    def rec(remaining, largest, acc):
        if remaining == 0:
            out.append(list(acc))
            return
        for part in range(min(remaining, largest), 0, -1):
            acc.append(part)
            rec(remaining - part, part, acc)
            acc.pop()

    rec(m, m, [])
    return out


class TestRogersRamanujan:
    def test_small_values(self):
        rows = rr_counts(4)
        assert rows[0] == (1, 1, 1)
        assert rows[3] == (4, 2, 2)

    def test_brute_force_cross_check(self):
        rows = rr_counts(30)
        for m, cong, gap in rows:
            parts_lists = brute_partition_lists(m)
            brute_cong = sum(
                1
                for parts in parts_lists
                if all(p % 5 in (1, 4) for p in parts)
            )
            brute_gap = sum(
                1
                for parts in parts_lists
                if all(a - b >= 2 for a, b in zip(parts, parts[1:]))
            )
            assert (cong, gap) == (brute_cong, brute_gap)

    def test_identity_holds(self):
        assert all(c == g for _, c, g in rr_counts(80))


class TestLeadingTermsDispatch:
    def test_kinds_dispatch(self):
        fs = leading_terms(BasisKind("fs", 2, 1), 1)
        std = leading_terms(BasisKind("std", 1, 1), 1)
        assert all(t.alphabet == upper_scheme(2) for t in fs)
        assert all(t.alphabet == full_scheme(1) for t in std)

    def test_kind_validation(self):
        with pytest.raises(ValueError):
            BasisKind("other", 1, 1)
        with pytest.raises(ValueError):
            BasisKind("fs", 0, 1)
