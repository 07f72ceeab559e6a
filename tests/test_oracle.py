"""Brute-force relation supports and their minima against the closed forms."""

from __future__ import annotations

import json
import random
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

from cpbasis import oracle
from cpbasis.cli import main
from cpbasis.leading import fs_leading_terms, window_split
from cpbasis.oracle import (
    _least_compositions,
    _negative_compositions,
    _order_key,
    _pairings,
    _support_keys,
    audit_windows,
    brute_leading_term,
    relation_support,
)
from cpbasis.partitions import (
    Color,
    ColoredPartition,
    Factor,
    compare_partitions,
    upper_scheme,
)


def up_part(m, *facs):
    return ColoredPartition.from_pairs(upper_scheme(m), *facs)


class TestSupport:
    def test_single_pairing_single_composition(self):
        support = relation_support((4, 0), -2, 1, 2)
        assert support.partitions == {up_part(2, ((1, 1), -1), ((1, 1), -1))}

    def test_two_pairings(self):
        support = relation_support((2, 2), -2, 1, 2)
        assert support.partitions == {
            up_part(2, ((1, 1), -1), ((2, 2), -1)),
            up_part(2, ((1, 2), -1), ((1, 2), -1)),
        }

    def test_one_pairing_two_compositions(self):
        support = relation_support((3, 1), -3, 1, 2)
        assert up_part(2, ((1, 2), -2), ((1, 1), -1)) in support.partitions
        assert up_part(2, ((1, 1), -2), ((1, 2), -1)) in support.partitions

    def test_size_bound(self):
        # canonical dedup never exceeds pairings x compositions
        support = relation_support((2, 2, 2), -4, 2, 3)
        n_pairings = 0
        seen = set()
        for p in _pairings((1, 1, 2, 2, 3, 3)):
            n_pairings += 1
            seen.add(tuple(sorted(p)))
        assert n_pairings >= len(seen)
        n_comps = len(_negative_compositions(-4, 3))
        assert len(support.partitions) <= len(seen) * n_comps

    def test_degree_validation(self):
        with pytest.raises(ValueError):
            relation_support((2, 2), -1, 1, 2)
        with pytest.raises(ValueError):
            relation_support((2, 1), -2, 1, 2)
        with pytest.raises(ValueError):
            relation_support((2, 2), -2, 1, 3)


class TestBruteMinimum:
    def test_base_family_member(self):
        assert brute_leading_term((4,), -3, 1, 1) == up_part(
            1, ((1, 1), -2), ((1, 1), -1)
        )

    def test_squares_beat_split_colors(self):
        assert brute_leading_term((2, 2), -2, 1, 2) == up_part(
            2, ((1, 2), -1), ((1, 2), -1)
        )

    def test_mixed_window_minimum(self):
        # the two-degree support minimum pairs the top corner at -2 with
        # the bottom corner at -1
        assert brute_leading_term((2, 2), -3, 1, 2) == up_part(
            2, ((1, 1), -2), ((2, 2), -1)
        )

    def test_enumeration_order_irrelevant(self):
        support = relation_support((2, 1, 1), -4, 1, 3)
        reference = brute_leading_term((2, 1, 1), -4, 1, 3)
        members = list(support.partitions)
        rng = random.Random(7)
        for _ in range(5):
            rng.shuffle(members)
            best = members[0]
            for p in members[1:]:
                if compare_partitions(p, best) < 0:
                    best = p
            assert best == reference


class TestAudit:
    @pytest.mark.parametrize(
        "m,k,dmax",
        [
            (2, 1, 2),
            (1, 1, 3),
            (2, 2, 2),
            # beyond rank 3: the std(2) walks read the rank-4 terms
            (4, 1, 3),
            (4, 2, 2),
            (5, 2, 2),
            (6, 1, 2),
            (6, 2, 1),
        ],
    )
    def test_windows_clean(self, m, k, dmax):
        report = audit_windows(m, k, dmax)
        assert report.ok
        assert report.to_json() == {
            "rank": m,
            "level": k,
            "windows": dmax,
            "mismatches": [],
        }

    def test_minima_are_window_concentrated(self):
        m, k = 2, 1
        for combo in combinations_with_replacement((1, 2), 4):
            ms = (combo.count(1), combo.count(2))
            for n in range(-2, -7, -1):
                term = brute_leading_term(ms, n, k, m)
                degs = sorted({f.degree for f in term.factors})
                assert len(degs) <= 2
                if len(degs) == 2:
                    assert degs[1] - degs[0] == 1

    def test_every_minimum_is_a_generated_term(self):
        m, k, d = 2, 1, 1
        closed = fs_leading_terms(m, k, d)
        for combo in combinations_with_replacement((1, 2), 4):
            ms = (combo.count(1), combo.count(2))
            for b in range(k + 2):
                assert brute_leading_term(ms, -d * (k + 1) - b, k, m) in closed


def reference_support(multiset, n, k, m) -> frozenset:
    """The support built one `ColoredPartition` per pairing x composition."""
    alphabet = upper_scheme(m)
    elements = tuple(i for i, c in enumerate(multiset, start=1) for _ in range(c))
    return frozenset(
        ColoredPartition(
            alphabet,
            tuple(
                Factor(Color(alphabet, i, j), deg)
                for (i, j), deg in zip(pairing, comp)
            ),
        )
        for pairing in _pairings(elements)
        for comp in _negative_compositions(n, k + 1)
    )


def reference_minimum(multiset, n, k, m) -> ColoredPartition:
    """The support's minimum by the full `sort_key` of each built partition."""
    return min(reference_support(multiset, n, k, m), key=lambda p: p.sort_key)


@st.composite
def support_cases(draw):
    m = draw(st.integers(1, 3))
    k = draw(st.integers(1, 3))
    combo = draw(
        st.sampled_from(
            list(combinations_with_replacement(range(1, m + 1), 2 * (k + 1)))
        )
    )
    multiset = tuple(combo.count(i) for i in range(1, m + 1))
    # window degrees are -d(k+1)-b with 0 <= b <= k+1; the range covers others too
    n = draw(st.integers(-(k + 1) - 8, -(k + 1)))
    return multiset, n, k, m


@settings(max_examples=80, deadline=None)
@given(case=support_cases())
def test_keys_match_partition_objects(case):
    support = relation_support(*case)
    assert support.partitions == reference_support(*case)
    assert (support.multiset, support.degree, support.level, support.rank) == (
        case[0], case[1], case[2], case[3],
    )
    assert brute_leading_term(*case) == reference_minimum(*case)


@st.composite
def same_support_pairs(draw):
    """Two partitions of one length and one degree, and their canonical keys."""
    m = draw(st.integers(1, 3))
    length = draw(st.integers(1, 4))
    n = draw(st.integers(-length - 5, -length))
    colors = st.tuples(st.integers(1, m), st.integers(1, m)).map(sorted)
    out = []
    for _ in range(2):
        comp = draw(st.sampled_from(_negative_compositions(n, length)))
        pairs = draw(st.lists(colors, min_size=length, max_size=length))
        out.append(tuple(sorted((d, -a, -b) for (a, b), d in zip(pairs, comp))))
    alphabet = upper_scheme(m)
    parts = [
        ColoredPartition.from_pairs(alphabet, *(((-a, -b), d) for d, a, b in key))
        for key in out
    ]
    return out, parts


def _sign(x, y) -> int:
    return (x > y) - (x < y)


@settings(max_examples=300, deadline=None)
@given(case=same_support_pairs())
def test_order_key_is_the_well_order_on_one_support(case):
    (kp, kq), (p, q) = case
    assert _sign(_order_key(kp), _order_key(kq)) == compare_partitions(p, q)


@pytest.mark.parametrize(
    "args, message",
    [
        (((2, 2), -2, 1, 3), "expected 3 multiplicities, got 2"),
        (((5, -1), -2, 1, 2), "multiplicities must be nonnegative"),
        (((2, 1), -2, 1, 2), "multiset size must be 2(k+1) = 4"),
        (((2, 2), -1, 1, 2), "degree -1 leaves no composition into 2 parts <= -1"),
        (((), 0, -1, 0), "rank and level must be positive"),
        (((2,), -1, 0, 1), "rank and level must be positive"),
    ],
)
def test_argument_errors(args, message):
    for fn in (relation_support, brute_leading_term):
        with pytest.raises(ValueError) as exc:
            fn(*args)
        assert str(exc.value) == message


def one_stage_minimum(multiset, n, k, m) -> ColoredPartition:
    """The one-stage minimum: `_order_key` over every key of the whole support."""
    best = min(_support_keys(multiset, n, k, m), key=_order_key)
    return up_part(m, *(((-a, -b), d) for d, a, b in best))


def test_two_stages_match_one_stage_minimum():
    # every multiset of size 2(k+1) for m <= 3, k <= 3, on nine degrees each
    cases = 0
    for m in range(1, 4):
        for k in range(1, 4):
            for combo in combinations_with_replacement(range(1, m + 1), 2 * (k + 1)):
                multiset = tuple(combo.count(i) for i in range(1, m + 1))
                for n in range(-(k + 1), -(k + 1) - 9, -1):
                    assert brute_leading_term(multiset, n, k, m) == one_stage_minimum(
                        multiset, n, k, m
                    )
                    cases += 1
    assert cases == 1008


@pytest.mark.parametrize("n, parts", [(-2, 2), (-7, 2), (-9, 3), (-12, 4), (-5, 5)])
def test_least_compositions_are_balanced_and_complete(n, parts):
    # the least descending degree sequence spreads n as evenly as it can
    least = _least_compositions(n, parts)
    q, r = divmod(-n, parts)
    balanced = sorted([-q - 1] * r + [-q] * (parts - r))
    assert sorted(least) == sorted(
        c for c in _negative_compositions(n, parts) if sorted(c) == balanced
    )
    assert least


def partner_once_pairings(elements):
    """Pairings where the first element takes each distinct partner once, repeats kept."""
    if not elements:
        yield ()
        return
    first, rest = elements[0], elements[1:]
    seen = set()
    for idx, partner in enumerate(rest):
        if partner in seen:
            continue
        seen.add(partner)
        for tail in partner_once_pairings(rest[:idx] + rest[idx + 1 :]):
            yield ((first, partner),) + tail


def test_pairings_are_the_distinct_pairings_once_each():
    cases = 0
    for size in range(2, 13):
        for elements in combinations_with_replacement(range(1, 5), size):
            pairings = list(_pairings(elements))
            assert all(list(p) == sorted(p) for p in pairings)
            assert len(set(pairings)) == len(pairings)
            assert set(pairings) == {
                tuple(sorted(p)) for p in partner_once_pairings(elements)
            }
            cases += 1
    assert cases == 1815
    assert len(list(_pairings((1, 1, 1, 2, 2, 2, 3, 3, 4, 4)))) == 25
    assert len(list(partner_once_pairings((1, 1, 1, 2, 2, 2, 3, 3, 4, 4)))) == 96
    assert len(list(_pairings((1,) * 6 + (2,) * 6))) == 4
    assert len(list(partner_once_pairings((1,) * 6 + (2,) * 6))) == 13


def searched_least_compositions(n, parts):
    """The compositions of `_negative_compositions` whose descending sequence is least."""
    compositions = _negative_compositions(n, parts)
    least = min(sorted(comp, reverse=True) for comp in compositions)
    return {c for c in compositions if sorted(c, reverse=True) == least}


def test_least_compositions_match_the_search():
    for parts in range(1, 7):
        for n in range(-parts, -parts - 13, -1):
            built = _least_compositions(n, parts)
            assert len(set(built)) == len(built)
            assert set(built) == searched_least_compositions(n, parts)


def test_minimum_never_lists_compositions(monkeypatch):
    def refuse(n, parts):
        raise AssertionError("stage 1 listed the compositions")

    monkeypatch.setattr(oracle, "_negative_compositions", refuse)
    assert brute_leading_term((2, 2), -3, 1, 2) == up_part(
        2, ((1, 1), -2), ((2, 2), -1)
    )
    assert audit_windows(2, 3, 3).ok


def key_of(p: ColoredPartition) -> tuple[tuple[int, int, int], ...]:
    """A partition's integer key: its factors in order, each ``(degree, -a, -b)``."""
    return tuple((f.degree, -f.color.a, -f.color.b) for f in p.factors)


class TestAuditFailures:
    """The audit reports what the closed forms and the minima disagree on."""

    def audit(self, capsys, m, k, dmax):
        code = main(["audit-oracle", "--rank", str(m), "--level", str(k),
                     "--max-window", str(dmax)])
        return code, json.loads(capsys.readouterr().out)["mismatches"]

    def test_dropped_closed_term_is_unexpected(self, monkeypatch, capsys):
        dropped = up_part(2, ((1, 2), -1), ((1, 2), -1))
        assert dropped in fs_leading_terms(2, 1, 1)
        closed_keys = oracle._closed_keys
        monkeypatch.setattr(
            oracle,
            "_closed_keys",
            lambda m, k, d: {
                split: keys - {key_of(dropped)}
                for split, keys in closed_keys(m, k, d).items()
            },
        )
        code, mismatches = self.audit(capsys, 2, 1, 1)
        assert code == 1
        assert mismatches == [
            {"window": 1, "split": 0, "missing": [], "unexpected": [str(dropped)]}
        ]

    def test_added_closed_term_is_missing(self, monkeypatch, capsys):
        # a support member of the multiset {1, 1, 2, 2}, but not its minimum
        added = up_part(2, ((1, 1), -1), ((2, 2), -1))
        assert added not in fs_leading_terms(2, 1, 1)
        closed_keys = oracle._closed_keys

        def with_added(m, k, d):
            by_split = closed_keys(m, k, d)
            return {**by_split, 0: by_split[0] | {key_of(added)}}

        monkeypatch.setattr(oracle, "_closed_keys", with_added)
        code, mismatches = self.audit(capsys, 2, 1, 1)
        assert code == 1
        assert mismatches == [
            {"window": 1, "split": 0, "missing": [str(added)], "unexpected": []}
        ]

    def test_minimum_off_the_window(self, monkeypatch, capsys):
        spread = up_part(1, ((1, 1), -3), ((1, 1), -2), ((1, 1), -1))
        monkeypatch.setattr(oracle, "_brute_key", lambda pairings, least: key_of(spread))
        code, mismatches = self.audit(capsys, 1, 2, 1)
        assert code == 1
        errors = [x for x in mismatches if "error" in x]
        assert errors == [
            {
                "window": 1,
                "split": b,
                "multiset": [6],
                "error": "not window-concentrated",
                "term": str(spread),
            }
            for b in range(4)
        ]
        # with no minimum kept, every closed term of the window is missing
        assert [x["missing"] for x in mismatches if "missing" in x] == [
            [str(t)] for t in sorted(fs_leading_terms(1, 2, 1), key=lambda p: -p.degree)
        ]


def test_closed_keys_are_the_keys_of_the_closed_terms():
    # the audit's closed side is the public object route, split by split
    for m in range(1, 5):
        for k in range(1, 4):
            for d in range(1, 4):
                by_split = {}
                for term in fs_leading_terms(m, k, d):
                    by_split.setdefault(window_split(term, d), set()).add(key_of(term))
                assert oracle._closed_keys(m, k, d) == by_split
