"""Closed-form leading-term generators: families, paths, counts, bijection."""

from __future__ import annotations

from collections import Counter
from itertools import combinations_with_replacement, groupby
from math import comb

import pytest

from conftest import (
    DiagonalPath,
    diagonal_paths,
    golden_rank2_families,
    path_leading_terms,
)
from cpbasis.ident import transport_partition
from cpbasis.leading import (
    fs_leading_terms,
    leading_term_for_multiset,
    rows,
    std_leading_terms,
    window_split,
)
from cpbasis.partitions import ColoredPartition, Factor, upper_scheme


def up_part(m, *facs):
    return ColoredPartition.from_pairs(upper_scheme(m), *facs)


def pure_power(k, d):
    """The rank-1 leading term supported on degree -d-1 alone."""
    return up_part(1, *([((1, 1), -d - 1)] * (k + 1)))


def base_family(k, d):
    """Rank-1 window-d terms with at least one factor at degree -d."""
    return fs_leading_terms(1, k, d) - {pure_power(k, d)}


class TestBaseFamily:
    def test_level_one_window_one(self):
        terms = base_family(1, 1)
        expected = {
            up_part(1, ((1, 1), -1), ((1, 1), -1)),
            up_part(1, ((1, 1), -2), ((1, 1), -1)),
        }
        assert terms == expected

    def test_term_count_per_window(self):
        assert len(base_family(2, 3)) == 3

    def test_windows_do_not_overlap(self):
        k, dmax = 2, 4
        union = set()
        for d in range(1, dmax + 1):
            union |= base_family(k, d)
        assert len(union) == (k + 1) * dmax

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            fs_leading_terms(1, 0, 1)
        with pytest.raises(ValueError):
            fs_leading_terms(1, 1, 0)


class TestDiagonalPaths:
    def test_rank_one_shapes(self):
        paths = list(diagonal_paths(1, 2))
        shapes = {(p.pairs, p.split) for p in paths}
        assert ((((1, 1),), 0)) in shapes
        assert ((((1, 1),), 1)) in shapes
        assert ((((1, 1), (1, 1)), 1)) in shapes
        # within one block the single pair cannot repeat
        assert all(
            not (p.split in (0, 2) and len(p.pairs) == 2) for p in paths
        )

    def test_rank_two_chain_conditions(self):
        # outermost first: (1,2) may contain (1,1) or (2,2)
        DiagonalPath(2, ((1, 2), (1, 1)), 0)
        DiagonalPath(2, ((1, 2), (2, 2)), 0)
        with pytest.raises(ValueError):
            DiagonalPath(2, ((1, 1), (1, 2)), 0)
        with pytest.raises(ValueError):
            DiagonalPath(2, ((1, 1), (2, 2)), 0)  # not nested at one degree
        # across the split the same pair may repeat, and (1,1)|(2,2) chains
        DiagonalPath(2, ((1, 1), (1, 1)), 1)
        DiagonalPath(2, ((1, 1), (2, 2)), 1)
        with pytest.raises(ValueError):
            DiagonalPath(2, ((1, 1), (1, 1)), 0)
        with pytest.raises(ValueError):
            DiagonalPath(2, ((1, 2), (1, 1)), 1)  # upper block must end left of lower

    def test_no_duplicates(self):
        paths = [(p.pairs, p.split) for p in diagonal_paths(3, 4)]
        assert len(paths) == len(set(paths))

    def test_split_blocks(self):
        p = DiagonalPath(2, ((1, 1), (1, 2), (2, 2)), 1)
        assert p.upper_block == ((1, 1),)
        assert p.lower_block == ((1, 2), (2, 2))
        # repeats inside one block stay forbidden even across length 3
        with pytest.raises(ValueError):
            DiagonalPath(2, ((1, 1), (2, 2), (2, 2)), 1)


class TestPathReference:
    """The multiset closed form against the diagonal-path generator."""

    @pytest.mark.parametrize("m", range(1, 7))
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("d", [1, 2])
    def test_multisets_match_paths(self, m, k, d):
        assert fs_leading_terms(m, k, d) == path_leading_terms(m, k, d)

    @pytest.mark.parametrize("m", range(1, 7))
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_rows_match_paths(self, m, k):
        # decoded independently of the generator: equal factors are adjacent
        # in canonical order, and degree -d-offset is window 1's -1-offset
        def decode(term):
            return tuple(
                ((f.color.a, f.color.b, -f.degree - 1), sum(1 for _ in group))
                for f, group in groupby(term.factors)
            )

        assert Counter(map(decode, path_leading_terms(m, k, 1))) == Counter(rows(m, k))


class TestRankTwoFamilies:
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("d", [1, 2])
    def test_matches_golden_transcription(self, k, d):
        assert fs_leading_terms(2, k, d) == golden_rank2_families(k, d)


class TestGeneratedSets:
    def test_rank_one_is_base_plus_pure_power(self):
        # every split of k+1 copies of X_11 between degrees -d-1 and -d
        for k in (1, 2):
            for d in (1, 2):
                powers = {
                    up_part(1, *([((1, 1), -d - 1)] * (k + 1 - a) + [((1, 1), -d)] * a))
                    for a in range(k + 2)
                }
                assert fs_leading_terms(1, k, d) == powers

    @pytest.mark.parametrize("m,k", [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (4, 1)])
    def test_count_per_split(self, m, k):
        expected = comb(2 * (k + 1) + m - 1, m - 1)
        counts: dict[int, int] = {}
        for t in fs_leading_terms(m, k, 2):
            counts[window_split(t, 2)] = counts.get(window_split(t, 2), 0) + 1
        assert set(counts) == set(range(k + 2))
        assert all(c == expected for c in counts.values())

    def test_length_and_degree_window(self):
        for m, k, d in [(2, 1, 1), (3, 2, 2)]:
            for t in fs_leading_terms(m, k, d):
                assert t.length == k + 1
                assert -(d + 1) * (k + 1) <= t.degree <= -d * (k + 1)
                assert {f.degree for f in t.factors} <= {-d - 1, -d}

    def test_adjacent_windows_share_only_the_boundary(self):
        m, k = 2, 1
        w1 = fs_leading_terms(m, k, 1)
        w2 = fs_leading_terms(m, k, 2)
        shared = w1 & w2
        # the single-degree terms at -2 are generated by both windows
        assert shared == frozenset(
            t for t in w1 if {f.degree for f in t.factors} == {-2}
        )
        assert len(shared) == comb(2 * (k + 1) + m - 1, m - 1)


class TestStandardFamilies:
    def test_rank_one_identification(self):
        terms = std_leading_terms(1, 1, 1)
        rendered = {str(t) for t in terms}
        assert "11(-1)^2" in rendered
        assert "1_1(-1) 11(-1)" in rendered
        assert "_1_1(-2) _1_1(-1)" in rendered
        assert len(terms) == 15

    def test_cardinality_preserved(self):
        for ell, k in [(1, 1), (1, 2), (2, 1)]:
            fs = fs_leading_terms(2 * ell, k, 1)
            std = std_leading_terms(ell, k, 1)
            assert len(fs) == len(std)

    def test_per_split_count(self):
        ell, k = 2, 1
        expected = comb(2 * k + 2 * ell + 1, 2 * ell - 1)
        counts: dict[int, int] = {}
        for t in std_leading_terms(ell, k, 1):
            counts[window_split(t, 1)] = counts.get(window_split(t, 1), 0) + 1
        assert all(c == expected for c in counts.values())

    @pytest.mark.parametrize("ell", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("d", [1, 2])
    def test_identification_carries_leading_terms(self, ell, k, d):
        transported = {transport_partition(t, ell) for t in fs_leading_terms(2 * ell, k, d)}
        assert std_leading_terms(ell, k, d) == transported

    @pytest.mark.parametrize("args", [(0, 1, 1), (1, 0, 1), (1, 1, 0), (-1, 2, 2)])
    def test_argument_validation(self, args):
        # the rank is checked before the full scheme is built
        with pytest.raises(ValueError, match="^rank, level and window must be positive$"):
            std_leading_terms(*args)


def moved_deeper(term, shift):
    """`term` with every factor moved `shift` degrees deeper."""
    return ColoredPartition(
        term.alphabet, tuple(Factor(f.color, f.degree - shift) for f in term.factors)
    )


class TestWindowShift:
    """Window d is window 1 moved d-1 degrees deeper.

    The admissibility checks compile window 1 only and read it on every
    window, so they rest on this.
    """

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_fs_windows(self, m, k):
        first = fs_leading_terms(m, k, 1)
        for d in range(2, 7):
            assert fs_leading_terms(m, k, d) == {moved_deeper(t, d - 1) for t in first}

    @pytest.mark.parametrize("ell", [1, 2])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_std_windows(self, ell, k):
        first = std_leading_terms(ell, k, 1)
        for d in range(2, 7):
            assert std_leading_terms(ell, k, d) == {moved_deeper(t, d - 1) for t in first}


class TestMultisetBijection:
    def test_spec_examples(self):
        assert leading_term_for_multiset((3, 1), 1, -2) == up_part(
            2, ((1, 2), -1), ((1, 1), -1)
        )
        assert leading_term_for_multiset((2, 2), 1, -2) == up_part(
            2, ((1, 2), -1), ((1, 2), -1)
        )
        # pure top-color multisets give the base family shape
        for b in range(0, 3):
            term = leading_term_for_multiset((4,), 2, -2 * 2 - b)
            assert term == up_part(
                1, *([((1, 1), -3)] * b + [((1, 1), -2)] * (2 - b))
            )

    @pytest.mark.parametrize("m,k", [(1, 1), (2, 1), (2, 2), (3, 1)])
    def test_bijection_per_window_split(self, m, k):
        d = 1
        by_split: dict[int, set] = {}
        for t in fs_leading_terms(m, k, d):
            by_split.setdefault(window_split(t, d), set()).add(t)
        multisets = [
            tuple(combo.count(i) for i in range(1, m + 1))
            for combo in combinations_with_replacement(range(1, m + 1), 2 * (k + 1))
        ]
        for b in range(k + 2):
            n = -d * (k + 1) - b
            image = {leading_term_for_multiset(ms, d, n) for ms in multisets}
            assert image == by_split[b]
            assert len(image) == len(multisets)

    def test_invalid_split_rejected(self):
        with pytest.raises(ValueError):
            leading_term_for_multiset((2, 2), 1, -7)
        with pytest.raises(ValueError):
            leading_term_for_multiset((2, 1), 1, -2)
