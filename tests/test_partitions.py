"""Order axioms, monoid laws and rendering of colored partitions."""

from __future__ import annotations

import itertools
import pickle

import pytest
from hypothesis import given, strategies as st

from conftest import gen_partitions
from cpbasis.partitions import (
    Alphabet,
    Color,
    ColoredPartition,
    Factor,
    _color_table,
    compare_colors,
    compare_factors,
    compare_partitions,
    divides,
    full_scheme,
    multiply,
    unit,
    upper_scheme,
)

B1 = full_scheme(1)
B2 = full_scheme(2)
B3 = full_scheme(3)
UP1 = upper_scheme(1)
UP2 = upper_scheme(2)


def part(alphabet, *facs):
    return ColoredPartition.from_pairs(alphabet, *facs)


class TestSchemes:
    def test_scheme_sizes(self):
        # the full scheme of rank l has l(2l+1) colors, the upper triangle l(l+1)/2
        for ell in range(1, 7):
            assert len(full_scheme(ell).colors()) == ell * (2 * ell + 1)
            assert len(upper_scheme(ell).colors()) == ell * (ell + 1) // 2

    def test_invalid_schemes(self):
        with pytest.raises(ValueError):
            full_scheme(0)
        with pytest.raises(ValueError):
            Color(B2, 2, 1)
        with pytest.raises(ValueError):
            Color(UP2, 1, 3)

    def test_schemes_are_shared_values(self):
        assert upper_scheme(2) is upper_scheme(2) is UP2
        assert full_scheme(3) is full_scheme(3) is B3
        assert upper_scheme(2) == Alphabet("B1", 2) and hash(UP2) == hash(Alphabet("B1", 2))
        assert upper_scheme(2) is not full_scheme(2) and upper_scheme(2) != full_scheme(1)

    def test_shared_schemes_keep_their_argument_checks(self):
        # rank 2 is cached, and 2.0 equals and hashes like 2
        assert full_scheme(2) is B2 and upper_scheme(2) is UP2
        with pytest.raises(TypeError):
            upper_scheme(2.0)
        with pytest.raises(TypeError):
            full_scheme("2")
        with pytest.raises(ValueError):
            full_scheme(0)
        with pytest.raises(ValueError):
            upper_scheme(-1)

    def test_display(self):
        assert str(Color(B3, 2, 4)) == "2_3"  # 2 with barred 3
        assert str(Color(B1, 1, 2)) == "1_1"
        assert str(Color(B1, 2, 2)) == "_1_1"
        assert str(Color(UP2, 1, 2)) == "12"


class TestColorOrder:
    def test_column_then_row(self):
        assert compare_colors(Color(B2, 1, 1), Color(B2, 1, 2)) > 0
        assert compare_colors(Color(B2, 1, 2), Color(B2, 2, 2)) > 0
        # columns 2 and barred-2 at rank 2: internal 2 vs 3
        assert compare_colors(Color(B2, 2, 3), Color(B2, 3, 3)) > 0

    def test_top_color_is_maximum(self):
        top = Color(B2, 1, 1)
        assert all(compare_colors(top, c) >= 0 for c in B2.colors())

    def test_total_order_exhaustive(self):
        colors = B2.colors()
        for x, y in itertools.product(colors, repeat=2):
            assert compare_colors(x, y) == -compare_colors(y, x)
            assert (compare_colors(x, y) == 0) == (x == y)
        for x, y, z in itertools.permutations(colors[:6], 3):
            if compare_colors(x, y) <= 0 and compare_colors(y, z) <= 0:
                assert compare_colors(x, z) <= 0

    def test_scheme_mismatch(self):
        with pytest.raises(ValueError):
            compare_colors(Color(B2, 1, 1), Color(B3, 1, 1))


class TestFactorOrder:
    def test_degree_dominates(self):
        f = Factor(Color(B2, 1, 1), -2)
        g = Factor(Color(B2, 2, 2), -1)
        assert compare_factors(f, g) < 0

    def test_color_breaks_ties(self):
        f = Factor(Color(B2, 2, 2), -1)
        g = Factor(Color(B2, 1, 1), -1)
        assert compare_factors(f, g) < 0

    def test_reflexive(self):
        f = Factor(Color(B2, 1, 2), -3)
        assert compare_factors(f, f) == 0


class TestPartitionOrder:
    def test_balanced_degrees_are_lower(self):
        # same color, same length, same degree: (-1,-1) below (-2,0)
        p = part(UP1, ((1, 1), -1), ((1, 1), -1))
        q = part(UP1, ((1, 1), -2), ((1, 1), 0))
        assert compare_partitions(p, q) < 0

    def test_shorter_is_higher(self):
        p = part(UP1, ((1, 1), -2))
        q = part(UP1, ((1, 1), -1), ((1, 1), -1))
        assert compare_partitions(q, p) < 0

    def test_greater_degree_is_higher(self):
        p = part(UP1, ((1, 1), -3))
        q = part(UP1, ((1, 1), -2))
        assert compare_partitions(p, q) < 0

    def test_color_stage(self):
        # equal plain partitions: (12,12) below (22,11)
        p = part(UP2, ((1, 1), -1), ((2, 2), -1))
        q = part(UP2, ((1, 2), -1), ((1, 2), -1))
        assert compare_partitions(q, p) < 0

    def test_plain_stage_beats_color_stage(self):
        # plain partitions differ at the second-largest part while the
        # color comparison would favor the other side: plain must win
        p = part(UP2, ((2, 2), -4), ((1, 1), -2), ((2, 2), -1))
        q = part(UP2, ((1, 1), -3), ((1, 1), -3), ((1, 1), -1))
        assert compare_partitions(q, p) < 0

    def test_total_order_exhaustive(self):
        # comparison goes through one tuple key per partition, so key
        # injectivity over the whole bounded set gives totality and
        # transitivity; antisymmetry is re-checked pairwise
        universe = gen_partitions(UP2, 6)
        keys = {p.sort_key for p in universe}
        assert len(keys) == len(universe)
        for p, q in itertools.combinations(universe, 2):
            assert compare_partitions(p, q) == -compare_partitions(q, p)
            assert compare_partitions(p, q) != 0
        sample = universe[::17]
        for p, q, r in itertools.permutations(sample[:20], 3):
            if compare_partitions(p, q) <= 0 and compare_partitions(q, r) <= 0:
                assert compare_partitions(p, r) <= 0

    def test_multiplication_monotone(self):
        universe = gen_partitions(UP2, 3)
        for kappa, lam in itertools.combinations(universe, 2):
            c = compare_partitions(kappa, lam)
            for pi in universe[:25]:
                assert compare_partitions(kappa * pi, lam * pi) == c

    def test_scheme_mismatch(self):
        with pytest.raises(ValueError):
            compare_partitions(unit(UP1), unit(UP2))


class TestMonoid:
    def test_unit(self):
        p = part(UP2, ((1, 2), -1), ((1, 1), -3))
        assert p * unit(UP2) == p
        assert unit(UP2).length == 0 and unit(UP2).degree == 0

    def test_multiply_sorts(self):
        p = part(B2, ((1, 1), -1))
        q = part(B2, ((2, 2), -2))
        prod = multiply(p, q)
        assert [f.degree for f in prod.factors] == [-2, -1]

    def test_canonical_idempotent(self):
        facs = [
            Factor(Color(UP2, 1, 1), -1),
            Factor(Color(UP2, 2, 2), -3),
            Factor(Color(UP2, 1, 2), -1),
        ]
        p = ColoredPartition(UP2, tuple(facs))
        q = ColoredPartition(UP2, p.factors)
        assert p.factors == q.factors
        assert p.factors == tuple(sorted(p.factors, key=lambda f: f.sort_key))

    def test_divides_examples(self):
        rho = part(UP2, ((1, 1), -1), ((1, 1), -1))
        pi = part(UP2, ((1, 1), -1), ((1, 1), -1), ((1, 2), -2))
        assert divides(rho, pi)
        assert not divides(rho, part(UP2, ((1, 1), -1), ((1, 2), -1)))
        assert divides(unit(UP2), pi)

    def test_divides_antisymmetric(self):
        universe = gen_partitions(UP2, 3)
        for p, q in itertools.product(universe, repeat=2):
            if divides(p, q) and divides(q, p):
                assert p == q

    def test_alphabet_mismatch(self):
        with pytest.raises(ValueError):
            multiply(unit(UP1), unit(UP2))
        with pytest.raises(ValueError):
            divides(unit(UP1), unit(UP2))


@st.composite
def random_partition(draw):
    n_factors = draw(st.integers(min_value=0, max_value=6))
    facs = []
    for _ in range(n_factors):
        a = draw(st.integers(min_value=1, max_value=4))
        b = draw(st.integers(min_value=a, max_value=4))
        deg = draw(st.integers(min_value=-8, max_value=-1))
        facs.append(Factor(Color(B2, a, b), deg))
    return ColoredPartition(B2, tuple(facs))


@given(random_partition(), random_partition())
def test_multiply_additive(p, q):
    prod = p * q
    assert prod.degree == p.degree + q.degree
    assert prod.length == p.length + q.length


@given(random_partition(), random_partition())
def test_divisor_of_product(p, q):
    assert divides(p, p * q)


@st.composite
def pair_entries(draw):
    """A full or upper scheme of rank <= 4 and ``((a, b), degree)`` entries, some repeated."""
    alphabet = draw(st.sampled_from([full_scheme, upper_scheme]))(draw(st.integers(1, 4)))
    entry = st.tuples(
        st.sampled_from([c.pair for c in alphabet.colors()]), st.integers(-9, -1)
    )
    drawn = draw(st.lists(entry, max_size=8))
    # repeat some drawn entries, so that equal factors sit side by side
    drawn += draw(st.lists(st.sampled_from(drawn), max_size=4)) if drawn else []
    return alphabet, draw(st.permutations(drawn))


@given(pair_entries())
def test_from_pairs_is_the_public_constructor(case):
    alphabet, entries = case
    p = ColoredPartition.from_pairs(alphabet, *entries)
    q = ColoredPartition(
        alphabet, tuple(Factor(Color(alphabet, a, b), n) for (a, b), n in entries)
    )
    assert p == q and hash(p) == hash(q)
    assert p.factors == q.factors
    # both put the factors in ascending `Factor.sort_key` order
    order = sorted((n, (-a, -b)) for (a, b), n in entries)
    assert [f.sort_key for f in p.factors] == order
    assert [f.sort_key for f in q.factors] == order
    assert all(type(f) is Factor and type(f.degree) is int for f in p.factors)
    copy = pickle.loads(pickle.dumps(p))
    assert copy == p and hash(copy) == hash(p) and copy.factors == p.factors
    # every color is the scheme's shared one
    table = _color_table(alphabet)
    assert all(f.color is table[f.color.pair] for f in p.factors)


@pytest.mark.parametrize("scheme", [full_scheme, upper_scheme])
@pytest.mark.parametrize("slot", [0, 1, 2])
@pytest.mark.parametrize("bad", [1.0, 2.5, "1"])
def test_from_pairs_refuses_inexact_entries(scheme, slot, bad):
    entry = [1, 2, -1]
    entry[slot] = bad
    a, b, n = entry
    with pytest.raises(TypeError):
        ColoredPartition.from_pairs(scheme(2), ((1, 1), -2), ((a, b), n))


@pytest.mark.parametrize("scheme", [full_scheme, upper_scheme])
@pytest.mark.parametrize("pair", [(2, 1), (0, 1), (1, 5), (-1, 2)])
def test_from_pairs_refuses_pairs_out_of_range(scheme, pair):
    alphabet = scheme(2)
    with pytest.raises(ValueError, match="is not a valid color"):
        ColoredPartition.from_pairs(alphabet, ((1, 1), -2), (pair, -1))
    # a refused pair is not kept: the table holds only the scheme's colors
    assert pair not in _color_table(alphabet)
    assert set(_color_table(alphabet)) <= {c.pair for c in alphabet.colors()}


def test_from_pairs_refuses_a_scheme_that_is_not_an_alphabet():
    with pytest.raises(TypeError, match="expected an Alphabet"):
        ColoredPartition.from_pairs("B1", ((1, 1), -1))
