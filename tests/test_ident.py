"""The rank-doubling scheme identification and partition transport."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, strategies as st

from conftest import iota_inverse, transport_partition_inverse
from cpbasis.ident import iota, transport_partition
from cpbasis.partitions import (
    Color,
    ColoredPartition,
    Factor,
    compare_colors,
    compare_partitions,
    full_scheme,
    upper_scheme,
)


class TestIota:
    def test_rank_three_sample(self):
        assert str(iota((1, 4), 3)) == "1_3"

    def test_rank_three_fourth_row(self):
        assert [str(iota((i, 4), 3)) for i in range(1, 5)] == [
            "1_3",
            "2_3",
            "3_3",
            "_3_3",
        ]

    def test_rank_one_triple(self):
        assert str(iota((1, 1), 1)) == "11"
        assert str(iota((1, 2), 1)) == "1_1"
        assert str(iota((2, 2), 1)) == "_1_1"

    def test_rank_two_sample(self):
        assert str(iota((3, 4), 2)) == "_2_1"

    def test_bijective(self):
        for ell in range(1, 9):
            pairs = [
                (i, j) for i in range(1, 2 * ell + 1) for j in range(i, 2 * ell + 1)
            ]
            image = {iota(p, ell) for p in pairs}
            assert image == set(full_scheme(ell).colors())
            assert len(pairs) == ell * (2 * ell + 1)

    def test_round_trip(self):
        for ell in range(1, 7):
            for c in full_scheme(ell).colors():
                assert iota(iota_inverse(c, ell), ell) == c

    def test_inverse_example(self):
        # the color 3 3bar of rank 3 comes from the pair (3, 4)
        assert iota_inverse(Color(full_scheme(3), 3, 4), 3) == (3, 4)
        assert iota_inverse(Color(full_scheme(1), 1, 2), 1) == (1, 2)

    def test_order_preserving(self):
        for ell in (1, 2, 3):
            source = upper_scheme(2 * ell).colors()
            for x, y in itertools.combinations(source, 2):
                assert compare_colors(x, y) == compare_colors(
                    iota(x.pair, ell), iota(y.pair, ell)
                )

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            iota((2, 1), 1)
        with pytest.raises(ValueError):
            iota((1, 3), 1)
        with pytest.raises(ValueError):
            iota_inverse(Color(full_scheme(2), 1, 1), 1)


def up_part(m, *facs):
    return ColoredPartition.from_pairs(upper_scheme(m), *facs)


class TestTransport:
    def test_empty(self):
        assert transport_partition(up_part(6), 3) == ColoredPartition(
            full_scheme(3), ()
        )

    def test_degrees_untouched(self):
        p = up_part(6, ((1, 4), -2), ((2, 2), -1))
        q = transport_partition(p, 3)
        assert str(q) == "1_3(-2) 22(-1)"
        assert q.degree == p.degree and q.length == p.length

    def test_wrong_scheme_rejected(self):
        with pytest.raises(ValueError):
            transport_partition(up_part(4, ((1, 1), -1)), 1)
        with pytest.raises(ValueError):
            transport_partition_inverse(up_part(2, ((1, 1), -1)), 1)

    def test_round_trip(self):
        p = up_part(4, ((1, 3), -2), ((2, 4), -1), ((4, 4), -5))
        assert transport_partition_inverse(transport_partition(p, 2), 2) == p


@st.composite
def rank4_partition(draw):
    alphabet = upper_scheme(4)
    n_factors = draw(st.integers(min_value=0, max_value=5))
    facs = []
    for _ in range(n_factors):
        i = draw(st.integers(min_value=1, max_value=4))
        j = draw(st.integers(min_value=i, max_value=4))
        deg = draw(st.integers(min_value=-6, max_value=-1))
        facs.append(Factor(Color(alphabet, i, j), deg))
    return ColoredPartition(alphabet, tuple(facs))


@given(rank4_partition(), rank4_partition())
def test_transport_preserves_order(p, q):
    assert compare_partitions(p, q) == compare_partitions(
        transport_partition(p, 2), transport_partition(q, 2)
    )


@given(rank4_partition(), rank4_partition())
def test_transport_commutes_with_multiply(p, q):
    assert transport_partition(p * q, 2) == transport_partition(
        p, 2
    ) * transport_partition(q, 2)


@st.composite
def doubled_rank_partition(draw):
    """A rank ell <= 3 and a partition over the rank-2*ell triangle, with repeated factors."""
    ell = draw(st.integers(min_value=1, max_value=3))
    factor = st.tuples(
        st.sampled_from(upper_scheme(2 * ell).colors()),
        st.integers(min_value=-12, max_value=-1),
    )
    drawn = draw(st.lists(factor, max_size=8))
    # repeat some drawn factors, so that equal factors sit side by side
    drawn += draw(st.lists(st.sampled_from(drawn), max_size=4)) if drawn else []
    return ell, ColoredPartition(upper_scheme(2 * ell), tuple(Factor(c, n) for c, n in drawn))


@given(doubled_rank_partition())
def test_transport_without_sort_is_canonical(case):
    ell, p = case
    q = transport_partition(p, ell)
    # the sorting constructor, fed the same colors in reverse order
    target = full_scheme(ell)
    colors = [(Color(target, f.color.a, f.color.b), f.degree) for f in p.factors]
    sorted_q = ColoredPartition(target, tuple(Factor(c, n) for c, n in colors[::-1]))
    assert q == sorted_q and hash(q) == hash(sorted_q)
    assert q.factors == sorted_q.factors
    keys = [f.sort_key for f in q.factors]
    assert keys == sorted(keys)
    with pytest.raises(ValueError):
        transport_partition(p, ell + 1)
    with pytest.raises(ValueError):
        transport_partition(q, ell)


@given(doubled_rank_partition())
def test_transported_factors_are_public_factors(case):
    ell, p = case
    q = transport_partition(p, ell)
    target = full_scheme(ell)
    expected = [Factor(Color(target, f.color.a, f.color.b), f.degree) for f in p.factors]
    assert list(q.factors) == expected
    assert [hash(f) for f in q.factors] == [hash(f) for f in expected]
    assert [f.sort_key for f in q.factors] == [f.sort_key for f in expected]
    assert all(type(f) is Factor and type(f.degree) is int for f in q.factors)
    # the image colors are the target scheme's shared ones
    shared = {c.pair: c for c in target.colors()}
    assert all(f.color is shared[f.color.pair] for f in q.factors)
