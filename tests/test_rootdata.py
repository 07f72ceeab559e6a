"""Root-system data, exact Weyl dimensions and the branching identity."""

from __future__ import annotations

from fractions import Fraction
from math import comb

import pytest

from cpbasis.rootdata import (
    RootSystemSpec,
    Weight,
    branching_dimensions,
    eps,
    fundamental_weight_one,
    highest_root,
    minuscule_gamma,
    positive_roots,
    verify_branching,
    weight,
    weyl_dim,
    zero_weight,
)


class TestPositiveRoots:
    def test_c2_explicit(self):
        spec = RootSystemSpec("C", 2)
        roots = {r.coords for r in positive_roots(spec)}
        assert roots == {
            (Fraction(2), Fraction(0)),
            (Fraction(0), Fraction(2)),
            (Fraction(1), Fraction(-1)),
            (Fraction(1), Fraction(1)),
        }

    def test_a1_single_root(self):
        assert len(positive_roots(RootSystemSpec("A", 1))) == 1

    def test_c3_brute_count(self):
        spec = RootSystemSpec("C", 3)
        roots = positive_roots(spec)
        brute = set()
        for i in range(1, 4):
            brute.add((2 * eps(i, 3)).coords)
            for j in range(i + 1, 4):
                brute.add((eps(i, 3) + (-1) * eps(j, 3)).coords)
                brute.add((eps(i, 3) + eps(j, 3)).coords)
        assert {r.coords for r in roots} == brute
        assert len(roots) == 9

    def test_counts_all_ranks(self):
        for ell in range(1, 9):
            assert len(positive_roots(RootSystemSpec("C", ell))) == ell * ell
            assert len(positive_roots(RootSystemSpec("A", ell))) == ell * (ell + 1) // 2
        for ell in range(2, 9):
            assert len(positive_roots(RootSystemSpec("B", ell))) == ell * ell
        for ell in range(3, 9):
            assert len(positive_roots(RootSystemSpec("D", ell))) == ell * (ell - 1)

    def test_rank_bounds(self):
        with pytest.raises(ValueError):
            RootSystemSpec("B", 1)
        with pytest.raises(ValueError):
            RootSystemSpec("D", 2)
        with pytest.raises(ValueError):
            RootSystemSpec("E", 6)


class TestWeylDim:
    def test_adjoint_of_rank2_symplectic(self):
        spec = RootSystemSpec("C", 2)
        assert weyl_dim(spec, highest_root(spec)) == 10

    def test_trivial_weight(self):
        for spec in (
            RootSystemSpec("A", 3),
            RootSystemSpec("B", 2),
            RootSystemSpec("C", 4),
            RootSystemSpec("D", 4),
        ):
            assert weyl_dim(spec, zero_weight(spec)) == 1

    def test_symmetric_square_of_a3(self):
        spec = RootSystemSpec("A", 3)
        assert weyl_dim(spec, 2 * fundamental_weight_one(spec)) == comb(5, 2) == 10

    def test_spin_representation(self):
        spec = RootSystemSpec("B", 2)
        lam = weight(spec, [Fraction(1, 2), Fraction(1, 2)])
        assert weyl_dim(spec, lam) == 4

    def test_vector_representations(self):
        assert weyl_dim(RootSystemSpec("C", 3), eps(1, 3) + eps(1, 3)) == 21
        assert weyl_dim(RootSystemSpec("D", 4), eps(1, 4)) == 8

    def test_rejects_non_dominant(self):
        spec = RootSystemSpec("C", 2)
        with pytest.raises(ValueError):
            weyl_dim(spec, weight(spec, [1, 2]))

    def test_rejects_non_integral(self):
        spec = RootSystemSpec("C", 2)
        with pytest.raises(ValueError):
            weyl_dim(spec, weight(spec, [Fraction(1, 2), 0]))

    def test_rejects_wrong_length(self):
        spec = RootSystemSpec("C", 2)
        with pytest.raises(ValueError):
            weyl_dim(spec, Weight((Fraction(1),)))


class TestBranching:
    def test_rank_two_fundamental_case(self):
        assert verify_branching(2, 1)
        spec = RootSystemSpec("C", 2)
        assert weyl_dim(spec, highest_root(spec)) == 10

    def test_rank_one_symmetric_square(self):
        assert verify_branching(1, 1)
        spec = RootSystemSpec("C", 1)
        assert weyl_dim(spec, highest_root(spec)) == 3

    def test_explicit_binomial(self):
        assert verify_branching(3, 2)
        a_spec = RootSystemSpec("A", 5)
        assert weyl_dim(a_spec, 4 * fundamental_weight_one(a_spec)) == comb(9, 4) == 126

    def test_branching_dimensions(self):
        assert branching_dimensions(2, 1) == (10, 10, 10)
        assert branching_dimensions(3, 2) == (126, 126, 126)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            branching_dimensions(1, 0)
        with pytest.raises(ValueError):
            verify_branching(0, 1)
        with pytest.raises(ValueError):
            verify_branching(1, 0)


class TestMinuscule:
    def test_rank_two(self):
        md = minuscule_gamma(RootSystemSpec("C", 2))
        assert {g.coords for g in md.gamma} == {
            (Fraction(2), Fraction(0)),
            (Fraction(1), Fraction(1)),
            (Fraction(0), Fraction(2)),
        }
        assert md.omega.coords == (Fraction(1, 2), Fraction(1, 2))

    def test_rank_one(self):
        md = minuscule_gamma(RootSystemSpec("C", 1))
        assert [g.coords for g in md.gamma] == [(Fraction(2),)]

    def test_gamma_size(self):
        for ell in range(1, 7):
            md = minuscule_gamma(RootSystemSpec("C", ell))
            assert len(md.gamma) == ell * (ell + 1) // 2
            assert all(md.omega.dot(g) == 1 for g in md.gamma)

    def test_degree_zero_and_negative_roots_excluded(self):
        md = minuscule_gamma(RootSystemSpec("C", 3))
        spec = RootSystemSpec("C", 3)
        ones = {g.coords for g in md.gamma}
        for alpha in positive_roots(spec):
            pairing = md.omega.dot(alpha)
            assert (pairing == 1) == (alpha.coords in ones)
            assert pairing in (0, 1)

    def test_unsupported_family(self):
        with pytest.raises(ValueError):
            minuscule_gamma(RootSystemSpec("A", 3))
