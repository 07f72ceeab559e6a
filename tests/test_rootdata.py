"""Root-system data, exact Weyl dimensions and the branching identity."""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from cpbasis import rootdata
from cpbasis.rootdata import (
    RootSystemSpec,
    Weight,
    branching_dimensions,
    eps,
    fundamental_weight_one,
    half_sum_positive,
    highest_root,
    inner,
    is_dominant_integral,
    minuscule_gamma,
    positive_roots,
    simple_roots,
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


def eps_root_lists(spec: RootSystemSpec):
    """Positive roots, simple roots and rho built by `eps` arithmetic, one root at a time."""
    n = spec.ambient_dim
    positive = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            positive.append(eps(i, n) + (-1) * eps(j, n))
            if spec.family != "A":
                positive.append(eps(i, n) + eps(j, n))
    if spec.family == "B":
        positive.extend(eps(i, n) for i in range(1, n + 1))
    elif spec.family == "C":
        positive.extend(2 * eps(i, n) for i in range(1, n + 1))
    last = n if spec.family == "A" else spec.rank
    simple = [eps(i, n) + (-1) * eps(i + 1, n) for i in range(1, last)]
    if spec.family == "B":
        simple.append(eps(spec.rank, n))
    elif spec.family == "C":
        simple.append(2 * eps(spec.rank, n))
    elif spec.family == "D":
        simple.append(eps(spec.rank - 1, n) + eps(spec.rank, n))
    acc = zero_weight(spec)
    for alpha in positive:
        acc = acc + alpha
    return positive, simple, Fraction(1, 2) * acc


@pytest.mark.parametrize("family", ["A", "B", "C", "D"])
def test_integer_root_data_matches_eps_route(family):
    for rank in range(1, 10):
        try:
            spec = RootSystemSpec(family, rank)
        except ValueError:
            continue
        positive, simple, rho = eps_root_lists(spec)
        assert positive_roots(spec) == positive
        assert simple_roots(spec) == simple
        assert half_sum_positive(spec) == rho
        # the Weight wrappers keep exact Fraction coordinates
        assert all(type(c) is Fraction for c in half_sum_positive(spec).coords)


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


class TestExactWeights:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: Weight((0.1, 0)),
            lambda: Weight((Fraction(1), 0.5)),
            lambda: weight(RootSystemSpec("C", 2), [0.1, 0]),
            lambda: 0.1 * eps(1, 2),
            lambda: 2.0 * eps(1, 2),
        ],
    )
    def test_floats_refused(self, build):
        # a float's binary value is seldom the one meant: 0.1 is 3602879701896397/2^55
        with pytest.raises(TypeError):
            build()

    def test_exact_values_accepted(self):
        spec = RootSystemSpec("C", 2)
        assert Weight((1, "1/2")).coords == (Fraction(1), Fraction(1, 2))
        assert weight(spec, ["1/2", Fraction(1, 3)]).coords == (Fraction(1, 2), Fraction(1, 3))
        assert (Fraction(1, 2) * eps(1, 2)).coords == (Fraction(1, 2), Fraction(0))
        assert (3 * eps(2, 2)).coords == (Fraction(0), Fraction(3))
        assert ("1/2" * eps(1, 2)) == weight(spec, ["1/2", 0])


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


def coroot_pairing(spec, lam, alpha) -> Fraction:
    """2<lam, alpha> / <alpha, alpha>; the normalization scale cancels."""
    return 2 * lam.dot(alpha) / alpha.dot(alpha)


def reference_is_dominant_integral(spec, lam) -> bool:
    """Simple coroot pairings in Fraction arithmetic."""
    if len(lam.coords) != spec.ambient_dim:
        raise ValueError(
            f"{spec} weights need {spec.ambient_dim} coordinates, got {len(lam.coords)}"
        )
    for alpha in simple_roots(spec):
        pairing = coroot_pairing(spec, lam, alpha)
        if pairing.denominator != 1 or pairing < 0:
            return False
    return True


def reference_weyl_dim(spec, lam, dominant=reference_is_dominant_integral) -> int:
    """The Weyl product as a running Fraction, one root at a time."""
    if not dominant(spec, lam):
        raise ValueError(f"{lam} is not dominant integral for {spec}")
    rho = half_sum_positive(spec)
    shifted = lam + rho
    dim = Fraction(1)
    for alpha in positive_roots(spec):
        num = inner(spec, shifted, alpha)
        den = inner(spec, rho, alpha)
        if num <= 0:
            raise ArithmeticError(f"pairing {num} of {shifted} with {alpha} is not positive")
        dim *= num / den
    if dim.denominator != 1 or dim <= 0:
        raise ArithmeticError(f"Weyl product {dim} is not a positive integer")
    return int(dim)


def outcome(fn, *args):
    """A return value, or the type and message of the exception raised."""
    try:
        return fn(*args)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


SPECS = (
    [RootSystemSpec("A", r) for r in range(1, 6)]
    + [RootSystemSpec("B", r) for r in range(2, 5)]
    + [RootSystemSpec("C", r) for r in range(1, 5)]
    + [RootSystemSpec("D", r) for r in range(3, 6)]
)


def fundamental_weights(spec: RootSystemSpec) -> list[tuple[Fraction, ...]]:
    """omega_1..omega_r in epsilon coordinates, spin weights included."""
    n, r = spec.ambient_dim, spec.rank
    half = Fraction(1, 2)

    def ones(i):
        return tuple(Fraction(int(j < i)) for j in range(n))

    if spec.family in "AC":
        return [ones(i) for i in range(1, r + 1)]
    if spec.family == "B":
        return [ones(i) for i in range(1, r)] + [(half,) * n]
    return [ones(i) for i in range(1, r - 1)] + [
        (half,) * (n - 1) + (-half,),
        (half,) * n,
    ]


def from_labels(spec: RootSystemSpec, labels) -> list[Fraction]:
    """sum a_i omega_i in epsilon coordinates."""
    coords = [Fraction(0)] * spec.ambient_dim
    for a, omega in zip(labels, fundamental_weights(spec)):
        coords = [c + a * w for c, w in zip(coords, omega)]
    return coords


@st.composite
def dominant_weights(draw):
    spec = draw(st.sampled_from(SPECS))
    labels = draw(st.lists(st.integers(0, 3), min_size=spec.rank, max_size=spec.rank))
    coords = from_labels(spec, labels)
    if spec.family == "A":
        # any representative modulo (1, ..., 1), fractional ones included
        shift = draw(st.fractions(min_value=-2, max_value=2, max_denominator=6))
        coords = [c + shift for c in coords]
    return spec, Weight(tuple(coords))


@settings(max_examples=200, deadline=None)
@given(case=dominant_weights())
def test_integer_weyl_product_matches_fraction_route(case):
    spec, lam = case
    assert is_dominant_integral(spec, lam)
    assert reference_is_dominant_integral(spec, lam)
    assert weyl_dim(spec, lam) == reference_weyl_dim(spec, lam)


@pytest.mark.parametrize(
    "family, rank, coords, dim",
    [
        ("B", 2, "1/2,1/2", 4),
        ("D", 4, "1/2,1/2,1/2,-1/2", 8),
        ("D", 4, "1/2,1/2,1/2,1/2", 8),
        ("B", 3, "1/2,1/2,1/2", 8),
        ("B", 4, "3/2,1/2,1/2,1/2", 128),
        ("A", 2, "7/3,1/3,-2/3", 15),
        ("C", 4, "1,1,1,1", 42),
    ],
)
def test_spin_and_shifted_weights(family, rank, coords, dim):
    spec = RootSystemSpec(family, rank)
    lam = weight(spec, [Fraction(c) for c in coords.split(",")])
    assert weyl_dim(spec, lam) == reference_weyl_dim(spec, lam) == dim


coordinates = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@settings(max_examples=200, deadline=None)
@given(spec=st.sampled_from(SPECS), data=st.data())
def test_arbitrary_weights_fail_like_the_fraction_route(spec, data):
    if data.draw(st.booleans()):
        # nonnegative but possibly fractional labels: dominant, not always integral
        labels = data.draw(
            st.lists(
                st.fractions(min_value=0, max_value=2, max_denominator=4),
                min_size=spec.rank,
                max_size=spec.rank,
            )
        )
        lam = Weight(tuple(from_labels(spec, labels)))
    else:
        size = data.draw(st.integers(1, spec.ambient_dim + 1))
        lam = Weight(tuple(data.draw(st.lists(coordinates, min_size=size, max_size=size))))
    assert outcome(is_dominant_integral, spec, lam) == outcome(
        reference_is_dominant_integral, spec, lam
    )
    assert outcome(weyl_dim, spec, lam) == outcome(reference_weyl_dim, spec, lam)


@settings(max_examples=100, deadline=None)
@given(spec=st.sampled_from(SPECS), data=st.data())
def test_checks_behind_the_dominance_test(spec, data):
    # with dominance waved through, the positivity and remainder checks are
    # all that stand between a bad weight and a wrong dimension
    n = spec.ambient_dim
    lam = Weight(tuple(data.draw(st.lists(coordinates, min_size=n, max_size=n))))
    with mock.patch.object(rootdata, "is_dominant_integral", lambda spec, lam: True):
        got = outcome(weyl_dim, spec, lam)
    assert got == outcome(reference_weyl_dim, spec, lam, lambda spec, lam: True)


@pytest.mark.parametrize(
    "coords, error, message",
    [
        ([1, 2], ArithmeticError, "pairing 0 of (3, 3) with (1, -1) is not positive"),
        (
            [Fraction(1, 2), 0],
            ArithmeticError,
            "Weyl product 35/16 is not a positive integer",
        ),
    ],
)
def test_unreachable_checks_keep_their_messages(coords, error, message):
    spec = RootSystemSpec("C", 2)
    lam = weight(spec, coords)
    with mock.patch.object(rootdata, "is_dominant_integral", lambda spec, lam: True):
        with pytest.raises(error) as exc:
            weyl_dim(spec, lam)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "family, rank, coords, message",
    [
        ("C", 2, [1, 2], "(1, 2) is not dominant integral for C2"),
        ("C", 2, [Fraction(1, 2), 0], "(1/2, 0) is not dominant integral for C2"),
        ("B", 2, [Fraction(1, 2), Fraction(-1, 2)], "(1/2, -1/2) is not dominant integral for B2"),
        ("C", 2, [1], "C2 weights need 2 coordinates, got 1"),
        ("A", 3, [1, 0, 0], "A3 weights need 4 coordinates, got 3"),
    ],
)
def test_rejections_keep_type_and_message(family, rank, coords, message):
    spec = RootSystemSpec(family, rank)
    lam = Weight(tuple(Fraction(c) for c in coords))
    with pytest.raises(ValueError) as exc:
        weyl_dim(spec, lam)
    assert str(exc.value) == message
    assert outcome(reference_weyl_dim, spec, lam) == (ValueError, message)


WIDE_SPECS = (
    [RootSystemSpec("A", r) for r in range(1, 12)]
    + [RootSystemSpec("B", r) for r in range(2, 7)]
    + [RootSystemSpec("C", r) for r in range(1, 7)]
    + [RootSystemSpec("D", r) for r in range(3, 7)]
)


def dense_weyl_product(spec, top, bottom) -> tuple[int, int]:
    """The Weyl product over the dense integer roots, one full pairing per root."""
    num = den = 1
    for alpha in rootdata._integer_roots(spec)[0]:
        num *= rootdata._pairing(top, alpha)
        den *= rootdata._pairing(bottom, alpha)
    return num, den


def shifted_pair(spec, lam):
    """D*(lam+rho) and D*rho, as `weyl_dim` hands them to `weyl_product`."""
    scale = lcm(*(c.denominator for c in lam.coords))
    bottom = tuple(scale * r for r in rootdata._integer_roots(spec)[2])
    top = tuple(int(2 * scale * x) + r for x, r in zip(lam.coords, bottom))
    return top, bottom


@pytest.mark.parametrize("spec", WIDE_SPECS, ids=str)
def test_sparse_roots_are_the_dense_roots(spec):
    positive, _, _, sparse = rootdata._integer_roots(spec)
    n = spec.ambient_dim
    rebuilt = []
    for i, c, j, e in sparse:
        coords = [0] * n
        coords[i] += c
        coords[j] += e
        rebuilt.append(tuple(coords))
    assert rebuilt == list(positive)
    assert all(c != 0 and (e == 0) == (i == j) for i, c, j, e in sparse)


@pytest.mark.parametrize("spec", WIDE_SPECS, ids=str)
def test_sparse_weyl_product_matches_dense_on_fundamental_weights(spec):
    # each fundamental weight (the B/D spin weights are half-integers), zero and their sum
    weights = [Weight(w) for w in fundamental_weights(spec)]
    weights += [zero_weight(spec), Weight(tuple(from_labels(spec, [1] * spec.rank)))]
    for lam in weights:
        top, bottom = shifted_pair(spec, lam)
        assert rootdata.weyl_product(spec, top, bottom) == dense_weyl_product(spec, top, bottom)
        assert weyl_dim(spec, lam) == reference_weyl_dim(spec, lam)


@settings(max_examples=150, deadline=None)
@given(spec=st.sampled_from(WIDE_SPECS), data=st.data())
def test_sparse_weyl_product_matches_dense(spec, data):
    labels = data.draw(st.lists(st.integers(0, 3), min_size=spec.rank, max_size=spec.rank))
    lam = Weight(tuple(from_labels(spec, labels)))
    top, bottom = shifted_pair(spec, lam)
    num, den = rootdata.weyl_product(spec, top, bottom)
    assert (num, den) == dense_weyl_product(spec, top, bottom)
    assert num % den == 0 and weyl_dim(spec, lam) == num // den


@pytest.mark.parametrize("spec", WIDE_SPECS, ids=str)
def test_wide_ranks_keep_their_exceptions_and_messages(spec):
    # not dominant: -omega_1, and omega_1 halved
    omega = fundamental_weights(spec)[0]
    for lam in (Weight(tuple(-c for c in omega)), Weight(tuple(c / 2 for c in omega))):
        got = outcome(weyl_dim, spec, lam)
        assert got[0] is ValueError
        assert got == outcome(reference_weyl_dim, spec, lam)
    # with dominance waved through: -rho pairs to 0 with every root, and
    # -rho/2 leaves a Weyl product that is not an integer
    rho = half_sum_positive(spec).coords
    with mock.patch.object(rootdata, "is_dominant_integral", lambda spec, lam: True):
        for lam in (Weight(tuple(-c for c in rho)), Weight(tuple(-c / 2 for c in rho))):
            got = outcome(weyl_dim, spec, lam)
            assert got[0] is ArithmeticError
            assert got == outcome(reference_weyl_dim, spec, lam, lambda spec, lam: True)
