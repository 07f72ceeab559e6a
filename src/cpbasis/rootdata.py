"""Classical root systems in epsilon coordinates, with exact Weyl dimensions.

Conventions follow Bourbaki.  Families B, C, D of rank l live in an
l-dimensional coordinate space; family A of rank r uses the standard
hyperplane realization inside r+1 coordinates, so weights of A_r carry
r+1 coordinates (the dimension formula only sees coordinate differences,
hence is independent of the representative modulo (1,...,1)).

The invariant form is the Euclidean coordinate form rescaled so that the
highest root theta satisfies <theta, theta> = 2; only family C needs a
rescaling (by 1/2).  All arithmetic is exact.  `Weight` keeps Fraction
coordinates for the API; the roots and 2*rho are built as integer
tuples, so Weyl products run on integers: a weight is scaled by the lcm
of its denominators (each coordinate's numerator times the lcm's
cofactor, no Fraction product), and the product formula's ratio ignores
both that scale and the form's, so numerators and denominators are
multiplied separately and divided once.  A positive root has at most two
nonzero coordinates, so the products and the positivity test pair a
weight with each root's sparse form, ``(i, c, j, e)`` for
c*eps_i + e*eps_j (0-based, e = 0 for a root on one coordinate).

`RootSystemSpec`, `Weight` and `MinusculeData` are frozen slot classes,
equal and hashed by their fields.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, lcm
from operator import index

from ._frozen import Frozen, setfield

FAMILIES = ("A", "B", "C", "D")

_MIN_RANK = {"A": 1, "B": 2, "C": 1, "D": 3}


class RootSystemSpec(Frozen):
    """A classical family letter plus a rank."""

    __slots__ = ("family", "rank")
    family: str
    rank: int

    def __init__(self, family: str, rank: int) -> None:
        rank = index(rank)
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        if rank < _MIN_RANK[family]:
            raise ValueError(
                f"rank {rank} too small for family {family} "
                f"(minimum {_MIN_RANK[family]})"
            )
        setfield(self, "family", family)
        setfield(self, "rank", rank)

    @property
    def ambient_dim(self) -> int:
        """Number of epsilon coordinates: rank+1 for family A, rank otherwise."""
        return self.rank + 1 if self.family == "A" else self.rank

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


def _exact(value) -> Fraction:
    """`value` as a Fraction; a float is refused, as its binary value is seldom the one meant."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError(f"weights are exact: use an integer, Fraction or string, not {value!r}")
    return Fraction(value)


class Weight(Frozen):
    """A vector in the epsilon-coordinate basis, with exact rational entries."""

    __slots__ = ("coords",)
    coords: tuple[Fraction, ...]

    def __init__(self, coords: tuple[Fraction, ...]) -> None:
        setfield(self, "coords", tuple(map(_exact, coords)))

    def __add__(self, other: "Weight") -> "Weight":
        if len(self.coords) != len(other.coords):
            raise ValueError("coordinate length mismatch")
        return Weight(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __rmul__(self, scalar) -> "Weight":
        scalar = _exact(scalar)
        return Weight(tuple(scalar * c for c in self.coords))

    def dot(self, other: "Weight") -> Fraction:
        """Plain coordinate dot product (the coweight pairing)."""
        if len(self.coords) != len(other.coords):
            raise ValueError("coordinate length mismatch")
        return sum((a * b for a, b in zip(self.coords, other.coords)), Fraction(0))

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.coords) + ")"


class MinusculeData(Frozen):
    """A minuscule coweight together with the set of roots it pairs to 1."""

    __slots__ = ("omega", "gamma")
    omega: Weight
    gamma: tuple[Weight, ...]

    def __init__(self, omega: Weight, gamma: tuple[Weight, ...]) -> None:
        setfield(self, "omega", omega)
        setfield(self, "gamma", gamma)


def eps(i: int, dim: int) -> Weight:
    """The i-th coordinate vector (1-based) in `dim` coordinates."""
    if not 1 <= i <= dim:
        raise ValueError("coordinate index out of range")
    return Weight(tuple(Fraction(1 if j == i else 0) for j in range(1, dim + 1)))


def zero_weight(spec: RootSystemSpec) -> Weight:
    return Weight((Fraction(0),) * spec.ambient_dim)


def weight(spec: RootSystemSpec, coords) -> Weight:
    """A Weight for `spec`, checking the coordinate count."""
    coords = tuple(map(_exact, coords))
    if len(coords) != spec.ambient_dim:
        raise ValueError(
            f"{spec} weights need {spec.ambient_dim} coordinates, got {len(coords)}"
        )
    return Weight(coords)


def positive_roots(spec: RootSystemSpec) -> list[Weight]:
    """The standard positive system of `spec`, in a fixed deterministic order."""
    return [Weight(alpha) for alpha in _integer_roots(spec)[0]]


def simple_roots(spec: RootSystemSpec) -> list[Weight]:
    n = spec.ambient_dim
    return [Weight(_dense(n, *alpha)) for alpha in _integer_roots(spec)[1]]


def highest_root(spec: RootSystemSpec) -> Weight:
    """The highest root theta."""
    n = spec.ambient_dim
    if spec.family == "A":
        return eps(1, n) + (-1) * eps(n, n)
    if spec.family == "C":
        return 2 * eps(1, n)
    return eps(1, n) + eps(2, n)  # B and D


def fundamental_weight_one(spec: RootSystemSpec) -> Weight:
    """A representative of the first fundamental weight omega_1."""
    return eps(1, spec.ambient_dim)


def inner(spec: RootSystemSpec, x: Weight, y: Weight) -> Fraction:
    """Invariant form normalized so that <theta, theta> = 2."""
    scale = Fraction(1, 2) if spec.family == "C" else Fraction(1)
    return scale * x.dot(y)


def half_sum_positive(spec: RootSystemSpec) -> Weight:
    """rho, computed as the half-sum of the positive roots."""
    return Weight(tuple(Fraction(c, 2) for c in _integer_roots(spec)[2]))


@lru_cache(maxsize=None)
def _integer_roots(spec: RootSystemSpec):
    """The positive roots in order, the simple roots, 2*rho and the positive roots again.

    A root's sparse form is ``(i, c, j, e)``, for c*eps_i + e*eps_j with
    0-based i and j (e = 0 for a root on one coordinate).  The positive
    roots come first as integer coordinate tuples and last in sparse form,
    in the same order; the simple roots are in sparse form, and 2*rho is an
    integer coordinate tuple.
    """
    n = spec.ambient_dim
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    last = n if spec.family == "A" else spec.rank
    simple = [(i, 1, i + 1, -1) for i in range(last - 1)]
    if spec.family == "A":
        positive = [(i, 1, j, -1) for i, j in pairs]
    else:
        positive = [r for i, j in pairs for r in ((i, 1, j, -1), (i, 1, j, 1))]
    if spec.family == "B":
        positive += [(i, 1, i, 0) for i in range(n)]
        simple.append((n - 1, 1, n - 1, 0))
    elif spec.family == "C":
        positive += [(i, 2, i, 0) for i in range(n)]
        simple.append((n - 1, 2, n - 1, 0))
    elif spec.family == "D":
        simple.append((n - 2, 1, n - 1, 1))

    roots = [_dense(n, *alpha) for alpha in positive]
    return tuple(roots), tuple(simple), tuple(map(sum, zip(*roots))), tuple(positive)


def _dense(n: int, i: int, c: int, j: int, e: int) -> tuple[int, ...]:
    """The root c*eps_i + e*eps_j as n integer coordinates."""
    coords = [0] * n
    coords[i] += c
    coords[j] += e
    return tuple(coords)


def _scaled(lam: Weight) -> tuple[int, tuple[int, ...]]:
    """The lcm L of the coordinate denominators of `lam`, and L*lam in integers."""
    scale = lcm(*(c.denominator for c in lam.coords))
    return scale, tuple(c.numerator * (scale // c.denominator) for c in lam.coords)


def is_dominant_integral(spec: RootSystemSpec, lam: Weight) -> bool:
    """Whether all simple coroot pairings are nonnegative integers."""
    if len(lam.coords) != spec.ambient_dim:
        raise ValueError(
            f"{spec} weights need {spec.ambient_dim} coordinates, got {len(lam.coords)}"
        )
    scale, scaled = _scaled(lam)
    for i, c, j, e in _integer_roots(spec)[1]:
        # the coroot pairing 2<lam, alpha>/<alpha, alpha> = 2<L*lam, alpha>/(L<alpha, alpha>);
        # <alpha, alpha> = c^2 + e^2, as e = 0 when i = j
        pairing, remainder = divmod(
            2 * (c * scaled[i] + e * scaled[j]), scale * (c * c + e * e)
        )
        if remainder or pairing < 0:
            return False
    return True


def weyl_product(
    spec: RootSystemSpec, top: tuple[int, ...], bottom: tuple[int, ...]
) -> tuple[int, int]:
    """Numerator and denominator of prod <top, alpha> / <bottom, alpha>.

    The product runs over the positive roots of `spec` in their sparse
    form, with plain integer coordinate pairings; the caller divides once.
    """
    num = den = 1
    for i, c, j, e in _integer_roots(spec)[3]:
        num *= c * top[i] + e * top[j]
        den *= c * bottom[i] + e * bottom[j]
    return num, den


def weyl_dim(spec: RootSystemSpec, lam: Weight) -> int:
    """Dimension of the irreducible module of highest weight `lam`.

    The product formula prod <lam+rho, alpha> / <rho, alpha> over positive
    roots, evaluated on D*(lam+rho) and D*rho with D = 2*lcm of the
    denominators of `lam`, which have integer coordinates.
    """
    if not is_dominant_integral(spec, lam):
        raise ValueError(f"{lam} is not dominant integral for {spec}")
    roots, _, two_rho, sparse = _integer_roots(spec)
    scale, scaled = _scaled(lam)
    bottom = tuple(scale * r for r in two_rho)
    top = tuple(2 * x + r for x, r in zip(scaled, bottom))
    for alpha, (i, c, j, e) in zip(roots, sparse):
        if c * top[i] + e * top[j] <= 0:
            rho = half_sum_positive(spec)
            shifted = lam + rho
            alpha = Weight(alpha)
            raise ArithmeticError(
                f"pairing {inner(spec, shifted, alpha)} of {shifted} with {alpha} is not positive"
            )
    num, den = weyl_product(spec, top, bottom)
    dim, remainder = divmod(num, den)
    if remainder or dim <= 0:
        raise ArithmeticError(
            f"Weyl product {Fraction(num, den)} is not a positive integer"
        )
    return dim


def branching_dimensions(ell: int, m: int) -> tuple[int, int, int]:
    """The three numbers of the dimension identity behind the rank-doubling coincidence.

    Returns the symplectic dimension at highest weight m*theta, the
    special-linear dimension at 2m*omega_1, and the multiset count
    binomial(2l+2m-1, 2m).
    """
    if ell < 1 or m < 1:
        raise ValueError("ell and m must be positive")
    c_spec = RootSystemSpec("C", ell)
    c_dim = weyl_dim(c_spec, m * highest_root(c_spec))
    a_spec = RootSystemSpec("A", 2 * ell - 1)
    a_dim = weyl_dim(a_spec, (2 * m) * fundamental_weight_one(a_spec))
    return c_dim, a_dim, comb(2 * ell + 2 * m - 1, 2 * m)


def verify_branching(ell: int, m: int) -> bool:
    """Dimension identity behind the rank-doubling coincidence.

    Restricting the degree-2m symmetric power of the 2l-dimensional vector
    representation to the symplectic subalgebra leaves an irreducible
    module, so the three numbers of :func:`branching_dimensions` agree.
    """
    c_dim, a_dim, binom = branching_dimensions(ell, m)
    return c_dim == a_dim == binom


def minuscule_gamma(spec: RootSystemSpec) -> MinusculeData:
    """The minuscule coweight of a symplectic system and its degree-one root set.

    omega is half the sum of coordinates; the roots pairing to 1 under the
    plain coordinate pairing are eps_i + eps_j over all 1 <= i <= j <= l,
    matching the upper-triangle color scheme B1.
    """
    if spec.family != "C":
        raise ValueError(f"minuscule data implemented for family C only, got {spec}")
    n = spec.rank
    omega = Weight((Fraction(1, 2),) * n)
    gamma = tuple(
        eps(i, n) + eps(j, n) for i in range(1, n + 1) for j in range(i, n + 1)
    )
    if any(omega.dot(g) != 1 for g in gamma):
        raise ArithmeticError(f"a root of {spec} in gamma does not pair to 1 with omega")
    return MinusculeData(omega=omega, gamma=gamma)
