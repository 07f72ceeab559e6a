"""Colored partitions over triangular basis schemes of the symplectic Lie algebras.

The rank-l symplectic Lie algebra has a basis X_ab indexed by pairs of
indices drawn from ``1, 2, ..., l, l', ..., 2', 1'`` (primes denote the
"barred" indices, rendered with an underscore prefix in text output).
Internally an index is an integer ``p`` in ``1..2l``, with ``p > l``
standing for the barred index ``(2l+1-p)'``.  The full triangular scheme
``B`` consists of all pairs ``a <= b <= 2l``; the upper triangle ``B1``
(the pairs with ``b <= l``) spans the abelian radical of the parabolic
attached to the last fundamental coweight.

Orders, from smallest building block to partitions:

* indices:      ``1 > 2 > ... > 2l``    (smaller integer = bigger index);
* colors:       ``X_ab > X_a'b'`` iff ``a > a'``, or ``a = a'`` and
                ``b > b'`` (column-major, so ``X_11`` is the maximum);
* factors:      ``x(n) < y(m)`` iff ``n < m``, or ``n = m`` and ``x < y``;
* partitions:   shorter is higher, then greater degree is higher, then
                plain degree sequences compare in reverse lexicographic
                order starting from the largest part (smaller largest part
                means smaller partition), and finally the color sequences
                compare the same way.

Each order ascends with the objects' ``sort_key``; the classes define no
``<``, so sort with ``key=...sort_key`` or compare with
`compare_colors`, `compare_factors` and `compare_partitions`.

`Alphabet`, `Color`, `Factor` and `ColoredPartition` are frozen slot
classes: immutable, without a ``__dict__``, equal and hashed by their
fields, and equal only to an instance of the same class.  Their integer
fields take only exact integers, through `operator.index`.

Each scheme keeps one table of its colors by pair (a, b), filled as
pairs are asked for and bounded by the scheme's colors, and beside it one
table of its factors by ``(a, b, degree)``, whose colors are the color
table's; it holds at most the scheme's colors times the distinct degrees
asked for.  `ColoredPartition.from_pairs`, partition transport (`ident`)
and `basis.enumerate_basis` take their factors from it rather than build
one per factor.  `from_pairs` and the constructor sort factors by the
integer triple ``(degree, -a, -b)``, the order ``Factor.sort_key`` gives.

A color has one cache slot, ``_position``, its position in
`Alphabet.colors` order, which its constructor sets.  A partition has
one, ``_code``, which every constructor empties and the point checks of
`basis` fill with its encoding (see `_frozen` for the cache-slot rule).

A colored partition is a finite multiset of factors kept in canonical
ascending factor order.  Partitions over a fixed scheme form a monoid
under multiset union, with the empty partition as unit.
"""

from __future__ import annotations

from collections import Counter
from operator import index

from ._frozen import Frozen, setfield


class Alphabet(Frozen):
    """A triangular color scheme: the full scheme ``B`` or the upper triangle ``B1``."""

    __slots__ = ("scheme", "rank")
    scheme: str  # "B" or "B1"
    rank: int

    def __init__(self, scheme: str, rank: int) -> None:
        rank = index(rank)
        if scheme not in ("B", "B1"):
            raise ValueError(f"unknown scheme {scheme!r}")
        if rank < 1:
            raise ValueError("rank must be a positive integer")
        setfield(self, "scheme", scheme)
        setfield(self, "rank", rank)

    @property
    def index_bound(self) -> int:
        """Largest internal index: ``2l`` for the full scheme, ``l`` for the upper triangle."""
        return 2 * self.rank if self.scheme == "B" else self.rank

    def display_index(self, p: int) -> str:
        """Render an internal index, with barred indices as ``_j``."""
        if not 1 <= p <= self.index_bound:
            raise ValueError(f"index {p} out of range for {self}")
        if p <= self.rank:
            return str(p)
        return "_" + str(2 * self.rank + 1 - p)

    def colors(self) -> tuple["Color", ...]:
        """All colors of the scheme in descending order (column-major, ``X_11`` first)."""
        n = self.index_bound
        table = _color_table(self)
        return tuple(table[a, b] for a in range(1, n + 1) for b in range(a, n + 1))

    def __str__(self) -> str:
        return f"{self.scheme}(C{self.rank})"


_SCHEMES: dict[tuple[str, int], _Colors] = {}


def _scheme(scheme: str, rank: int) -> _Colors:
    """The one color table of a scheme and rank; its ``alphabet`` is the shared `Alphabet`.

    The key is taken after `operator.index`, so ``2.0`` is refused as
    ``Alphabet`` refuses it rather than found as the rank-2 object it
    equals and hashes like.
    """
    key = (scheme, index(rank))
    table = _SCHEMES.get(key)
    if table is None:
        table = _SCHEMES[key] = _Colors(Alphabet(*key))
    return table


def full_scheme(rank: int) -> Alphabet:
    """The triangular scheme B of the rank-`rank` symplectic algebra (indices ``1..2*rank``).

    Every call with one rank returns the same object.
    """
    return _scheme("B", rank).alphabet


def upper_scheme(rank: int) -> Alphabet:
    """The upper triangle B1 of the rank-`rank` scheme (indices ``1..rank``).

    Every call with one rank returns the same object.
    """
    return _scheme("B1", rank).alphabet


class Color(Frozen):
    """A basis symbol X_ab; `a` is the column index, `b` the row index, ``a <= b``.

    ``_position`` is its position in `Alphabet.colors` order, set at
    construction from (a, b) and the index bound n; it is the same on B(l)
    and on B1(2l), whose bounds are both 2l.
    """

    __slots__ = ("alphabet", "a", "b", "_position")
    alphabet: Alphabet
    a: int
    b: int

    def __init__(self, alphabet: Alphabet, a: int, b: int) -> None:
        a, b = index(a), index(b)
        n = alphabet.index_bound
        if not 1 <= a <= b <= n:
            raise ValueError(f"({a},{b}) is not a valid color of {alphabet}")
        setfield(self, "alphabet", alphabet)
        setfield(self, "a", a)
        setfield(self, "b", b)
        # columns 1..a-1 come first, n - c + 1 colors in column c
        setfield(self, "_position", (a - 1) * n - (a - 1) * (a - 2) // 2 + b - a)

    @property
    def sort_key(self) -> tuple[int, int]:
        # Ascending key: bigger column index (smaller a) means bigger color.
        return (-self.a, -self.b)

    @property
    def pair(self) -> tuple[int, int]:
        return (self.a, self.b)

    def __str__(self) -> str:
        return self.alphabet.display_index(self.a) + self.alphabet.display_index(self.b)


class _Colors(dict):
    """The shared colors of one scheme by their pairs (a, b), and its `_Factors` as ``factors``.

    A pair is looked up as a plain dict key; a missing one is built by
    `Color`, which checks it, and kept only once it is built, so the table
    holds at most the scheme's colors.
    """

    __slots__ = ("alphabet", "factors")

    def __init__(self, alphabet: Alphabet) -> None:
        self.alphabet = alphabet
        self.factors = _Factors(self)

    def __missing__(self, pair: tuple[int, int]) -> Color:
        color = self[pair] = Color(self.alphabet, *pair)
        return color


class _Factors(dict):
    """The shared factors of one scheme by ``(a, b, degree)``, each degree an int.

    A missing key is built from the scheme's shared color, so a pair out
    of range is refused by `Color` and nothing is kept.
    """

    __slots__ = ("colors",)

    def __init__(self, colors: _Colors) -> None:
        self.colors = colors

    def __missing__(self, key: tuple[int, int, int]) -> Factor:
        a, b, degree = key
        factor = self[key] = Factor(self.colors[a, b], degree)
        return factor


def _color_table(alphabet: Alphabet) -> _Colors:
    """The one color table of a scheme; its ``factors`` are read by `from_pairs` and by transport.

    Keyed by scheme and rank, so an `Alphabet` equal to a shared one finds
    its table; the colors in it are over the shared `Alphabet`.
    """
    if not isinstance(alphabet, Alphabet):
        raise TypeError(f"expected an Alphabet, got {type(alphabet).__name__}")
    return _scheme(alphabet.scheme, alphabet.rank)


class Factor(Frozen):
    """A degree-graded basis symbol x(n), i.e. a color placed in degree n."""

    __slots__ = ("color", "degree")
    color: Color
    degree: int

    def __init__(self, color: Color, degree: int) -> None:
        setfield(self, "color", color)
        setfield(self, "degree", index(degree))

    @property
    def sort_key(self) -> tuple[int, tuple[int, int]]:
        return (self.degree, self.color.sort_key)

    def __str__(self) -> str:
        return f"{self.color}({self.degree})"


def _factor_order(f: Factor) -> tuple[int, int, int]:
    """`Factor.sort_key` flattened to the integer triple ``(degree, -a, -b)``."""
    color = f.color
    return (f.degree, -color.a, -color.b)


def _cmp(x, y) -> int:
    return (x > y) - (x < y)


def compare_colors(x: Color, y: Color) -> int:
    """Column-major lexicographic comparison; returns -1, 0 or +1."""
    if x.alphabet != y.alphabet:
        raise ValueError(f"color scheme mismatch: {x.alphabet} vs {y.alphabet}")
    return _cmp(x.sort_key, y.sort_key)


def compare_factors(f: Factor, g: Factor) -> int:
    """Degree-major, color-minor comparison; returns -1, 0 or +1."""
    if f.color.alphabet != g.color.alphabet:
        raise ValueError(
            f"color scheme mismatch: {f.color.alphabet} vs {g.color.alphabet}"
        )
    return _cmp(f.sort_key, g.sort_key)


class ColoredPartition(Frozen):
    """A multiset of factors over one scheme, stored in canonical ascending order.

    ``_code`` is a cache, not a field: None until a point check stores
    the partition's encoding there.
    """

    __slots__ = ("alphabet", "factors", "_code")
    alphabet: Alphabet
    factors: tuple[Factor, ...]

    def __init__(self, alphabet: Alphabet, factors: tuple[Factor, ...] = ()) -> None:
        factors = tuple(sorted(factors, key=_factor_order))
        for f in factors:
            # identity first: factors usually share their scheme object
            if f.color.alphabet is not alphabet and f.color.alphabet != alphabet:
                raise ValueError(f"factor {f} does not belong to scheme {alphabet}")
        _fill(self, alphabet, factors)

    @classmethod
    def from_pairs(cls, alphabet: Alphabet, *facs: tuple[tuple[int, int], int]):
        """Build a partition from ``((a, b), degree)`` entries.

        Each factor is the scheme's shared one (`_color_table`'s
        ``factors``).  The a, b and degree go through `operator.index`, so
        a float or a string is refused, and a pair out of range is refused
        by `Color`.
        """
        table = _color_table(alphabet).factors
        factors = [table[index(a), index(b), index(n)] for (a, b), n in facs]
        factors.sort(key=_factor_order)
        p = object.__new__(cls)
        _fill(p, alphabet, tuple(factors))
        return p

    @property
    def length(self) -> int:
        return len(self.factors)

    @property
    def degree(self) -> int:
        return sum(f.degree for f in self.factors)

    @property
    def sort_key(self):
        """Ascending key for the well order on partitions.

        Components: longer partitions are lower; smaller degree is lower;
        then the reversed degree tuple and reversed color-key tuple give the
        two reverse-lexicographic stages (comparison starts at the largest
        part, and a smaller entry there means a smaller partition).
        """
        degrees = tuple(f.degree for f in self.factors)
        colors = tuple(f.color.sort_key for f in self.factors)
        return (-len(self.factors), self.degree, degrees[::-1], colors[::-1])

    def multiply(self, other: "ColoredPartition") -> "ColoredPartition":
        if not isinstance(other, ColoredPartition):
            raise TypeError(f"cannot multiply a partition by {type(other).__name__}")
        if self.alphabet != other.alphabet:
            raise ValueError("cannot multiply partitions over different schemes")
        return ColoredPartition(self.alphabet, self.factors + other.factors)

    def __mul__(self, other: "ColoredPartition") -> "ColoredPartition":
        if not isinstance(other, ColoredPartition):
            return NotImplemented
        return self.multiply(other)

    def divides(self, other: "ColoredPartition") -> bool:
        return divides(self, other)

    def factor_counts(self) -> Counter:
        return Counter(self.factors)

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        parts = []
        for f, e in sorted(
            Counter(self.factors).items(), key=lambda fe: fe[0].sort_key
        ):
            parts.append(str(f) if e == 1 else f"{f}^{e}")
        return " ".join(parts)


def _fill(p: ColoredPartition, alphabet: Alphabet, factors: tuple[Factor, ...]) -> None:
    """Set the fields of `p`, and empty its cache; every constructor ends here."""
    setfield(p, "alphabet", alphabet)
    setfield(p, "factors", factors)
    setfield(p, "_code", None)


def _canonical(alphabet: Alphabet, factors: tuple[Factor, ...]) -> ColoredPartition:
    """The partition of `factors`, a tuple the caller gives in canonical order.

    The constructor without its sort or its scheme check, for factors
    taken from the factor table of `alphabet`'s scheme, which are over it
    by construction.  A caller that breaks the order breaks ``==``,
    ``hash`` and every comparison.
    """
    p = object.__new__(ColoredPartition)
    _fill(p, alphabet, factors)
    return p


def unit(alphabet: Alphabet) -> ColoredPartition:
    """The empty partition, the unit of the partition monoid."""
    return ColoredPartition(alphabet, ())


def compare_partitions(p: ColoredPartition, q: ColoredPartition) -> int:
    """The well order on colored partitions; returns -1, 0 or +1.

    Stages: length (shorter is higher), degree (greater is higher), plain
    degree sequences in reverse lexicographic order, color sequences in
    reverse lexicographic order.
    """
    if p.alphabet != q.alphabet:
        raise ValueError(f"scheme mismatch: {p.alphabet} vs {q.alphabet}")
    return _cmp(p.sort_key, q.sort_key)


def divides(rho: ColoredPartition, pi: ColoredPartition) -> bool:
    """Multiset containment of factors: rho divides pi in the partition monoid."""
    if rho.alphabet != pi.alphabet:
        raise ValueError(f"scheme mismatch: {rho.alphabet} vs {pi.alphabet}")
    if rho.length > pi.length:
        return False
    counts = Counter(pi.factors)
    counts.subtract(rho.factors)
    return all(c >= 0 for c in counts.values())


def multiply(p: ColoredPartition, q: ColoredPartition) -> ColoredPartition:
    """Multiset union of factors; degree and length are additive."""
    return p.multiply(q)
