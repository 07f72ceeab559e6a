"""Basis kinds, graded series counted by a transfer matrix, and counting demos.

``fs`` bases are partitions over the upper triangle B1 of rank m, ``std``
bases over the full scheme B of rank l; the identification of schemes is
the identity on internal (a, b) encodings, so ``std(l, k)`` is counted as
``fs(2l, k)``.  Of the package this module imports only `_frozen` up
front, so a command that only counts compiles no other module.

The path inequalities are decided by the cut lemma alone; no path is ever
built.  A partition's color multiplicities at one degree form its slice e,
and inside(i, j) = e(i, j) + max(inside(i+1, j), inside(i, j-1)), zero
when i > j, is the largest chain sum of e within (i, j) (see `_cells`).  A
path's upper block lies within its outermost pair (i, c) and its lower
block starts at c or later, so the largest path sum over a slice t at -d-1
and a slice s at -d is the largest A_t(c) + B_s(c) over the cuts c = 1..m,
where A(c) = inside(1, c) and B(c) = inside(c, m).  A partition is
admissible exactly when that sum is at most the level for every two
adjacent degrees, the degree above -1 counting as empty.  Every slice,
inside and cut table of the package is indexed by color position, the
`Alphabet.colors` order that `_position` gives and partition keys use,
with one always-zero entry past the last: A(c) is position c - 1.

Graded series are counted without listing: a transfer matrix runs over
slices grouped by size and cut profiles (see `graded_series`).  The
Weyl-Kac character and the Rogers-Ramanujan counts check them.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from operator import add, index

from ._frozen import Frozen, setfield


class BasisKind(Frozen):
    """Which monomial basis: subspace (`fs`) or standard module (`std`), rank and level.

    A frozen slot class, equal and hashed by its fields.
    """

    __slots__ = ("kind", "rank", "level")
    kind: str
    rank: int
    level: int

    def __init__(self, kind: str, rank: int, level: int) -> None:
        rank, level = index(rank), index(level)
        if kind not in ("fs", "std"):
            raise ValueError(f"unknown basis kind {kind!r}")
        if rank < 1 or level < 1:
            raise ValueError("rank and level must be positive")
        setfield(self, "kind", kind)
        setfield(self, "rank", rank)
        setfield(self, "level", level)

    @property
    def alphabet(self):
        """The kind's `partitions.Alphabet`; reading it imports `partitions`."""
        from .partitions import full_scheme, upper_scheme

        return upper_scheme(self.rank) if self.kind == "fs" else full_scheme(self.rank)


def _triangle_rank(basis: BasisKind) -> int:
    """Rank of the upper triangle whose encoding `basis` uses: std(l) is fs(2l)."""
    return basis.rank if basis.kind == "fs" else 2 * basis.rank


def _position(n: int, a: int, b: int) -> int:
    """The position of color (a, b) in `Alphabet.colors` order, index bound n.

    Columns 1..a-1 come first, n - c + 1 colors in column c.
    """
    return (a - 1) * n - (a - 1) * (a - 2) // 2 + b - a


@lru_cache(maxsize=None)
def _cells(m: int) -> tuple[tuple[int, int, int], ...]:
    """The inside table of fs(m) as steps ``(p, x, y)`` on color positions.

    inside(p) = e(p) + max(inside(x), inside(y)), with x the position of
    (i+1, j) and y that of (i, j-1) for p the position of (i, j).  Steps go
    by increasing j - i, then i, so each reads only earlier steps; the m
    diagonal steps come first and read twice the always-zero entry
    m(m+1)/2, one past the last position.
    """
    zero = m * (m + 1) // 2
    return tuple(
        (_position(m, i, i + d), _position(m, i + 1, i + d) if d else zero,
         _position(m, i, i + d - 1) if d else zero)
        for d in range(m)
        for i in range(1, m - d + 1)
    )


@lru_cache(maxsize=None)
def _cuts(m: int) -> tuple[int, ...]:
    """The positions of B(c) = inside(c, m) for c = 1..m.

    A(c) = inside(1, c) is position c - 1, as column 1 comes first.
    """
    return tuple(_position(m, c, m) for c in range(1, m + 1))


class QSeries(Frozen):
    """A truncated power series with exact integer coefficients, graded by degree.

    A frozen slot class, equal and hashed by its coefficients.
    """

    __slots__ = ("coeffs",)
    coeffs: tuple[int, ...]

    def __init__(self, coeffs: tuple[int, ...]) -> None:
        if not coeffs:
            raise ValueError("a series needs at least the constant coefficient")
        setfield(self, "coeffs", tuple(map(index, coeffs)))

    @property
    def truncation(self) -> int:
        return len(self.coeffs) - 1

    def __mul__(self, other: "QSeries") -> "QSeries":
        if not isinstance(other, QSeries):
            return NotImplemented
        n = min(self.truncation, other.truncation)
        out = [0] * (n + 1)
        for i, a in enumerate(self.coeffs[: n + 1]):
            if not a:
                continue
            for j, b in enumerate(other.coeffs[: n + 1 - i]):
                out[i + j] += a * b
        return QSeries(tuple(out))


@lru_cache(maxsize=8)
def _cut_profiles(
    m: int, k: int, max_degree: int
) -> dict[tuple[int, tuple[int, ...]], tuple[tuple[tuple[int, ...], int], ...]]:
    """Slices of the fs(m, k) conditions, ``{(size, B): ((A, number of slices), ...)}``.

    A partition is admissible exactly when every slice keeps inside(1, m),
    its largest chain sum, at most k and every two slices t at -v-1 and s
    at -v keep A_t(c) + B_s(c) <= k at each cut c.  The slices of at most
    max_degree factors that keep the first are listed; keys ascend by size.
    """
    steps = _cells(m)
    n = len(steps)
    cuts = _cuts(m)
    inside = [0] * (n + 1)  # by color position; entry n stays zero
    size = [0] * (n + 1)  # size[q]: the factors in the colors of steps before step q
    classes: dict[tuple[int, tuple[int, ...]], dict[tuple[int, ...], int]] = {}
    # depth first without recursion: the colors of the steps after q take
    # their least values, the slice is filed and the last step q whose color
    # may grow does; as inside(1, m) is the largest inside(i, j), a color may
    # grow while its inside is below k
    q = -1
    while True:
        for r in range(q + 1, n):
            p, x, y = steps[r]
            inside[p] = inside[x] if inside[x] > inside[y] else inside[y]
            size[r + 1] = size[r]
        counts = classes.setdefault((size[n], tuple([inside[p] for p in cuts])), {})
        a = tuple(inside[:m])
        counts[a] = counts.get(a, 0) + 1
        q = n - 1
        while q >= 0 and (inside[steps[q][0]] == k or size[q + 1] == max_degree):
            q -= 1
        if q < 0:
            break
        inside[steps[q][0]] += 1
        size[q + 1] += 1
    return {key: tuple(counts.items()) for key, counts in sorted(classes.items())}


def graded_series(basis: BasisKind, max_degree: int) -> QSeries:
    """Coefficient m counts the admissible partitions of degree -m.

    Counted, not listed: a transfer matrix over slices (one degree's color
    multiplicities), grouped by size and cut profiles (see
    `_cut_profiles`), runs from degree -max_degree up to -1, starting from
    the empty slice one degree below.  ``std(l, k)`` is counted as
    ``fs(2l, k)`` (see the module docstring).
    """
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    m = _triangle_rank(basis)
    k = basis.level
    classes = _cut_profiles(m, k, max_degree)
    # A polynomial travels packed in one integer, coefficient i in bits
    # [i*width, (i+1)*width).  Every coefficient with i <= max_degree counts
    # distinct partitions of degree -i over m(m+1)/2 colors, so it stays
    # below the bound that fixes width; carries out of the slots past
    # max_degree only move up, into bits that `keep` cuts off.
    width = _euler_power_counts(m * (m + 1) // 2, max_degree)[max_degree].bit_length()
    keep = (1 << width * (max_degree + 1)) - 1
    a_profiles = {a for counts in classes.values() for a, _ in counts}
    fits = {
        b: [a for a in a_profiles if all(x + y <= k for x, y in zip(a, b))]
        for _, b in classes
    }
    # tails[a]: packed series of the admissible tails from the slices with
    # A-profile a downwards, summed over those slices.  Only profiles with a
    # slice in reach are kept; the zero one, the empty slice's, always is and
    # fits below every slice.  reduce, not sum, and no product by a count of
    # one: either would copy a long integer for nothing.
    tails = {(0,) * m: 1}
    for v in range(max_degree, 0, -1):
        terms: dict[tuple[int, ...], list[int]] = {}
        for (size, b), counts in classes.items():
            if v * size > max_degree:
                break  # sizes ascend
            below = reduce(add, [tails[a] for a in fits[b] if a in tails])
            ways = (below << v * size * width) & keep
            for a, count in counts:
                terms.setdefault(a, []).append(ways if count == 1 else count * ways)
        tails = {a: reduce(add, t) for a, t in terms.items()}
    total = sum(tails.values())
    slot = (1 << width) - 1
    return QSeries(tuple(total >> i * width & slot for i in range(max_degree + 1)))


def _part_counts(parts: list[int], max_degree: int) -> list[int]:
    """Coefficients of prod 1/(1-q^part) over `parts`, repeats counted: partitions into them."""
    coeffs = [1] + [0] * max_degree
    for part in parts:
        for m in range(part, max_degree + 1):
            coeffs[m] += coeffs[m - part]
    return coeffs


def _euler_power_counts(power: int, max_degree: int) -> list[int]:
    """Coefficients of prod 1/(1-q^n)^power: partitions over `power` colors."""
    return _part_counts(list(range(1, max_degree + 1)) * power, max_degree)


def character_oracle(ell: int, k: int, max_degree: int) -> QSeries:
    """Homogeneous Weyl-Kac character of L(k Lambda_0) for C_ell^(1), truncated.

    Computed independently of any enumeration or counting engine.  With
    K = k+ell+1 and rho = (ell, ..., 1),

        ch = phi(q)^(-ell(2ell+1)) * sum over gamma in 2Z^ell of
             prod_alpha (rho+K gamma, alpha)/(rho, alpha) * q^(K|gamma|^2/4 + (rho, gamma)/2)

    over the positive roots alpha of C_ell, with plain coordinate dot
    products (Kac, Infinite-dimensional Lie algebras, ch. 10 and 12).
    """
    if ell < 1 or k < 1:
        raise ValueError("ell and k must be positive")
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    from fractions import Fraction
    from itertools import product

    from .rootdata import RootSystemSpec, weyl_product

    spec = RootSystemSpec("C", ell)
    rho = tuple(range(ell, 0, -1))
    big_k = k + ell + 1
    # gamma = 2n contributes q^(sum_i n_i (K n_i + rho_i)); each summand is
    # nonnegative because K > rho_i, and positive for n_i != 0, so |n_i| <= max_degree
    steps = [
        [n for n in range(-max_degree, max_degree + 1) if n * (big_k * n + r) <= max_degree]
        for r in rho
    ]
    coeffs = [0] * (max_degree + 1)
    for ns in product(*steps):
        exponent = sum(n * (big_k * n + r) for n, r in zip(ns, rho))
        if exponent > max_degree:
            continue
        shifted = tuple(r + 2 * big_k * n for n, r in zip(ns, rho))
        num, den = weyl_product(spec, shifted, rho)
        dim, remainder = divmod(num, den)
        if remainder:
            raise ArithmeticError(
                f"non-integral Weyl product {Fraction(num, den)} at gamma = 2*{ns}"
            )
        coeffs[exponent] += dim
    denominator = QSeries(tuple(_euler_power_counts(ell * (2 * ell + 1), max_degree)))
    return QSeries(tuple(coeffs)) * denominator


def rr_counts(max_m: int) -> list[tuple[int, int, int]]:
    """Partition counts behind the first Rogers-Ramanujan identity.

    For each m, the number of partitions of m with all parts congruent to
    1 or 4 mod 5, and the number whose part frequencies satisfy
    f_j + f_{j+1} <= 1 (equivalently, gaps of at least two).  The rank-1
    level-1 conditions are exactly these, so the second count is read off
    the graded series of ``fs(1, 1)``.
    """
    if max_m < 1:
        raise ValueError("max_m must be positive")
    cong = _part_counts([p for p in range(1, max_m + 1) if p % 5 in (1, 4)], max_m)
    gap = graded_series(BasisKind("fs", 1, 1), max_m).coeffs
    return [(m, cong[m], gap[m]) for m in range(1, max_m + 1)]
