"""Brute-force computation of leading terms as minima of relation supports.

A level-k relation attached to an index multiset of size 2(k+1) is a sum
over all pairings of the multiset into k+1 unordered index pairs; its
degree-n coefficient spreads each pairing over all degree compositions of
n.  The leading term is the minimum of that support under the well order
on partitions.  Nothing here knows about diagonal paths: the module
exists to validate the closed-form generators (and the order convention
itself) against exhaustive enumeration.

The minimum is found in two exact stages.  Every member of one support
has the same length and degree, so the order compares the degree
sequences first, and a member's degree sequence is its composition
sorted, whatever the pairing.  Stage 1 builds the compositions whose
sorted sequence is least, the most even ones, without listing the
others; stage 2 takes the minimum over every pairing spread over those
compositions only.  No member outside them can be the minimum.

Inside, a support member is a plain integer key: its factors in
canonical ascending order, each the triple ``(degree, -a, -b)`` that
flattens ``Factor.sort_key``.  `ColoredPartition` objects are built only
at the boundary: one per minimum `brute_leading_term` returns, one per
member of a requested support, and one per term an audit names in a
mismatch.

`audit_windows` compares keys only.  Its brute side is `_brute_key`,
with each multiset's pairings found once per call and the least
compositions once per window and split; its closed side is
`_closed_keys`, the integer rows of `leading.rows` moved to each window,
the same terms `fs_leading_terms` builds as partitions.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement

from ._frozen import Frozen, setfield
from .leading import rows as leading_rows
from .partitions import ColoredPartition, upper_scheme


def _pairings(elements: tuple[int, ...], _least=None):
    """Each way to split a sorted multiset into unordered pairs, exactly once.

    A pairing comes as its pairs in ascending order: the first element
    takes each distinct partner once, and when the next first element
    equals it, that element's partner is at least this one (`_least`).
    """
    if not elements:
        yield ()
        return
    first, rest = elements[0], elements[1:]
    for idx, partner in enumerate(rest):
        if idx and partner == rest[idx - 1]:
            continue
        if _least is not None and partner < _least:
            continue
        remainder = rest[:idx] + rest[idx + 1 :]
        least = partner if remainder and remainder[0] == first else None
        for tail in _pairings(remainder, least):
            yield ((first, partner),) + tail


def _negative_compositions(n: int, parts: int) -> tuple[tuple[int, ...], ...]:
    """Ordered tuples of `parts` integers <= -1 summing to n."""
    if parts == 1:
        return ((n,),) if n <= -1 else ()
    out = []
    # the first part can go as low as n+(parts-1), leaving -1 for the rest
    for first in range(-1, n + parts - 2, -1):
        for rest in _negative_compositions(n - first, parts - 1):
            out.append((first,) + rest)
    return tuple(out)


class RelationSupport(Frozen):
    """The support of one coefficient of the relation attached to a multiset.

    A frozen slot class; its ``repr`` leaves out the partitions.
    """

    __slots__ = ("multiset", "degree", "level", "rank", "partitions")
    multiset: tuple[int, ...]
    degree: int
    level: int
    rank: int
    partitions: frozenset[ColoredPartition]

    def __init__(
        self,
        multiset: tuple[int, ...],
        degree: int,
        level: int,
        rank: int,
        partitions: frozenset[ColoredPartition],
    ) -> None:
        setfield(self, "multiset", multiset)
        setfield(self, "degree", degree)
        setfield(self, "level", level)
        setfield(self, "rank", rank)
        setfield(self, "partitions", partitions)

    def __repr__(self) -> str:
        return (
            f"{self.__class__.__qualname__}(multiset={self.multiset!r}, "
            f"degree={self.degree!r}, level={self.level!r}, rank={self.rank!r})"
        )


def _check_arguments(multiset: tuple[int, ...], n: int, k: int, m: int) -> None:
    """Refuse a multiset or degree that names no level-k relation coefficient of rank m."""
    if m < 1 or k < 1:
        raise ValueError("rank and level must be positive")
    if len(multiset) != m:
        raise ValueError(f"expected {m} multiplicities, got {len(multiset)}")
    if any(c < 0 for c in multiset):
        raise ValueError("multiplicities must be nonnegative")
    if sum(multiset) != 2 * (k + 1):
        raise ValueError(f"multiset size must be 2(k+1) = {2 * (k + 1)}")
    if n > -(k + 1):
        raise ValueError(
            f"degree {n} leaves no composition into {k + 1} parts <= -1"
        )


def _column_pairings(multiset: tuple[int, ...]) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Each pairing of the multiset as the ``(columns, rows)`` its keys carry.

    The columns are the pairs' negated first entries, the rows their
    negated second entries, in the pairing's order.
    """
    elements: list[int] = []
    for idx, count in enumerate(multiset, start=1):
        elements.extend([idx] * count)
    return [
        (tuple(-a for a, _ in pairing), tuple(-b for _, b in pairing))
        for pairing in _pairings(tuple(elements))
    ]


def _spread_keys(pairings, compositions):
    """Keys of every pairing, as `_column_pairings` gives it, spread over every given composition.

    A partition reached by several pairings or compositions is yielded
    once for each.
    """
    for columns, rows in pairings:
        for comp in compositions:
            yield tuple(sorted(zip(comp, columns, rows)))


def _support_keys(multiset: tuple[int, ...], n: int, k: int, m: int):
    """Keys of the partitions in the degree-n coefficient of the multiset's relation.

    Every pairing of the multiset into k+1 unordered pairs, spread over
    every composition of n into k+1 degrees <= -1; a partition reached by
    several pairings or compositions is yielded once for each.
    """
    return _spread_keys(_column_pairings(multiset), _negative_compositions(n, k + 1))


def _least_compositions(n: int, parts: int) -> tuple[tuple[int, ...], ...]:
    """The compositions of n into `parts` degrees <= -1 whose degree sequence is least.

    A key's degree sequence, read from its largest part down, is its
    composition sorted in descending order, whatever the pairing; among
    sequences of one sum and length the least is the most even, so these
    are the arrangements of r parts -q-1 and parts-r parts -q, where
    q, r = divmod(-n, parts).
    """
    q, r = divmod(-n, parts)
    return tuple(
        tuple(-q - 1 if i in low else -q for i in range(parts))
        for low in map(set, combinations(range(parts), r))
    )


def _order_key(key: tuple[tuple[int, int, int], ...]):
    """`ColoredPartition.sort_key` on one support, where length and degree are fixed.

    The reversed degree sequence is compared first, then the reversed
    color keys: two reverse-lexicographic stages, never interleaved.
    """
    top_down = key[::-1]
    return [f[0] for f in top_down], [f[1:] for f in top_down]


def _brute_key(pairings, least) -> tuple[tuple[int, int, int], ...]:
    """The key of the least member of a degree-n support, given the multiset's `_column_pairings`.

    `least` is `_least_compositions(n, k+1)`.  Found in two stages, and
    still over the whole support.  `_order_key` compares the degree
    sequences before any color, and a key's degree sequence is its sorted
    composition whatever the pairing; so the minimum spreads some pairing
    over one of `least`, and the colors decide among every pairing spread
    over those alone.
    """
    return min(_spread_keys(pairings, least), key=_order_key)


def _partition(alphabet, key) -> ColoredPartition:
    return ColoredPartition.from_pairs(alphabet, *(((-a, -b), d) for d, a, b in key))


def relation_support(
    multiset: tuple[int, ...], n: int, k: int, m: int
) -> RelationSupport:
    """All partitions in the degree-n coefficient of the multiset's relation.

    Every pairing of the multiset into k+1 unordered pairs, spread over
    every composition of n into k+1 degrees <= -1.
    """
    multiset = tuple(multiset)
    _check_arguments(multiset, n, k, m)
    keys = set(_support_keys(multiset, n, k, m))
    alphabet = upper_scheme(m)
    return RelationSupport(
        multiset=multiset,
        degree=n,
        level=k,
        rank=m,
        partitions=frozenset(_partition(alphabet, key) for key in keys),
    )


def brute_leading_term(
    multiset: tuple[int, ...], n: int, k: int, m: int
) -> ColoredPartition:
    """Minimum of the relation support under the well order on partitions (see `_brute_key`)."""
    multiset = tuple(multiset)
    _check_arguments(multiset, n, k, m)
    least = _least_compositions(n, k + 1)
    return _partition(upper_scheme(m), _brute_key(_column_pairings(multiset), least))


class AuditReport(Frozen):
    """Outcome of comparing brute-force minima against the closed-form sets.

    A frozen slot class, equal and hashed by its fields.
    """

    __slots__ = ("rank", "level", "windows", "mismatches")
    rank: int
    level: int
    windows: int
    mismatches: tuple[dict, ...]

    def __init__(
        self, rank: int, level: int, windows: int, mismatches: tuple[dict, ...]
    ) -> None:
        setfield(self, "rank", rank)
        setfield(self, "level", level)
        setfield(self, "windows", windows)
        setfield(self, "mismatches", mismatches)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "level": self.level,
            "windows": self.windows,
            "mismatches": [dict(m) for m in self.mismatches],
        }


def _closed_keys(m: int, k: int, d: int) -> dict[int, set[tuple[tuple[int, int, int], ...]]]:
    """Keys of the closed-form leading terms of rank m, level k on window d, by split.

    Each of `leading.rows` moved to window d: offset 1 to degree -d-1,
    offset 0 to -d.  A row lists its factors in canonical ascending order,
    so its key is read off in order; its split is the sum of its offset-1
    exponents.  These are the keys of `fs_leading_terms(m, k, d)`.
    """
    by_split: dict[int, set] = {}
    for row in leading_rows(m, k):
        key = tuple((-d - offset, -a, -b) for (a, b, offset), e in row for _ in range(e))
        split = sum(e for (_, _, offset), e in row if offset)
        by_split.setdefault(split, set()).add(key)
    return by_split


def audit_windows(m: int, k: int, d_max: int) -> AuditReport:
    """Exhaustively compare brute-force minima with the closed-form generators.

    For every index multiset of size 2(k+1), every window d <= d_max and
    every degree split, the brute-force minimum must exist in the closed
    set, the two sets must coincide, and each minimum must be supported on
    two consecutive degrees.  Both sides are integer keys; a term is built
    as a partition only to be named in a mismatch, which is reported as
    data.
    """
    if m < 1 or k < 1 or d_max < 1:
        raise ValueError("rank, level and window bound must be positive")
    multisets = [
        tuple(combo.count(i) for i in range(1, m + 1))
        for combo in combinations_with_replacement(range(1, m + 1), 2 * (k + 1))
    ]
    # the pairings of a multiset depend on neither the window nor the split
    pairings = [_column_pairings(ms) for ms in multisets]
    alphabet = upper_scheme(m)
    mismatches: list[dict] = []
    for d in range(1, d_max + 1):
        closed = _closed_keys(m, k, d)
        window = {-d - 1, -d}
        for b in range(0, k + 2):
            least = _least_compositions(-d * (k + 1) - b, k + 1)
            brute = set()
            for ms, pairs in zip(multisets, pairings):
                key = _brute_key(pairs, least)
                if not {f[0] for f in key} <= window:
                    mismatches.append(
                        {
                            "window": d,
                            "split": b,
                            "multiset": list(ms),
                            "error": "not window-concentrated",
                            "term": str(_partition(alphabet, key)),
                        }
                    )
                    continue
                brute.add(key)
            expected = closed.get(b, set())
            if brute != expected:
                mismatches.append(
                    {
                        "window": d,
                        "split": b,
                        "missing": sorted(
                            str(_partition(alphabet, key)) for key in expected - brute
                        ),
                        "unexpected": sorted(
                            str(_partition(alphabet, key)) for key in brute - expected
                        ),
                    }
                )
    return AuditReport(rank=m, level=k, windows=d_max, mismatches=tuple(mismatches))
