"""Closed-form generators for leading terms of the defining relations.

Every leading term lives on a degree window: two consecutive negative
degrees -d-1 and -d (d >= 1).  The level-k terms on a window are in
bijection with pairs (index multiset, split): a multiset of 2(k+1)
indices and an upper-block exponent b between 0 and k+1.  The term sorts
the multiset, gives its 2b smallest entries to degree -d-1 and the rest
to -d, and pairs each block first with last, second with second-to-last,
and so on.

Each block's pairs then form a strictly nested chain, and the chain
condition

    i_1 <= ... <= i_t <= j_t <= ... <= j_1 <= i_{t+1} <= ... <= i_s
         <= j_s <= ... <= j_{t+1}

(t pairs at -d-1, s pairs in all) holds across the blocks: the colors of
a leading term lie on a diagonal path of the upper triangle, with
positive exponents summing to k+1.  That characterisation is what the
test suite checks this generator against, path by path.

The rank-1 triangle reduces everything to powers of the single color on
two consecutive degrees (the classical difference-two pattern).  The
identification of schemes is the identity on internal encodings, so the
standard-module terms of rank l are built by the same rule over the
indices 1..2l of the full rank-l scheme.  The rule runs once, as the
integer rows of window 1 (`rows`), which the admissibility checkers
read; the partition objects of window d are built from them.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from functools import lru_cache
from itertools import combinations_with_replacement, groupby

from .partitions import Alphabet, ColoredPartition, full_scheme, upper_scheme


def _row(elements: Sequence[int], b: int) -> tuple[tuple[tuple[int, int, int], int], ...]:
    """The window-1 leading term of a sorted index multiset with upper-block exponent b.

    As ``((a, b, offset), exponent)`` pairs in canonical factor order:
    offset 1 (degree -2) first, then colors by descending (a, b).
    """
    keys = [
        (block[p], block[-1 - p], offset)
        for offset, block in ((1, elements[: 2 * b]), (0, elements[2 * b :]))
        for p in range(len(block) // 2)
    ]
    keys.sort(key=lambda key: (key[2], key[0], key[1]), reverse=True)
    return tuple((key, len([*run])) for key, run in groupby(keys))


@lru_cache(maxsize=None)
def rows(n: int, k: int) -> tuple[tuple[tuple[tuple[int, int, int], int], ...], ...]:
    """`_row` of every multiset of size 2(k+1) of the indices 1..n, every split b in 0..k+1."""
    return tuple(
        _row(elements, b)
        for elements in combinations_with_replacement(range(1, n + 1), 2 * (k + 1))
        for b in range(k + 2)
    )


def _partition(alphabet: Alphabet, row, d: int) -> ColoredPartition:
    """A `_row` moved to window d, where offset 1 is degree -d-1 and offset 0 is -d."""
    return ColoredPartition.from_pairs(
        alphabet, *(((a, b), -d - offset) for (a, b, offset), e in row for _ in range(e))
    )


def check_window(rank: int, k: int, d: int) -> None:
    """Refuse a rank, level or window that is not positive."""
    if rank < 1 or k < 1 or d < 1:
        raise ValueError("rank, level and window must be positive")


def _window_terms(
    scheme: Callable[[int], Alphabet], rank: int, k: int, d: int
) -> frozenset[ColoredPartition]:
    """The `rows` over the scheme's indices as partitions on window d."""
    check_window(rank, k, d)
    alphabet = scheme(rank)
    return frozenset(_partition(alphabet, row, d) for row in rows(alphabet.index_bound, k))


@lru_cache(maxsize=None)
def fs_leading_terms(m: int, k: int, d: int) -> frozenset[ColoredPartition]:
    """All leading terms of the level-k rank-m relations on window d.

    One partition per index multiset of size 2(k+1) over 1..m and per
    upper-block exponent b in 0..k+1 (see `leading_term_for_multiset`).
    """
    return _window_terms(upper_scheme, m, k, d)


@lru_cache(maxsize=None)
def std_leading_terms(ell: int, k: int, d: int) -> frozenset[ColoredPartition]:
    """Leading terms for the rank-ell standard-module relations on window d.

    The rank-2*ell rule run over the indices 1..2*ell of the full rank-ell
    scheme: the identification map carries each rank-2*ell term to the
    term with the same encodings.
    """
    return _window_terms(full_scheme, ell, k, d)


def leading_term_for_multiset(
    multiplicities: Sequence[int], d: int, n: int
) -> ColoredPartition:
    """The unique leading term with the given color-index multiset and degree.

    `multiplicities[i-1]` is the multiplicity of index i; the total size is
    2(k+1).  The degree n must equal -d(k+1)-b for an upper-block exponent
    b between 0 and k+1.  Construction: sort the index multiset, give the
    2b smallest entries to degree -d-1 and the rest to -d, and pair each
    block symmetrically (first with last, second with second-to-last, ...),
    which produces the nested chains directly.
    """
    m = len(multiplicities)
    if m < 1 or any(c < 0 for c in multiplicities):
        raise ValueError("multiplicities must be nonnegative with positive length")
    size = sum(multiplicities)
    if size < 4 or size % 2:
        raise ValueError("multiset size must be even and at least 4 (level >= 1)")
    kp1 = size // 2
    if d < 1:
        raise ValueError("window must be positive")
    b = -n - d * kp1
    if not 0 <= b <= kp1:
        raise ValueError(
            f"no leading term with degree {n} on window {d} for this multiset"
        )
    elements: list[int] = []
    for idx, count in enumerate(multiplicities, start=1):
        elements.extend([idx] * count)
    return _partition(upper_scheme(m), _row(elements, b), d)


def window_split(term: ColoredPartition, d: int) -> int:
    """Number of factors of a window-d leading term at degree -d-1."""
    degs = {f.degree for f in term.factors}
    if not degs <= {-d - 1, -d}:
        raise ValueError(f"{term} is not supported on window {d}")
    return sum(1 for f in term.factors if f.degree == -d - 1)
