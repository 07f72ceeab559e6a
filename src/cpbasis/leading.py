"""Closed-form generators for leading terms of the defining relations.

Every leading term lives on a degree window: two consecutive negative
degrees -d-1 and -d (d >= 1).  Its colors lie on a diagonal path of the
upper triangle: a chain of index pairs, the first `split` of which sit at
degree -d-1 and the rest at degree -d, subject to the chain condition

    i_1 <= ... <= i_t <= j_t <= ... <= j_1 <= i_{t+1} <= ... <= i_s
         <= j_s <= ... <= j_{t+1}

(with t = split, s = number of pairs).  Within each degree block the
pairs form a strictly nested chain, listed outermost first; the same pair
may reappear across the two blocks.  Assigning positive exponents that
sum to k+1 to the pairs of a path yields one leading term of the level-k
relations.

The rank-1 triangle reduces everything to powers of the single color on
two consecutive degrees (the classical difference-two pattern); the
standard-module leading terms of rank l are the rank-2l families mapped
through the identification of schemes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

from .ident import transport_partition
from .partitions import Color, ColoredPartition, Factor, upper_scheme


@dataclass(frozen=True)
class DiagonalPath:
    """A chain of index pairs with a split point separating the two degree blocks."""

    rank: int
    pairs: tuple[tuple[int, int], ...]
    split: int

    def __post_init__(self) -> None:
        if not self.pairs:
            raise ValueError("a diagonal path needs at least one pair")
        if not 0 <= self.split <= len(self.pairs):
            raise ValueError("split out of range")
        for i, j in self.pairs:
            if not 1 <= i <= j <= self.rank:
                raise ValueError(f"pair ({i},{j}) out of range for rank {self.rank}")
        for block in (self.pairs[: self.split], self.pairs[self.split :]):
            for (i0, j0), (i1, j1) in zip(block, block[1:]):
                # strictly nested, outermost first
                if not (i0 <= i1 and j1 <= j0 and (i0, j0) != (i1, j1)):
                    raise ValueError(f"block {block} violates the chain condition")
        upper = self.pairs[: self.split]
        lower = self.pairs[self.split :]
        if upper and lower and not upper[0][1] <= lower[0][0]:
            raise ValueError(
                f"blocks {upper} | {lower} violate the cross-block chain condition"
            )

    @property
    def upper_block(self) -> tuple[tuple[int, int], ...]:
        """Pairs placed at degree -d-1."""
        return self.pairs[: self.split]

    @property
    def lower_block(self) -> tuple[tuple[int, int], ...]:
        """Pairs placed at degree -d."""
        return self.pairs[self.split :]


@lru_cache(maxsize=None)
def _nested_chains(m: int, max_len: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """All nonempty strictly nested chains of pairs, outermost first."""
    all_pairs = [(i, j) for i in range(1, m + 1) for j in range(i, m + 1)]
    chains: list[tuple[tuple[int, int], ...]] = []

    def extend(chain: list[tuple[int, int]]) -> None:
        chains.append(tuple(chain))
        if len(chain) == max_len:
            return
        i0, j0 = chain[-1]
        for i in range(i0, j0 + 1):
            for j in range(i, j0 + 1):
                if (i, j) != (i0, j0):
                    chain.append((i, j))
                    extend(chain)
                    chain.pop()

    for p in all_pairs:
        extend([p])
    return tuple(chains)


def diagonal_paths(m: int, max_pairs: int) -> Iterator[DiagonalPath]:
    """Every diagonal path over indices 1..m with at most `max_pairs` pairs.

    Yields each path exactly once, in a fixed deterministic order: first
    the single-block paths (all pairs at -d, then all pairs at -d-1), then
    the genuinely split ones.
    """
    if m < 1:
        raise ValueError("rank must be positive")

    def generate() -> Iterator[DiagonalPath]:
        if max_pairs < 1:
            return
        chains = _nested_chains(m, max_pairs)
        for c in chains:
            yield DiagonalPath(m, c, 0)
        for c in chains:
            yield DiagonalPath(m, c, len(c))
        for upper in chains:
            for lower in chains:
                if len(upper) + len(lower) > max_pairs:
                    continue
                if upper[0][1] <= lower[0][0]:
                    yield DiagonalPath(m, upper + lower, len(upper))

    return generate()


@lru_cache(maxsize=None)
def _compositions(total: int, parts: int) -> tuple[tuple[int, ...], ...]:
    """Ordered compositions of `total` into `parts` positive integers."""
    if parts == 0:
        return ((),) if total == 0 else ()
    if parts == 1:
        return ((total,),) if total >= 1 else ()
    out = []
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            out.append((first,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def fs_leading_terms(m: int, k: int, d: int) -> frozenset[ColoredPartition]:
    """All leading terms of the level-k rank-m relations on window d.

    One partition per diagonal path and positive exponent assignment
    summing to k+1; upper-block pairs sit at degree -d-1, lower-block
    pairs at -d.
    """
    if m < 1 or k < 1 or d < 1:
        raise ValueError("rank, level and window must be positive")
    alphabet = upper_scheme(m)
    colors = {(i, j): Color(alphabet, i, j) for i in range(1, m + 1) for j in range(i, m + 1)}
    terms = set()
    for path in diagonal_paths(m, k + 1):
        s = len(path.pairs)
        for comp in _compositions(k + 1, s):
            factors = []
            for idx, (pair, e) in enumerate(zip(path.pairs, comp)):
                n = -d - 1 if idx < path.split else -d
                factors.extend((Factor(colors[pair], n),) * e)
            terms.add(ColoredPartition(alphabet, tuple(factors)))
    return frozenset(terms)


@lru_cache(maxsize=None)
def std_leading_terms(ell: int, k: int, d: int) -> frozenset[ColoredPartition]:
    """Leading terms for the rank-ell standard-module relations on window d.

    The rank-2*ell families carried into the full rank-ell scheme by the
    identification map.
    """
    return frozenset(
        transport_partition(p, ell) for p in fs_leading_terms(2 * ell, k, d)
    )


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

    alphabet = upper_scheme(m)

    def nested(block: list[int], degree: int) -> list[Factor]:
        half = len(block) // 2
        return [
            Factor(Color(alphabet, block[p], block[-1 - p]), degree)
            for p in range(half)
        ]

    factors = nested(elements[: 2 * b], -d - 1) + nested(elements[2 * b :], -d)
    return ColoredPartition(alphabet, tuple(factors))


def window_split(term: ColoredPartition, d: int) -> int:
    """Number of factors of a window-d leading term at degree -d-1."""
    degs = {f.degree for f in term.factors}
    if not degs <= {-d - 1, -d}:
        raise ValueError(f"{term} is not supported on window {d}")
    return sum(1 for f in term.factors if f.degree == -d - 1)
