"""Identification of the upper triangle of rank 2l with the full rank-l scheme.

The upper triangle B1 of the rank-2l scheme consists of pairs (i, j) with
1 <= i <= j <= 2l; the full scheme B of rank l consists of pairs over the
index set 1, ..., l, l', ..., 1', whose internal encoding is exactly
1..2l.  The identification iota sends (i, j) to X_ab with a the index i
(barred when i > l) and b the index j (barred when j > l) -- on internal
encodings it is the identity, so it is automatically a bijection and
preserves the column-major color order.  Transporting a partition maps
its colors through iota and leaves degrees untouched.  The factor order
reads only the degree and (a, b), so the image keeps the canonical order
of the source and is built without a sort.  The image factors are the
target scheme's shared ones (the ``factors`` of its color table,
`partitions._scheme`), looked up by ``(a, b, degree)``: each keeps
its source's degree, an int already, and no factor is built per call
once the table holds it.  The image starts with an empty cache, as every
new partition does, so a point check encodes it from its own factors.
"""

from __future__ import annotations

from .partitions import (
    Color,
    ColoredPartition,
    _canonical,
    _scheme,
    full_scheme,
    upper_scheme,
)


def iota(pair: tuple[int, int], ell: int) -> Color:
    """Map an upper-triangle pair of the rank-2*ell scheme into the full rank-ell scheme."""
    i, j = pair
    if not 1 <= i <= j <= 2 * ell:
        raise ValueError(f"pair {pair} is not in the upper triangle of rank {2 * ell}")
    return Color(full_scheme(ell), i, j)


def transport_partition(p: ColoredPartition, ell: int) -> ColoredPartition:
    """Color-wise iota image of a partition over the rank-2*ell upper triangle."""
    source, target = upper_scheme(2 * ell), _scheme("B", ell)  # the target's color table
    if p.alphabet is not source and p.alphabet != source:
        raise ValueError(f"expected a partition over {source}, got {p.alphabet}")
    image = target.factors
    return _canonical(
        target.alphabet, tuple([image[f.color.a, f.color.b, f.degree] for f in p.factors])
    )
