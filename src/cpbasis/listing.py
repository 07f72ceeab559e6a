"""Admissible partitions streamed in partition order, as paths in the window-1 slice graph.

A partition's slice on one degree is the multiset of colors it holds
there.  Both conditions are local and window-invariant (the two lemmas in
the `basis` docstring), so a partition is admissible exactly when each of
its slices is admissible alone and each two slices on adjacent degrees are
admissible together on one window.  A listing therefore needs only the
slice graph of window 1: its nodes are the slices admissible alone, listed
once by `basis._walk` at depth 1 with the condition's own tracker, and an
edge joins a slice s on -d to a slice t on -d-1 when the pair is
admissible.  Each slice has a lower key, read when it is s, and an upper
key, read when it is t, and an edge depends on the two keys only:

* divisibility: a mixed row (P, Q) of `leading.rows`, P on degree -1 and
  Q on -2, refuses the pair when P divides s and Q divides t.  The lower
  key U(s) is the set of Qs of the mixed rows whose P divides s, the upper
  key D(t) the set of Qs that divide t, each a bit mask over the distinct
  Qs; the pair is admissible when ``U & D == 0``.
* inequalities: by the cut lemma (see `series`) the pair is admissible
  when A_t(c) + B_s(c) <= k at every cut c, with B(s) = inside_s(c, m)
  the lower key and A(t) = inside_t(1, c) the upper one, packed in slots
  of w bits; B carries the bias 2^(w-1) - (k+1) in each slot, so the pair
  is admissible when no slot of ``B + A`` reaches its top bit.

Lower keys take few distinct values, the classes, and the slices of one
size that may follow a slice depend on its class only, so each successor
list is built once per (class, size) as an integer array.  A slice whose
degree has an empty neighbour above takes the class of the empty slice,
which every slice may follow.

Order.  A key lists its factors by ascending (|degree|, color position)
(see `basis.enumerate_keys`), and a layer lists its shapes, the |degree|
sequences of its keys, by descending (length, shape), and each shape's
keys in descending order.  Within a shape that compares the slice on the
shallowest held degree first, then the next.  So a shape is listed by a
depth-first walk over its held degrees, shallowest first, that takes each
slice from its predecessor's successor list in order: the held slices of
one size are numbered in descending order.  A second held degree adds at
least 2 to a layer's total, so a slice of more than max_degree - 2
factors only fills a shape of one degree.  Only slices of at most
max_degree - 2 factors are held; such a one-degree shape is streamed by a
walk of its own that tries colors in descending order.

Rows.  A listing is read through four arguments: ``piece(colors, d)``
writes a slice at |degree| d, ``extend(acc, piece)`` adds the piece of the
next deeper slice to the part of a row built so far, ``join(part, acc)``
puts the part of a row's deepest slices below ``acc``, and ``start`` is the
part built from no slice.  Pieces of held slices are made once per degree.
A group ``(acc, tail)`` is the rows ``join(x, acc)`` for x in the list
``tail``, and a text listing writes it in one ``str.join``.  Within a
shape, the rows below a path through all but the two deepest held degrees
depend only on the class that feeds the second-deepest one, so such a
path's group takes the tail of that class: its rows' parts
``join(deepest piece, extend(start, second-deepest piece))``, built once
on the tail's second request in the shape and reused until the shape
ends.  A tail of more than `BLOCK` rows, one write block, is never built,
so the tails of a shape hold at most one block per class.  Until its tail
is built, a path makes one group per second-deepest slice, whose tail is
the list of deepest pieces that may follow that slice's class, also kept
per class until the shape ends.
"""

from __future__ import annotations

from array import array
from itertools import accumulate, combinations, compress, repeat
from operator import add, not_

from .basis import _color_positions, _CutTracker, _Tracker, _walk
from .leading import rows
from .series import _cells, _cuts

# rows per write of a listing (see `cli._write_rows`), and the most rows a cached tail holds
BLOCK = 1024


def _division_keys(m: int, k: int):
    """``(keys, the empty slice's lower key, fits)`` for divisibility, U(s) and D(t).

    ``keys(prefix, ids)`` gives the ``(lower, upper)`` keys of the slices
    ``prefix + (x,)``, x in ids, each at least the prefix's last color;
    ``fits(u, uppers)`` tells, for each upper key in turn, whether it may
    follow the lower key u.  A P or a Q lists its 1..k colors ascending, as
    a slice does, so the sub-multisets of a slice are looked up as they are.
    """
    position = _color_positions(m)
    below: dict[tuple[int, ...], int] = {}  # a P to the bits of the Qs it is paired with
    bits: dict[tuple[int, ...], int] = {}  # a Q to its bit
    for row in rows(m, k):
        parts: tuple[list[int], list[int]] = ([], [])
        for (a, b, offset), e in row:
            parts[offset].extend([position[a, b]] * e)
        p, q = (tuple(sorted(part)) for part in parts)
        if p and q:
            bit = bits.setdefault(q, 1 << len(bits))
            below[p] = below.get(p, 0) | bit

    def keys(prefix, ids):
        # the prefix's own keys, then what each x adds: the sub-multisets
        # that end at x, a sub-multiset of the prefix of at most k-1 colors and x
        u = d = 0
        for sub in {sub for n in range(1, k + 1) for sub in combinations(prefix, n)}:
            u |= below.get(sub, 0)
            d |= bits.get(sub, 0)
        heads = {sub for n in range(k) for sub in combinations(prefix, n)}
        found = []
        for x in ids:
            ux, dx = u, d
            for head in heads:
                sub = (*head, x)
                ux |= below.get(sub, 0)
                dx |= bits.get(sub, 0)
            found.append((ux, dx))
        return found

    return keys, 0, lambda u, uppers: map(not_, map(u.__and__, uppers))


def _cut_keys(m: int, k: int):
    """``(keys, the empty slice's lower key, fits)`` for inequalities, B(s) and A(t).

    As `_division_keys`; B carries the bias, A does not.
    """
    cells = _cells(m)
    flat = {(i, j): p for p, (i, j, _, _) in enumerate(cells)}
    cell = [flat[pair] for pair in _color_positions(m)]
    cuts_a, cuts_b = _cuts(m)
    w = (k + 1).bit_length() + 1
    bias = (1 << w - 1) - (k + 1)
    high = sum(1 << c * w + w - 1 for c in range(m))

    def keys(prefix, ids):
        found = []
        for x in ids:
            inside = [0] * (len(cells) + 1)  # the last cell stays zero
            for y in (*prefix, x):
                inside[cell[y]] += 1
            for p, (_, _, y, z) in enumerate(cells):
                inside[p] += inside[y] if inside[y] > inside[z] else inside[z]
            lower = sum((bias + inside[q]) << c * w for c, q in enumerate(cuts_b))
            found.append((lower, sum(inside[q] << c * w for c, q in enumerate(cuts_a))))
        return found

    empty = sum(bias << c * w for c in range(m))
    return keys, empty, lambda b, uppers: map(not_, map(high.__and__, map(b.__add__, uppers)))


def _shapes(n: int, top: int, held: int) -> list[tuple[tuple[int, int], ...]]:
    """The shapes of total n as ``((d, count), ...)`` by ascending |degree| d, in listing order.

    A count is at most `top`, the most factors of a held slice, except in a
    one-degree shape of more than `held` factors, which is streamed.
    """

    def rec(rest: int, least: int):
        if not rest:
            yield ()
        for d in range(least, rest + 1):
            for count in range(1, min(top, rest // d) + 1):
                for tail in rec(rest - count * d, d + 1):
                    yield ((d, count), *tail)

    shapes = [*rec(n, 1)]
    shapes += [((d, n // d),) for d in range(1, n + 1) if n % d == 0 and n // d > held]
    # (length, |degree| sequence), descending
    shapes.sort(key=lambda shape: (len(seq := [d for d, c in shape for _ in range(c)]), seq))
    shapes.reverse()
    return shapes


class SliceGraph:
    """The window-1 slice graph of fs(m, k) for a listing to |degree| max_degree by `method`."""

    def __init__(self, m: int, k: int, max_degree: int, method: str):
        self.m, self.k, self.max_degree = m, k, max_degree
        self.tracker_type = _Tracker if method == "divisibility" else _CutTracker
        self.width = len(_color_positions(m))
        self.held = held = max(max_degree - 2, 0)
        keys, empty, self.fits = (_division_keys if method == "divisibility" else _cut_keys)(m, k)
        by_size: list[list[tuple[int, ...]]] = [[] for _ in range(held + 1)]
        # each slice's lower and upper class, numbered in order of appearance
        lowers, uppers = {empty: 0}, {}
        classes = [(array("I"), array("I")) for _ in range(held + 1)]

        def file(total, shape, prefix, ids):
            by_size[total] += [(*prefix, i) for i in ids]
            low, up = classes[total]
            for lower, upper in keys(prefix, ids):
                low.append(lowers.setdefault(lower, len(lowers)))
                up.append(uppers.setdefault(upper, len(uppers)))

        _walk(held, self.tracker_type(m, k, 1), file, depth=1)
        # numbered by ascending size, each size in descending order, as the
        # walk files a shape's keys ascending
        self.slices = [s for size in by_size for s in reversed(size)]
        # the slices of c factors are numbered starts[c] to starts[c+1] - 1
        self.starts = [0, *accumulate(len(size) for size in by_size)]
        self.top = max((c for c, size in enumerate(by_size) if size), default=0)
        self.lower, self.upper = array("I"), array("I")
        for low, up in classes:
            self.lower += low[::-1]
            self.upper += up[::-1]
        self.classes, self.uppers = [*lowers], [*uppers]
        self.successor_lists: dict[tuple[int, int], array] = {}

    def successors(self, lower: int, size: int) -> array:
        """The held slices of `size` factors that may follow one of class `lower`, in listing order."""
        found = self.successor_lists.get((lower, size))
        if found is None:
            start, end = self.starts[size], self.starts[size + 1]
            uppers = map(self.uppers.__getitem__, self.upper[start:end])
            fits = self.fits(self.classes[lower], uppers)
            found = self.successor_lists[lower, size] = array("I", compress(range(start, end), fits))
        return found

    def stream(self, size: int):
        """The slices of `size` factors admissible alone, in descending order, none of them held.

        As groups ``(prefix, last)``: the slices ``prefix + (x,)`` for x in
        ``last``, a descending list.  A depth-first walk of the condition's
        tracker at depth 1 that tries colors in descending order, with one
        iterator of the colors left per pushed color and ``fitting`` deciding
        the last.
        """
        tracker = self.tracker_type(self.m, self.k, 1)
        push, pop, fitting, width = tracker.push, tracker.pop, tracker.fitting, self.width
        if size == 1:
            yield (), fitting(0, width)[::-1]
            return
        prefix: list[int] = []
        tries = [iter(range(width - 1, -1, -1))]
        while tries:
            for x in tries[-1]:
                if push(x):
                    prefix.append(x)
                    if len(prefix) + 1 < size:
                        tries.append(iter(range(width - 1, x - 1, -1)))
                        break
                    last = fitting(x, width)
                    if last:
                        yield tuple(prefix), last[::-1]
                    prefix.pop()
                pop(x)
            else:
                tries.pop()
                if prefix:
                    pop(prefix.pop())

    def layers(self, piece, extend, join, start):
        """Layers 1..max_degree in partition order, each a generator of groups ``(acc, tail)``.

        A group is the rows that share all but their two deepest slices, or
        all but their deepest one: ``acc`` is `start` extended by the pieces
        of the shared slices, shallowest first, and ``tail`` is a list of
        the parts of the rows below it, in order (see the module docstring).
        The layers are read one after the other, each to its end.
        """
        tables: dict[int, list] = {}

        def table(d: int) -> list:
            found = tables.get(d)
            if found is None:
                reach = self.starts[min(self.held, self.max_degree // d) + 1]
                found = tables[d] = [piece(s, d) for s in self.slices[:reach]]
            return found

        for n in range(1, self.max_degree + 1):
            yield self._layer(n, piece, (extend, join, start), table)

    def _layer(self, n, piece, parts, table):
        start = parts[2]
        for shape in _shapes(n, self.top, self.held):
            if len(shape) == 1 and shape[0][1] > self.held:
                ((d, size),) = shape
                for prefix, last in self.stream(size):
                    yield start, [piece((*prefix, x), d) for x in last]
                continue
            # per held degree: its count, its pieces and whether the one above is held
            levels = [
                (c, table(d), i > 0 and shape[i - 1][0] == d - 1) for i, (d, c) in enumerate(shape)
            ]
            yield from self._paths(levels, 0, 0, start, parts, ({}, {}))

    def _paths(self, levels, level, above, acc, parts, shape_tails):
        """The groups of one shape that extend a path through its first `level` held degrees.

        ``levels`` holds per held degree its count, its pieces and whether
        the degree above it is held; the next slice follows one of class
        ``above``, and the path's row part is ``acc``.  ``shape_tails``
        holds the shape's tails by class: of one slice, the deepest pieces
        that may follow a class, and of two slices, built on their second
        request if they hold at most `BLOCK` rows, by the class that feeds
        the second-deepest held degree.  Until a path's tail of two slices
        is built, each of its second-deepest slices makes a group of its own.
        """
        successors, lower = self.successors, self.lower
        size, pieces, _ = levels[level]
        ids = successors(above, size)
        if level + 1 == len(levels):
            if ids:
                yield acc, [*map(pieces.__getitem__, ids)]
            return
        extend, join, start = parts
        size, deeper, adjacent = levels[level + 1]
        if level + 2 < len(levels):
            for t in ids:
                follows = lower[t] if adjacent else 0
                path = extend(acc, pieces[t])
                yield from self._paths(levels, level + 1, follows, path, parts, shape_tails)
            return
        lasts, tails = shape_tails
        tail = tails.get(above, False)
        if isinstance(tail, list):
            if tail:
                yield acc, tail
            return
        # per second-deepest slice, the pieces of the deepest slices that may follow it
        below = []
        for t in ids:
            c = lower[t] if adjacent else 0
            last = lasts.get(c)
            if last is None:
                last = lasts[c] = [*map(deeper.__getitem__, successors(c, size))]
            below.append(last)
        if tail is False:
            # the first request marks the tail, the second builds it, as None
            # when it would hold more than BLOCK rows
            if above in tails:
                tail = tails[above] = self._tail(ids, pieces, below, parts)
                if tail is not None:
                    if tail:
                        yield acc, tail
                    return
            else:
                tails[above] = False
        for t, last in zip(ids, below):
            if last:
                yield extend(acc, pieces[t]), last

    @staticmethod
    def _tail(ids, pieces, below, parts):
        """The rows below the second-deepest held slices `ids` as ``join(deepest piece, part)``.

        ``part`` is `start` extended by the piece of the second-deepest
        slice and ``below`` gives the deepest pieces that may follow each;
        None when there are more than `BLOCK` rows.
        """
        if sum(map(len, below)) > BLOCK:
            return None
        extend, join, start = parts
        tail = []
        for t, last in zip(ids, below):
            tail += map(join, last, repeat(extend(start, pieces[t])))
        return tail

    def keys(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """Every layer 0..max_degree as keys, the tuples of `basis._entries` indices."""
        width = self.width

        def piece(colors, d):
            base = (d - 1) * width
            return tuple([base + x for x in colors])

        def join(p, acc):
            return acc + p

        return ((),), *(
            tuple([acc + p for acc, tail in layer for p in tail])
            for layer in self.layers(piece, add, join, ())
        )

    def counts(self):
        """The sizes of layers 1..max_degree, each counted over the paths when it is asked for."""

        def none(*args):
            return None

        for layer in self.layers(none, none, none, None):
            yield sum(len(tail) for _, tail in layer)
