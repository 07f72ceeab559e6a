"""Admissible partitions and basis enumeration.

``fs`` bases are partitions over the upper triangle B1 of rank m (the
subspace attached to the minuscule coweight), ``std`` bases over the
full scheme B of rank l (the whole standard module).  The identification
of schemes is the identity on internal (a, b) encodings and carries the
leading terms along, so below the `BasisKind` API ``std(l, k)`` is
``fs(2l, k)``.

A strictly-negative-degree partition is admissible when no leading term
of the relations divides it; the terms are the integer rows of
`leading.rows`, written once for window 1, and window d reads them d-1
degrees deeper, so std(l, k) and fs(2l, k) share one compiled family.
For ``fs`` the same condition reads: for every window d and diagonal
path, the path's upper-block multiplicities at degree -d-1 plus its
lower-block ones at -d are at most the level.  The two are checked
independently and compared exhaustively in the test suite.  Call a
partition's factors on one degree its slice there.  Both conditions obey
two lemmas, each tested on both point checkers and on the reference
definitions:

* Locality: a partition is admissible exactly when each slice is, moved
  alone to degree -1, and each two slices on adjacent degrees are, moved
  to degrees -1 and -2.  A path sum on window d reads only degrees -d-1
  and -d, and a term of window d lies on those two degrees.
* Window invariance: moving a partition one degree deeper changes
  neither verdict.  Window d+1 reads degrees -d-2 and -d-1 as window d
  reads -d-1 and -d, and degree 0, above the shallowest window, counts as
  empty.

So a tracker is built from tables of (m, k) alone: one slot layout
serves every window.  A point check closes each gap of more than 2
between the degrees its partition holds down to 2, and decides nothing
further for a partition with at most k factors on any two adjacent
degrees, which neither condition can refuse (see `_decide`).  The keys
and that count depend on the partition alone, so they are found once per
partition and kept in its cache slot.  `ident.transport_partition` keeps
the factor order without a sort: iota keeps (a, b), and the order reads
nothing else.  The path inequalities are decided by the cut lemma alone,
on the inside tables of `series` (see its docstring); no path is ever
built.

A walk (`_walk`) pushes factors by ascending |degree| into a tracker,
`_Tracker` of the terms (capped-sum counters packed in one integer per
window) or `_CutTracker` of the cut profiles, and skips the subtree of
every inadmissible prefix; it decides the leaves, the partitions nothing
can follow, in one bulk test per degree instead of pushing them (a slot
test for `_Tracker`, a reach table for `_CutTracker`).  An enumeration
lists, by the two lemmas, paths in the window-1 slice graph (see
`listing`), whose nodes are the single slices a walk at depth 1 lists.
One walk that pushes both trackers together (`_Pair`) checks the
coincidence exactly: each condition's admissible set is closed under
dropping the last-walked factor, so at the least degree where the sets
differ, a partition admitted by one only has a parent both admit, which
the walk reaches.  The point checkers build no tracker: `_terms_fit`
runs the pushes of `_Tracker` over a partition's keys with two windows
live, and `_cuts_fit` fills one inside table per held slice and tests
its cuts against the slice above.  Graded series are counted without
listing, in `series`.
"""

from __future__ import annotations

from functools import lru_cache

from .leading import fs_leading_terms, rows, std_leading_terms
from .partitions import (
    Alphabet,
    ColoredPartition,
    _canonical,
    _color_table,
    full_scheme,
    upper_scheme,
)
from .series import BasisKind, _cells, _cuts, _triangle_rank


def leading_terms(basis: BasisKind, d: int) -> frozenset[ColoredPartition]:
    """Leading terms of the relations for `basis` on window d."""
    if basis.kind == "fs":
        return fs_leading_terms(basis.rank, basis.level, d)
    return std_leading_terms(basis.rank, basis.level, d)


def admissible_by_divisibility(pi: ColoredPartition, basis: BasisKind) -> bool:
    """True when no leading term of any window divides `pi`.

    Decided by `_terms_fit` (see `_decide`); std(l, k) and fs(2l, k) share
    its term family.
    """
    return _decide(pi, basis, _terms_fit)


def admissible_by_inequalities(pi: ColoredPartition, basis: BasisKind) -> bool:
    """Difference conditions as path-sum inequalities (``fs`` kind only).

    For every window d >= 1 and every diagonal path, the sum of the
    multiplicities of the upper-block colors at degree -d-1 and of the
    lower-block colors at degree -d must be at most the level.  Decided
    by `_cuts_fit` (see `_decide`).
    """
    if basis.kind != "fs":
        raise ValueError(
            "path inequalities apply to the fs kind; transport std partitions first"
        )
    return _decide(pi, basis, _cuts_fit)


def _decide(pi: ColoredPartition, basis: BasisKind, fits) -> bool:
    """The point check of both conditions, from the encoding of `pi`.

    A partition with at most k factors on any two adjacent degrees is
    admissible under either condition by that condition's own definition:
    a path sum on window d reads only the factors on degrees -d-1 and -d,
    and a leading term has k+1 factors on two adjacent degrees.  It is
    accepted with no further work.  Any other partition is decided by
    ``fits(keys, m, k)``, `_terms_fit` or `_cuts_fit`, on its factors as
    tracker entries, shallowest first, once its |degree|s are moved to a
    compact range, each gap wider than 2 closed down to 2.  Both conditions
    couple adjacent degrees only and read the same on every window, so
    closing a gap between degrees that stay apart, and moving the
    shallowest degree up, changes no verdict.

    The encoding is ``(keys, densest)``: those entries, ascending, and the
    most factors on any two adjacent degrees.  A color's entry on compact
    degree -v is its position in `Alphabet.colors` order, which the color
    carries, plus (v-1) times the m(m+1)/2 colors of fs(m).  The encoding
    depends on `pi` alone, not on the level or the condition, so one pass
    over the factors makes it on the first check of `pi` and stores it in
    the cache slot ``_code``; every later check, by another route or at
    another level, reads it.  (alphabet, m, k) come from `_SETUPS` by
    (kind, rank, level).
    """
    key = (basis.kind, basis.rank, basis.level)
    setup = _SETUPS.get(key)
    if setup is None:
        # not `basis.alphabet`, which runs an import statement
        alphabet = upper_scheme(basis.rank) if basis.kind == "fs" else full_scheme(basis.rank)
        setup = _SETUPS[key] = (alphabet, alphabet.index_bound, basis.level)
    alphabet, m, k = setup
    if pi.alphabet is not alphabet and pi.alphabet != alphabet:
        raise ValueError(f"expected a partition over {alphabet}, got {pi.alphabet}")
    code = pi._code
    if code is None:
        # degrees ascend in canonical order, so the last factor holds the greatest
        if pi.factors and pi.factors[-1].degree >= 0:
            raise ValueError("admissibility is defined for strictly negative degrees")
        width = m * (m + 1) // 2
        keys = []
        base = -width
        last = here = above = densest = 0  # factors on |degree| last and on last-1
        for f in reversed(pi.factors):  # by ascending |degree|
            v = -f.degree
            if v != last:
                densest = max(densest, here + above)  # of |degree| last, now complete
                if v == last + 1:
                    base, above = base + width, here
                else:
                    base, above = base + 2 * width, 0
                last, here = v, 0
            here += 1
            keys.append(base + f.color._position)
        code = (tuple(keys), max(densest, here + above))
        _set_code(pi, code)
    keys, densest = code
    return densest <= k or fits(keys, m, k)


def _terms_fit(keys: tuple[int, ...], m: int, k: int) -> bool:
    """Whether the ascending `keys` all push into a fresh `_Tracker` of fs(m, k).

    The slot arithmetic of ``_Tracker.push``, key by key, with two windows
    kept in locals: the entries of compact degree -(v+1) add to windows v
    and v+1 only, and keys ascend, so window v is complete once they are
    in, and the copies of one entry are consecutive, its copy number the
    length of its run so far.  It stops at the first key that sets a top
    bit, as the pushes would; a (k+1)-th copy of an entry is such a key.
    """
    start, high, _, masks = _term_masks(m, k)
    width = len(masks)
    upper = lower = start  # windows last and last+1
    last = prev = -1
    n = 0
    for i in keys:
        if i == prev:
            n += 1
        else:
            prev, n = i, 0
            v, c = divmod(i, width)
            if v != last:
                upper, lower, last = lower if v == last + 1 else start, start, v
            copies = masks[c]
        x, y = copies[n]
        lower += x
        upper += y
        if (lower | upper) & high:
            return False
    return True


@lru_cache(maxsize=None)
def _cut_steps(m: int) -> tuple[int, tuple[tuple[int, int, int], ...], tuple[tuple[int, int], ...]]:
    """The inside table of fs(m) indexed by color position: ``(width, steps, cuts)``.

    A table has width + 1 entries, entry width always zero.  ``steps`` are
    the off-diagonal cells of `_cells`, by increasing j - i, each
    ``(p, x, y)`` with inside(p) = e(p) + max(inside(x), inside(y)); on the
    diagonal inside is e.  ``cuts`` pairs the cells of A(c) and B(c) for
    c = 1..m (see `_cuts`).
    """
    position = _color_positions(m)
    width = len(position)
    cells = _cells(m)
    at = [position[i, j] for i, j, _, _ in cells] + [width]
    steps = tuple((at[p], at[x], at[y]) for p, (i, j, x, y) in enumerate(cells) if i < j)
    cuts_a, cuts_b = _cuts(m)
    return width, steps, tuple((at[a], at[b]) for a, b in zip(cuts_a, cuts_b))


def _cuts_fit(keys: tuple[int, ...], m: int, k: int) -> bool:
    """Whether the ascending `keys` keep the path inequalities of fs(m, k), by the cut lemma.

    Each held slice's inside table is filled in place from its counts once
    the slice is complete; then A_t(c) + B_s(c) <= k is tested at every cut
    against the slice s one degree shallower, or inside(1, m) <= k when that
    degree is empty.  A last key -1, on no degree, completes the deepest
    slice.
    """
    width, steps, cuts = _cut_steps(m)
    top = m - 1  # (1, m), the last color of column 1
    e = above = None  # the slices of compact degrees held and last
    held = last = -2
    for i in (*keys, -1):
        v, c = divmod(i, width)
        if v != held:
            if e is not None:
                for p, x, y in steps:
                    e[p] += e[x] if e[x] > e[y] else e[y]
                if held == last + 1:
                    for a, b in cuts:
                        if e[a] + above[b] > k:
                            return False
                elif e[top] > k:
                    return False
                above, last = e, held
            e, held = [0] * (width + 1), v
        e[c] += 1
    return True


_SETUPS: dict[tuple[str, int, int], tuple[Alphabet, int, int]] = {}
_set_code = ColoredPartition._code.__set__


@lru_cache(maxsize=None)
def _color_positions(m: int) -> dict[tuple[int, int], int]:
    """Color (a, b) to its position in `Alphabet.colors` order."""
    return {c.pair: i for i, c in enumerate(upper_scheme(m).colors())}


@lru_cache(maxsize=None)
def _entries(m: int, max_degree: int) -> tuple[tuple[int, int, int], ...]:
    """The walk's keys (a, b, v) of degrees 1..max_degree, by degree, then color position."""
    return tuple((a, b, v) for v in range(1, max_degree + 1) for a, b in _color_positions(m))


@lru_cache(maxsize=None)
def _term_masks(m: int, k: int) -> tuple[int, int, int, tuple[tuple[tuple[int, int], ...], ...]]:
    """The slot layout of one window of fs(m, k) for `_Tracker`: ``(start, high, top, masks)``.

    A slot of w = (k+1).bit_length() + 1 bits is kept for every row of
    `leading.rows` with an offset-0 factor; a row with none, all at offset
    1, is the next window's row of the same pairs all at offset 0.  start
    holds the bias 2^(w-1) - (k+1) in every slot, high has a one at the
    top bit of every slot, and top = w-1 shifts it there from the lowest.
    ``masks[c][n]``, for n = 0..k, holds the two masks ``(x, y)`` that an
    n-th copy of the c-th color (a, b) adds on any degree -v, key (a, b, 0)
    of window v and key (a, b, 1) of window v-1: a one at the lowest bit of
    each slot whose row caps the key above n, or 0.  The masks are set bit
    by bit in byte arrays, so they cost linear time.
    """
    width = (k + 1).bit_length() + 1
    slots = [row for row in rows(m, k) if any(offset == 0 for (_, _, offset), _ in row)]
    size = (len(slots) * width + 7) // 8
    bits: dict[tuple[int, int, int, int], bytearray] = {}
    for s, row in enumerate(slots):
        byte, bit = divmod(s * width, 8)
        for (a, b, offset), cap in row:
            for n in range(cap):
                key = (a, b, offset, n)
                if key not in bits:
                    bits[key] = bytearray(size)
                bits[key][byte] |= 1 << bit

    def mask(*key: int) -> int:
        return int.from_bytes(bits[key], "little") if key in bits else 0

    ones = ((1 << width * len(slots)) - 1) // ((1 << width) - 1)
    masks = tuple(
        tuple((mask(a, b, 0, n), mask(a, b, 1, n)) for n in range(k + 1))
        for a, b in _color_positions(m)
    )
    return ((1 << width - 1) - (k + 1)) * ones, ones << width - 1, width - 1, masks


class _Tracker:
    """The leading terms as capped-sum counters packed in integers, one integer per window.

    A term is violated once the sum over its keys of min(multiplicity,
    exponent) reaches k+1, which is when it divides the monomial.  It has
    the width, push and pop of `_CutTracker`: entry i is color c at degree
    -(v+1), where v, c = divmod(i, width).  Every window holds the window-1
    terms moved deeper, so every window gets the same slots (see
    `_term_masks`): window v's integer ``state[v]`` has one slot per term
    with a factor on -v, and a term all on -v-1 is window v+1's.  A slot
    starts at the bias 2^(w-1) - (k+1) and holds the bias plus the capped
    sum, so its top bit sets exactly when the capped sum reaches k+1.  The
    n-th copy of entry i adds the masks ``(x, y) = masks[c][n]`` to windows
    v+1 and v; ``push`` tests them against ``high``, the top bit of every
    slot (one integer, as every window has the same slots), and ``pop``
    subtracts them.  Window 0 takes y like any other window, but no slot
    there can fill: it only ever counts its row's offset-1 exponents, which
    sum to at most k, as a row all at offset 1 has no slot.  A (k+1)-th copy
    of one color on one degree is itself a term, so it fails and no entry
    is pushed past it.

    Slots never carry into each other, and that rests on the caller: it
    pushes only from an admissible state, where every capped sum is at most
    k, a push raises each by at most one, so a slot holds at most 2^(w-1),
    and it pops or drops a failing push before any further push.  Terms
    reaching past -max_degree never fill, as no factor lies there.

    ``fitting(lo, hi)`` answers a push for every entry of one degree at once
    and changes nothing.  In an admissible state an n-th copy of a key adds
    exactly 1 to each slot whose row caps the key above n, so it fails
    exactly when one of them already holds the capped sum k; such full
    slots are those whose top bit sets when 1 is added to every slot, which
    no slot carries out of.  So the full slots of windows v and v-1 are
    found once per call, and each entry's masks for its next copy meet them
    in two ANDs; when no slot of the two windows is full, every entry fits
    with no test.  This reads each term as ``push`` does, so it assumes no
    coincidence with the path inequalities, which this route is checked
    against.
    """

    def __init__(self, m: int, k: int, max_degree: int):
        start, self.high, self.top, self.masks = _term_masks(m, k)
        self.ones = self.high >> self.top
        self.width = len(self.masks)
        self.state = [start] * (max_degree + 1)
        self.mult = [0] * (self.width * max_degree)

    def push(self, i: int) -> bool:
        n = self.mult[i]
        self.mult[i] = n + 1
        v, c = divmod(i, self.width)
        x, y = self.masks[c][n]
        state = self.state
        below = state[v + 1] = state[v + 1] + x
        above = state[v] = state[v] + y
        return not ((below | above) & self.high)

    def pop(self, i: int) -> None:
        n = self.mult[i] - 1
        self.mult[i] = n
        v, c = divmod(i, self.width)
        x, y = self.masks[c][n]
        state = self.state
        state[v + 1] -= x
        state[v] -= y

    def fitting(self, lo: int, hi: int) -> list[int]:
        """The entries in [lo, hi), all of one |degree| v, that ``push`` would accept."""
        width = self.width
        v = lo // width + 1
        state, mult, ones, top = self.state, self.mult, self.ones, self.top
        full = (state[v] + ones) >> top & ones
        fuller = (state[v - 1] + ones) >> top & ones if v > 1 else 0  # window 0 never fills
        if not (full or fuller):
            return list(range(lo, hi))  # no slot holds k, so every copy fits
        base = (v - 1) * width  # the entries of degree v start here
        return [
            i
            for i, copies in zip(range(lo, hi), self.masks[lo - base : hi - base])
            for x, y in (copies[mult[i]],)
            if not (x & full or y & fuller)
        ]


@lru_cache(maxsize=None)
def _cut_reads(m: int) -> tuple[tuple[tuple[int, int, int, int], ...], ...]:
    """Per color X_ab, in `Alphabet.colors` order, the cells (i, j) that read e(a, b).

    They are those with i <= a and b <= j, as ``(p, x, y, cut)`` in `_cells`
    order, (a, b) itself first, with cut the cell of B(j) = inside(j, m).
    """
    cells = _cells(m)
    _, cuts_b = _cuts(m)
    return tuple(
        tuple(
            (p, x, y, cuts_b[j - 1])
            for p, (i, j, x, y) in enumerate(cells)
            if i <= a and b <= j
        )
        for a, b in _color_positions(m)
    )


class _CutTracker:
    """The path inequalities by the cut lemma, with the width, push and pop of `_Tracker`.

    It keeps a slice and an inside table per degree 0..max_degree; degree 0
    stays empty.  A push at -v recomputes the cells that read the pushed
    color (see `_cut_reads`), records those that grew, each by one, and
    checks inside_v(i, c) + B_{v-1}(c) <= k at each grown cell (i, c); as
    inside(i, c) <= A(c), that decides A_v(c) + B_{v-1}(c) <= k.  It is exact
    only because the walk pushes by ascending |degree|, so no degree below
    -v holds a factor, and the state before each push is admissible, so
    only a grown cell can break a condition.  ``pop`` undoes the latest push.

    ``fitting(lo, hi)``, as in `_Tracker`, lists the entries in [lo, hi), all
    of one degree -v, that ``push`` would accept, from one reach table G
    filled in O(m^2) per call and read in O(1) per color.  A push of (a, b)
    raises inside(a, b) by exactly 1, and raises A(c) only along a path from
    (1, c) through (a, b), so for c >= b the new A(c) is the larger of the
    old one and inside(a, b) + 1 plus the best path weight from (1, c) to
    (a, b), (a, b) itself excluded.  G(a, b) is the largest, over c >= b, of
    B_{v-1}(c) plus that weight: the largest of B(b) if a = 1,
    G(a-1, b) + e(a-1, b) if a > 1, and G(a, b+1) + e(a, b+1) if b < m.
    So G runs along the edges of inside, reversed: it starts at B(c) on each
    (1, c), and each cell, taken by decreasing j - i, passes its G + e on to
    the two cells its inside reads.  From an admissible state, (a, b) fits
    exactly when inside(a, b) + 1 + G(a, b) <= k.  Like ``push``, this
    reads the cut lemma alone.
    """

    def __init__(self, m: int, k: int, max_degree: int):
        self.m, self.k = m, k
        self.reads = _cut_reads(m)
        self.width = len(self.reads)
        self.slices = [[0] * self.width for _ in range(max_degree + 1)]
        self.inside = [[0] * (self.width + 1) for _ in range(max_degree + 1)]
        self.grown: list[tuple[list[int], list[int], list[int]]] = []

    def push(self, i: int) -> bool:
        v, color = divmod(i, self.width)
        reads = self.reads[color]
        e, inside, above = self.slices[v + 1], self.inside[v + 1], self.inside[v]
        e[reads[0][0]] += 1
        grown = []
        ok = True
        for p, x, y, cut in reads:
            value = e[p] + (inside[x] if inside[x] > inside[y] else inside[y])
            if value > inside[p]:
                inside[p] = value
                grown.append(p)
                ok = ok and value + above[cut] <= self.k
        self.grown.append((e, inside, grown))
        return ok

    def pop(self, i: int) -> None:
        e, inside, grown = self.grown.pop()
        e[grown[0]] -= 1  # the pushed color's own cell always grows, first
        for p in grown:
            inside[p] -= 1

    def fitting(self, lo: int, hi: int) -> list[int]:
        width, reads = self.width, self.reads
        v = lo // width
        e, inside, above = self.slices[v + 1], self.inside[v + 1], self.inside[v]
        g = [0] * (width + 1)  # G per cell, and the zero cell that the diagonal reads
        for c in range(self.m):  # the colors (1, c+1) come first
            p, _, _, cut = reads[c][0]
            g[p] = above[cut]
        cells = _cells(self.m)
        for p in range(width - 1, -1, -1):  # by decreasing j - i
            _, _, x, y = cells[p]
            reach = g[p] + e[p]
            if reach > g[x]:
                g[x] = reach
            if reach > g[y]:
                g[y] = reach
        k, base = self.k, v * width
        return [i for i in range(lo, hi) if inside[p := reads[i - base][0][0]] + g[p] < k]


class _Pair:
    """A `_CutTracker` and a `_Tracker` of fs(m, k), pushed and popped together.

    It accepts what both accept, and records each key that only one
    accepts in ``disagreements`` as ``(key, by_cut)``, by_cut true when the
    path inequalities are the one; ``path`` holds the pushed entries.  The
    walk pops a refused push before the next, so neither tracker is pushed
    from a state it refuses.
    """

    def __init__(self, m: int, k: int, max_degree: int):
        self.cut, self.div = _CutTracker(m, k, max_degree), _Tracker(m, k, max_degree)
        self.width = self.cut.width
        self.path: list[int] = []
        self.disagreements: list[tuple[tuple[int, ...], bool]] = []

    def push(self, i: int) -> bool:
        self.path.append(i)
        cut, div = self.cut.push(i), self.div.push(i)
        if cut != div:
            self.disagreements.append((tuple(self.path), cut))
        return cut and div

    def pop(self, i: int) -> None:
        self.path.pop()
        self.cut.pop(i)
        self.div.pop(i)

    def fitting(self, lo: int, hi: int) -> list[int]:
        cut, div = self.cut.fitting(lo, hi), self.div.fitting(lo, hi)
        if cut == div:
            return cut
        for i in sorted({*cut} ^ {*div}):
            self.disagreements.append(((*self.path, i), i in cut))
        return [i for i in cut if i in div]


def _walk(max_degree: int, tracker, file, depth: int | None = None) -> None:
    """The depth-first walk, handing each group of keys to ``file(total, shape, prefix, ids)``.

    A key is the tuple of entries pushed, ascending by (|degree|, color
    position); its shape is its |degree| sequence.  A group is one node's
    keys of one |degree| v: ``prefix + (i,)`` for i in ``ids``, a list of
    ascending entries, of total |degree| ``total``.  A key of total t
    ending at |degree| v is a leaf when t + v > max_degree, as nothing can
    follow it; such groups are the ``fitting`` results, with no push.  The
    other entries are pushed and recursed into, so a node's group is handed
    over after the groups below it.  With `depth`, no entry deeper than
    -depth is pushed: at depth 1 the keys are the slices of degree -1 of at
    most max_degree factors.
    """
    last = max_degree if depth is None else depth
    width = tracker.width
    push, pop, fitting = tracker.push, tracker.pop, tracker.fitting

    def rec(v: int, lo: int, used: int, prefix: tuple[int, ...], shape: tuple[int, ...]) -> None:
        # entry lo is of |degree| v; each pass takes the entries of one degree,
        # which end at index v * width
        while v <= last and used + v + v <= max_degree:
            hi, total = v * width, used + v
            grown = shape + (v,)
            fits = []
            for idx in range(lo, hi):
                if push(idx):
                    fits.append(idx)
                    rec(v, idx, total, prefix + (idx,), grown)
                pop(idx)
            if fits:
                file(total, grown, prefix, fits)
            v, lo = v + 1, hi
        # every partition handed over from here on is a leaf
        while v <= last and used + v <= max_degree:
            hi = v * width
            fits = fitting(lo, hi)
            if fits:
                file(used + v, shape + (v,), prefix, fits)
            v, lo = v + 1, hi

    rec(1, 0, 0, (), ())
    # rec's closure holds rec: unbind it, so that the closures, and what file
    # holds, go at once rather than when the cyclic collector runs
    del rec


@lru_cache(maxsize=8)
def _enumerate_cached(m: int, k: int, max_degree: int, method: str):
    # imported here, not with the module, so that a point check never loads it
    from .listing import SliceGraph

    return SliceGraph(m, k, max_degree, method)


def _slice_graph(basis: BasisKind, max_degree: int, method: str | None = None):
    """The cached `listing.SliceGraph` that lists `basis` to |degree| max_degree by `method`.

    The arguments and errors are those of `enumerate_basis`.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    if method is None:
        method = "inequalities" if basis.kind == "fs" else "divisibility"
    if method not in ("divisibility", "inequalities"):
        raise ValueError(f"unknown enumeration method {method!r}")
    if method == "inequalities" and basis.kind != "fs":
        raise ValueError("the inequality engine applies to the fs kind only")
    return _enumerate_cached(_triangle_rank(basis), basis.level, max_degree, method)


def enumerate_keys(
    basis: BasisKind, max_degree: int, method: str | None = None
) -> tuple[tuple[tuple[int, int, int], ...], tuple[tuple[tuple[int, ...], ...], ...]]:
    """The enumeration of `enumerate_basis` as integer keys, without partition objects.

    Returns ``(entries, layers)``: ``entries[i]`` is the factor
    ``(a, b, v)``, color X_ab at degree -v, and each partition is the
    tuple of its entry indices in reverse canonical factor order.  The
    layers and their order are those of `enumerate_basis`; the arguments
    and errors are the same.  The slice graph is cached, and the keys are
    listed from it on every call.
    """
    graph = _slice_graph(basis, max_degree, method)
    return _entries(graph.m, max_degree), graph.keys()


def enumerate_basis(
    basis: BasisKind, max_degree: int, method: str | None = None
) -> tuple[tuple[ColoredPartition, ...], ...]:
    """All admissible partitions with total degree down to -max_degree.

    Returns one layer per absolute degree 0..max_degree, each sorted in
    the partition order.  `method` selects the admissibility engine:
    ``divisibility`` (either kind) or ``inequalities`` (fs only); the
    default is ``inequalities`` for fs and ``divisibility`` for std.  The
    slice graph is cached (see `enumerate_keys`); the objects are built on
    every call.
    """
    entries, layers = enumerate_keys(basis, max_degree, method)
    alphabet = basis.alphabet
    # the scheme's shared factors; a key reversed is in canonical order
    table = _color_table(alphabet).factors
    return tuple(
        tuple(
            _canonical(
                alphabet,
                tuple([table[a, b, -v] for a, b, v in map(entries.__getitem__, reversed(key))]),
            )
            for key in layer
        )
        for layer in layers
    )
