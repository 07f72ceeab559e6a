"""Shared helpers: brute-force generation, the diagonal-path reference and golden transcriptions."""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Iterator

from cpbasis.partitions import (
    Alphabet,
    Color,
    ColoredPartition,
    Factor,
    full_scheme,
    upper_scheme,
)


ROOT = Path(__file__).resolve().parents[1]


def source_env() -> dict[str, str]:
    """This process's environment with this checkout's sources first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return env


def run_python(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter on `args` with this checkout's sources on the path."""
    return subprocess.run(
        [sys.executable, *args], env=source_env(), capture_output=True, text=True, timeout=120
    )


# run by a fresh interpreter: argv[1] takes the stdout of the command argv[2:]
_PEAK_OF_CHILD = """
import os, subprocess, sys
with open(sys.argv[1], "wb") as out:
    proc = subprocess.Popen(sys.argv[2:], stdout=out)
    _, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def run_python_peak(out: Path, *args: str) -> tuple[int, int]:
    """Run `args` as `run_python` does, stdout to the file `out`: its exit code and peak RSS in KiB.

    The peak is the child's own ``ru_maxrss`` from ``os.wait4``
    (``RUSAGE_CHILDREN`` would give the largest child reaped so far).  Linux
    carries the high-water mark of the image a process replaces at exec into
    its ``ru_maxrss``, so a child forked from this large test process would
    start at its size; the child is started from a small interpreter instead.
    """
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_OF_CHILD, str(out), sys.executable, *args],
        env=source_env(), capture_output=True, text=True, timeout=120, check=True,
    )
    code, peak = proc.stdout.split()
    return int(code), int(peak)


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
def path_leading_terms(m: int, k: int, d: int) -> frozenset[ColoredPartition]:
    """All leading terms of the level-k rank-m relations on window d, path by path.

    The reference for `cpbasis.leading.fs_leading_terms`: one partition
    per diagonal path and positive exponent assignment summing to k+1;
    upper-block pairs sit at degree -d-1, lower-block pairs at -d.
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


def iota_inverse(color: Color, ell: int) -> tuple[int, int]:
    """Unique preimage of a full-scheme color under `cpbasis.ident.iota`."""
    if color.alphabet != full_scheme(ell):
        raise ValueError(f"{color} does not belong to {full_scheme(ell)}")
    return (color.a, color.b)


def transport_partition_inverse(p: ColoredPartition, ell: int) -> ColoredPartition:
    """Pull a full-scheme rank-ell partition back to the rank-2*ell upper triangle."""
    if p.alphabet != full_scheme(ell):
        raise ValueError(f"expected a partition over {full_scheme(ell)}, got {p.alphabet}")
    target = upper_scheme(2 * ell)
    return ColoredPartition(
        target,
        tuple(Factor(Color(target, f.color.a, f.color.b), f.degree) for f in p.factors),
    )


def gen_partitions(alphabet: Alphabet, max_total: int):
    """Every strictly-negative-degree partition with |degree| <= max_total.

    Straightforward recursion over canonical factor multisets; used as an
    independent reference against the enumeration engines.
    """
    factors = [
        Factor(Color(alphabet, c.a, c.b), -v)
        for v in range(1, max_total + 1)
        for c in alphabet.colors()
    ]
    out: list[ColoredPartition] = []
    stack: list[Factor] = []

    def rec(start: int, used: int) -> None:
        out.append(ColoredPartition(alphabet, tuple(stack)))
        for idx in range(start, len(factors)):
            f = factors[idx]
            if used - f.degree > max_total:
                continue
            stack.append(f)
            rec(idx, used - f.degree)
            stack.pop()

    rec(0, 0)
    return out


def golden_rank2_families(k: int, d: int) -> frozenset:
    """The four rank-2 leading-term families, transcribed exponent by exponent.

    Vertical and horizontal diagonal paths through the two corners of the
    rank-2 triangle; exponents are nonnegative and sum to k+1.  Families:

        X11(-d-1)^e1 X12(-d)^e2 X11(-d)^e3
        X11(-d-1)^e1 X22(-d)^e2 X12(-d)^e3
        X12(-d-1)^e1 X11(-d-1)^e2 X22(-d)^e3
        X22(-d-1)^e1 X12(-d-1)^e2 X22(-d)^e3
    """
    shapes = (
        (((1, 1), -d - 1), ((1, 2), -d), ((1, 1), -d)),
        (((1, 1), -d - 1), ((2, 2), -d), ((1, 2), -d)),
        (((1, 2), -d - 1), ((1, 1), -d - 1), ((2, 2), -d)),
        (((2, 2), -d - 1), ((1, 2), -d - 1), ((2, 2), -d)),
    )
    terms = set()
    for e1 in range(k + 2):
        for e2 in range(k + 2 - e1):
            e3 = k + 1 - e1 - e2
            for shape in shapes:
                facs = []
                for slot, mult in zip(shape, (e1, e2, e3)):
                    facs.extend([slot] * mult)
                terms.add(ColoredPartition.from_pairs(upper_scheme(2), *facs))
    return frozenset(terms)
