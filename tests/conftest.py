"""Shared helpers: brute-force generation and golden transcriptions."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from cpbasis.partitions import (
    Alphabet,
    Color,
    ColoredPartition,
    Factor,
    full_scheme,
    upper_scheme,
)


ROOT = Path(__file__).resolve().parents[1]


def run_python(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter on `args` with this checkout's sources on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


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
