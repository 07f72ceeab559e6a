"""Point-check samples, and the library script that checks them.

The benchmark draws the samples in its own process with :func:`draw`
and writes them to a file; this script then runs in a fresh interpreter
with the checkout's ``src`` on ``PYTHONPATH``::

    python3 benchmarks/spotcheck.py '{"samples": "FILE", "rank": 4, "level": 2,
                                      "audits": [[2, 3, 3]], "branching": [6, 6]}'

Each sample lies over the upper triangle of rank ``rank`` (the fs kind)
and is decided three ways: by the path-sum inequalities, by leading-term
divisibility, and by divisibility after transport to the standard module
of rank ``rank / 2``.  ``audits`` lists ``(rank, level, windows)``
triples for :func:`cpbasis.oracle.audit_windows`; ``branching`` is an
``(ell, m)`` grid for :func:`cpbasis.rootdata.verify_branching`.  The
result is one JSON object on stdout.  Library functions are looked up on
their modules at call time, so a tracer that patches those attributes
sees every call.
"""

from __future__ import annotations

import json
import math
import random
import sys
import time

from cpbasis import basis, ident, oracle, partitions, rootdata

# Share of admissible samples.  Fixing it keeps the latency percentiles from
# following the luck of the draw; at one third the median check lies inside
# the early-exit (inadmissible) cluster rather than in the gap between the two.
ADMISSIBLE_SHARE = 1 / 3


def draw(rank: int, level: int, degrees, per_degree: int, seed: int):
    """Seeded fs samples: `per_degree` for each degree, a fixed share admissible.

    Candidates have a number of parts cycling through
    round(sqrt(level*n)/2) .. round(2*sqrt(level*n)), a uniform
    composition of n into that many parts and uniform colors; each is
    classified by the path-sum inequalities and kept while its outcome's
    quota is open.  Returns ``(samples, verdicts)`` with each sample a
    list of ``[a, b, degree]`` factors.
    """
    rng = random.Random(seed)
    alphabet = partitions.upper_scheme(rank)
    fs = basis.BasisKind("fs", rank, level)
    colors = [c.pair for c in alphabet.colors()]
    samples, verdicts = [], []
    for n in degrees:
        scale = math.sqrt(level * n)
        least = max(1, round(scale / 2))
        most = max(least, min(n, round(2 * scale)))
        admissible = round(per_degree * ADMISSIBLE_SHARE)
        quota = {True: admissible, False: per_degree - admissible}
        for i in range(1000 * per_degree):
            if not any(quota.values()):
                break
            cuts = sorted(rng.sample(range(1, n), least + i % (most - least + 1) - 1))
            factors = [
                [*rng.choice(colors), a - b] for a, b in zip([0] + cuts, cuts + [n])
            ]
            ok = basis.admissible_by_inequalities(decode(alphabet, factors), fs)
            if quota[ok]:
                quota[ok] -= 1
                samples.append(factors)
                verdicts.append(ok)
        else:
            raise RuntimeError(f"cannot fill the sample quotas at degree {n}")
    return samples, verdicts


def decode(alphabet, factors):
    return partitions.ColoredPartition.from_pairs(
        alphabet, *(((a, b), degree) for a, b, degree in factors)
    )


def point_checks(samples, rank: int, level: int) -> dict:
    """Decide every sample three ways; one sample so decided is one check.

    Each sample gives a row (degree, factors after transport, admissible,
    the three routes agree) and a latency: the CPU time of this process
    spent on its three routes, which does not count time spent waiting
    for a processor.
    """
    ell = rank // 2
    fs = basis.BasisKind("fs", rank, level)
    std = basis.BasisKind("std", ell, level)
    clock = time.process_time
    latencies = []
    rows = []
    for p in samples:
        start = clock()
        by_paths = basis.admissible_by_inequalities(p, fs)
        by_terms = basis.admissible_by_divisibility(p, fs)
        q = ident.transport_partition(p, ell)
        by_std = basis.admissible_by_divisibility(q, std)
        latencies.append(clock() - start)
        # the transported partition in the CLI's CSV form, for listing membership
        factors = " ".join(str(f) for f in q.factors)
        rows.append([q.degree, factors, by_paths, by_paths == by_terms == by_std])
    return {"latencies_s": latencies, "samples": rows}


def main(argv) -> int:
    spec = json.loads(argv[0])
    rank, level = spec["rank"], spec["level"]
    if rank < 2 or rank % 2:
        raise ValueError("the transport route needs an even fs rank")
    result = {
        "audits": [
            {"rank": m, "level": k, "windows": d,
             "mismatches": len(oracle.audit_windows(m, k, d).mismatches)}
            for m, k, d in spec.get("audits", ())
        ]
    }
    with open(spec["samples"]) as fh:
        alphabet = partitions.upper_scheme(rank)
        samples = [decode(alphabet, factors) for factors in json.load(fh)]
    result.update(point_checks(samples, rank, level))
    ells, ms = spec.get("branching", (0, 0))
    result["branching"] = [
        [ell, m, rootdata.verify_branching(ell, m)]
        for ell in range(1, ells + 1)
        for m in range(1, ms + 1)
    ]
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
