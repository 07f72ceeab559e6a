"""Acceptance criteria: exact combinatorial checks, one printed line each.

All comparisons are tolerance-zero (sets, counts and exact integers).
Run with ``pytest tests/test_acceptance.py -v -s`` to see the summary
lines as they pass; the whole module took 30 s on a 2-core Xeon host
with CPython 3.11, with the rank-4 level-2 enumerations dominating.
"""

from __future__ import annotations

from math import comb

import pytest

from conftest import golden_rank2_families
from test_basis import theta_route_character
from cpbasis.basis import enumerate_basis, enumerate_keys
from cpbasis.ident import transport_partition
from cpbasis.leading import fs_leading_terms, window_split
from cpbasis.oracle import audit_windows
from cpbasis.rootdata import (
    RootSystemSpec,
    fundamental_weight_one,
    highest_root,
    verify_branching,
    weyl_dim,
)
from cpbasis.series import BasisKind, graded_series, rr_counts


def report(name: str, ok: bool, detail: str) -> None:
    print(f"{name}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{name}: {detail}"


def _keys(partitions) -> list:
    return sorted(
        tuple((f.degree, f.color.a, f.color.b) for f in p.factors)
        for p in partitions
    )


def test_ac1_coincidence_of_admissible_sets():
    """AC-1: transport is a degree-preserving bijection and the series agree."""
    max_degree = 10
    checked = []
    for ell in (1, 2):
        for k in (1, 2):
            fs_layers = enumerate_basis(BasisKind("fs", 2 * ell, k), max_degree)
            std_layers = enumerate_basis(BasisKind("std", ell, k), max_degree)
            for m in range(max_degree + 1):
                transported = [transport_partition(p, ell) for p in fs_layers[m]]
                assert all(q.degree == -m for q in transported)
                t_keys = _keys(transported)
                assert len(set(t_keys)) == len(fs_layers[m])  # injective
                assert t_keys == _keys(std_layers[m])  # onto the std layer
            fs_coeffs = tuple(len(layer) for layer in fs_layers)
            std_coeffs = tuple(len(layer) for layer in std_layers)
            assert fs_coeffs == std_coeffs
            checked.append(f"l={ell},k={k}:{sum(std_coeffs)} elements")
    report("AC-1", True, "bijection and series equality; " + "; ".join(checked))


def test_ac2_rank_two_golden_families():
    """AC-2: the generated rank-2 sets equal the transcribed four families."""
    pairs = 0
    for k in (1, 2, 3):
        for d in (1, 2, 3, 4, 5):
            assert fs_leading_terms(2, k, d) == golden_rank2_families(k, d)
            pairs += 1
    report("AC-2", True, f"exact set equality for {pairs} (level, window) pairs")


def test_ac3_oracle_agreement():
    """AC-3: brute-force minima coincide with the closed-form generators."""
    for m in (1, 2, 3):
        for k in (1, 2):
            rep = audit_windows(m, k, 3)
            assert rep.ok, rep.mismatches[:3]
    report("AC-3", True, "zero mismatches for rank <= 3, level <= 2, windows <= 3")


def test_ac4_checker_equivalence():
    """AC-4: divisibility- and inequality-based admissibility agree everywhere.

    Both admissibility notions are closed under divisors, so two pruned
    enumerations of the same degree range return exactly the partitions
    each checker accepts; equality of the enumerated sets is therefore
    pointwise agreement on every strictly-negative partition in range.
    """
    max_degree = 10
    totals = []
    for rank in (1, 2, 3, 4):
        for k in (1, 2):
            basis = BasisKind("fs", rank, k)
            entries_d, by_div = enumerate_keys(basis, max_degree, "divisibility")
            entries_i, by_ineq = enumerate_keys(basis, max_degree, "inequalities")
            assert entries_d == entries_i
            assert len(by_div) == len(by_ineq) == max_degree + 1
            for layer_d, layer_i in zip(by_div, by_ineq):
                assert sorted(layer_d) == sorted(layer_i)
            totals.append(sum(len(layer) for layer in by_div))
    report(
        "AC-4",
        True,
        f"zero disagreements, rank <= 4, level <= 2, degree <= {max_degree} "
        f"({sum(totals)} admissible partitions compared)",
    )


def test_ac5_proven_case_character():
    """AC-5: rank-1 level-1 counts and enumeration match the independent character."""
    n = 15
    counted = graded_series(BasisKind("std", 1, 1), n)
    oracle = theta_route_character(n)
    assert counted.coeffs == oracle.coeffs
    assert counted.coeffs[:3] == (1, 3, 4)
    layers = enumerate_basis(BasisKind("std", 1, 1), n)
    assert tuple(len(layer) for layer in layers) == oracle.coeffs
    report("AC-5", True, f"coefficients match through degree {n}: {oracle.coeffs[:6]}...")


def test_ac6_branching_dimensions():
    """AC-6: the dimension identity holds on the full grid."""
    for ell in range(1, 7):
        for m in range(1, 7):
            assert verify_branching(ell, m)
    spec = RootSystemSpec("C", 2)
    assert weyl_dim(spec, highest_root(spec)) == 10
    a_spec = RootSystemSpec("A", 3)
    assert weyl_dim(a_spec, 2 * fundamental_weight_one(a_spec)) == 10
    report("AC-6", True, "all 36 (ell, m) pairs with exact dimensions (e.g. 10 = 10)")


def test_ac7_rogers_ramanujan():
    """AC-7: congruence and gap counts agree for every m <= 200."""
    rows = rr_counts(200)
    assert all(cong == gap for _, cong, gap in rows)
    assert rows[3] == (4, 2, 2)
    report("AC-7", True, f"equality for all m <= 200 (m=4 gives {rows[3][1]} = {rows[3][2]})")


def test_ac8_counting_law():
    """AC-8: each (window, split) carries one leading term per index multiset."""
    cases = 0
    for m in range(1, 6):
        for k in range(1, 4):
            expected = comb(2 * (k + 1) + m - 1, m - 1)
            for d in (1, 2):
                counts: dict[int, int] = {}
                for t in fs_leading_terms(m, k, d):
                    s = window_split(t, d)
                    counts[s] = counts.get(s, 0) + 1
                assert set(counts) == set(range(k + 2))
                assert all(c == expected for c in counts.values())
                cases += 1
    report("AC-8", True, f"binomial counts verified for {cases} (rank, level, window) cases")
