"""Colored-partition combinatorics for symplectic affine Lie algebra bases.

The package covers: exact root-system data and Weyl dimensions
(:mod:`cpbasis.rootdata`); colored partitions with their well order
(:mod:`cpbasis.partitions`); closed-form leading-term families, one
term per index multiset and degree split, whose colors lie on diagonal
paths (:mod:`cpbasis.leading`), with a brute-force oracle
(:mod:`cpbasis.oracle`); the rank-doubling scheme identification
(:mod:`cpbasis.ident`); and admissibility checking, basis enumeration,
graded series counted by a transfer matrix over cut profiles, the
Weyl-Kac character that checks them, and partition-counting demos
(:mod:`cpbasis.basis`).
"""

from .basis import (
    BasisKind,
    QSeries,
    admissible_by_divisibility,
    admissible_by_inequalities,
    character_oracle,
    enumerate_basis,
    graded_series,
    leading_terms,
    rr_counts,
)
from .ident import iota, transport_partition
from .leading import (
    fs_leading_terms,
    leading_term_for_multiset,
    std_leading_terms,
    window_split,
)
from .oracle import (
    AuditReport,
    RelationSupport,
    audit_windows,
    brute_leading_term,
    relation_support,
)
from .partitions import (
    Alphabet,
    Color,
    ColoredPartition,
    Factor,
    compare_colors,
    compare_factors,
    compare_partitions,
    divides,
    full_scheme,
    multiply,
    unit,
    upper_scheme,
)
from .rootdata import (
    MinusculeData,
    RootSystemSpec,
    Weight,
    branching_dimensions,
    eps,
    highest_root,
    minuscule_gamma,
    positive_roots,
    verify_branching,
    weight,
    weyl_dim,
)

__all__ = [
    "Alphabet",
    "AuditReport",
    "BasisKind",
    "Color",
    "ColoredPartition",
    "Factor",
    "MinusculeData",
    "QSeries",
    "RelationSupport",
    "RootSystemSpec",
    "Weight",
    "admissible_by_divisibility",
    "admissible_by_inequalities",
    "audit_windows",
    "branching_dimensions",
    "brute_leading_term",
    "character_oracle",
    "compare_colors",
    "compare_factors",
    "compare_partitions",
    "divides",
    "enumerate_basis",
    "eps",
    "fs_leading_terms",
    "full_scheme",
    "graded_series",
    "highest_root",
    "iota",
    "leading_term_for_multiset",
    "leading_terms",
    "minuscule_gamma",
    "multiply",
    "positive_roots",
    "relation_support",
    "rr_counts",
    "std_leading_terms",
    "transport_partition",
    "unit",
    "upper_scheme",
    "verify_branching",
    "weight",
    "weyl_dim",
    "window_split",
]

__version__ = "0.1.0"
