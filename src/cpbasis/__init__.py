"""Colored-partition combinatorics for symplectic affine Lie algebra bases.

The package covers: exact root-system data and Weyl dimensions
(:mod:`cpbasis.rootdata`); colored partitions with their well order
(:mod:`cpbasis.partitions`); closed-form leading-term families, one
term per index multiset and degree split, whose colors lie on diagonal
paths (:mod:`cpbasis.leading`), with a brute-force oracle
(:mod:`cpbasis.oracle`); the rank-doubling scheme identification
(:mod:`cpbasis.ident`); admissibility checking and basis enumeration
(:mod:`cpbasis.basis`); and basis kinds, graded series counted by a
transfer matrix over cut profiles, the Weyl-Kac character that checks
them, and partition-counting demos (:mod:`cpbasis.series`).

Every name in ``__all__`` is loaded from its submodule when it is first
read, so ``import cpbasis`` by itself imports no submodule, and a
command of :mod:`cpbasis.cli` loads only the modules it runs.
"""

# each exported name -> the submodule that defines it (see `__getattr__`)
_HOMES = {
    name: home
    for home, names in {
        "basis": (
            "admissible_by_divisibility",
            "admissible_by_inequalities",
            "enumerate_basis",
            "leading_terms",
        ),
        "ident": ("iota", "transport_partition"),
        "leading": (
            "fs_leading_terms",
            "leading_term_for_multiset",
            "std_leading_terms",
            "window_split",
        ),
        "oracle": (
            "AuditReport",
            "RelationSupport",
            "audit_windows",
            "brute_leading_term",
            "relation_support",
        ),
        "partitions": (
            "Alphabet",
            "Color",
            "ColoredPartition",
            "Factor",
            "compare_colors",
            "compare_factors",
            "compare_partitions",
            "divides",
            "full_scheme",
            "multiply",
            "unit",
            "upper_scheme",
        ),
        "rootdata": (
            "MinusculeData",
            "RootSystemSpec",
            "Weight",
            "branching_dimensions",
            "eps",
            "highest_root",
            "minuscule_gamma",
            "positive_roots",
            "verify_branching",
            "weight",
            "weyl_dim",
        ),
        "series": (
            "BasisKind",
            "QSeries",
            "character_oracle",
            "graded_series",
            "rr_counts",
        ),
    }.items()
    for name in names
}

__all__ = sorted(_HOMES)

__version__ = "0.1.0"


def __getattr__(name: str):
    """Import an exported name from its home submodule on first use (PEP 562).

    The value is stored in this module's globals, so later reads of the
    name do not come back here.
    """
    try:
        home = _HOMES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{home}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
