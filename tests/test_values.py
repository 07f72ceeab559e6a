"""The frozen slot classes behave as the frozen dataclasses they replace.

Each value class is compared with a test-local dataclass twin that has
the same name and fields: ``repr``, equality and hashing must agree with
the twin's, and construction, validation and immutability must match
what the dataclass gave.
"""

from __future__ import annotations

import copy
import dataclasses
import importlib
import pickle
import pkgutil
import re
from fractions import Fraction
from functools import cache

import pytest

import cpbasis
from cpbasis._frozen import Frozen
from cpbasis.basis import admissible_by_divisibility
from cpbasis.series import BasisKind, QSeries
from cpbasis.oracle import AuditReport, RelationSupport
from cpbasis.partitions import (
    Alphabet,
    Color,
    ColoredPartition,
    Factor,
    full_scheme,
    upper_scheme,
)
from cpbasis.rootdata import MinusculeData, RootSystemSpec, Weight, minuscule_gamma

B2 = full_scheme(2)
UP2 = upper_scheme(2)
X11 = Color(UP2, 1, 1)
X12 = Color(UP2, 1, 2)
PI = ColoredPartition.from_pairs(UP2, ((1, 2), -1), ((1, 1), -2))

# per class: instances built positionally, two of them equal but distinct
SAMPLES = {
    Alphabet: [("B", 2), ("B", 2), ("B1", 2), ("B1", 3)],
    Color: [(B2, 1, 3), (B2, 1, 3), (UP2, 1, 2), (full_scheme(1), 2, 2)],
    Factor: [(X11, -1), (Color(UP2, 1, 1), -1), (X11, -2), (X12, -1)],
    ColoredPartition: [
        (UP2, (Factor(X11, -2), Factor(X12, -1))),
        (UP2, PI.factors),
        (UP2, ()),
        (B2, ()),
    ],
    BasisKind: [("fs", 2, 1), ("fs", 2, 1), ("std", 2, 1), ("fs", 2, 3)],
    QSeries: [((1, 1, 2),), ((1, 1, 2),), ((1,),), ((1, 1, 3),)],
    RootSystemSpec: [("C", 2), ("C", 2), ("A", 2), ("C", 3)],
    Weight: [
        ((Fraction(1, 2), 1),),
        ((Fraction(1, 2), Fraction(1)),),
        ((0, 0),),
        ((1, 0, 0),),
    ],
    MinusculeData: [
        (data.omega, data.gamma)
        for data in (minuscule_gamma(RootSystemSpec("C", rank)) for rank in (2, 2, 1))
    ],
    RelationSupport: [
        ((2, 2), -4, 1, 2, frozenset({PI})),
        ((2, 2), -4, 1, 2, frozenset({PI})),
        ((2, 2), -4, 1, 2, frozenset()),
        ((4, 0), -4, 1, 2, frozenset({PI})),
    ],
    AuditReport: [
        (2, 1, 3, ()),
        (2, 1, 3, ()),
        (2, 1, 3, ({"window": 1},)),
        (3, 1, 3, ()),
    ],
}
CLASSES = list(SAMPLES)


def test_samples_cover_every_value_class():
    # a value class missing here would skip every comparison with its twin
    for module in pkgutil.iter_modules(cpbasis.__path__):
        importlib.import_module(f"cpbasis.{module.name}")
    found, todo = set(), [Frozen]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if sub.__module__.startswith("cpbasis."):
                found.add(sub)
    assert found == set(SAMPLES)


def fields_of(cls):
    """The fields of `cls`: its slots without a leading ``_``, which are caches."""
    return tuple(name for name in cls.__slots__ if not name.startswith("_"))


@cache
def twin_of(cls):
    """A frozen dataclass with the name and fields of `cls`."""
    fields = [
        (name, object, dataclasses.field(repr=(cls, name) != (RelationSupport, "partitions")))
        for name in fields_of(cls)
    ]
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True)


def twin(value):
    return twin_of(type(value))(*(getattr(value, name) for name in fields_of(type(value))))


def outcome(f, *args):
    """What `f(*args)` returns, or the type of exception it raises."""
    try:
        return f(*args)
    except Exception as exc:
        return type(exc)


def instances(cls):
    return [cls(*args) for args in SAMPLES[cls]]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
class TestAgainstDataclassTwin:
    def test_repr(self, cls):
        for value in instances(cls):
            assert repr(value) == repr(twin(value))

    def test_equality_and_hash(self, cls):
        values = instances(cls)
        assert values[0] is not values[1] and values[0] == values[1]
        for x in values:
            assert outcome(hash, x) == outcome(hash, twin(x))
            for y in values:
                assert (x == y) == (twin(x) == twin(y))
                assert (x != y) == (twin(x) != twin(y))

    def test_equal_only_to_its_own_class(self, cls):
        for value in instances(cls):
            fields = tuple(getattr(value, name) for name in fields_of(cls))
            assert value != fields and fields != value
            assert value != twin(value) and twin(value) != value
            assert value != object()
            for other in CLASSES:
                if other is not cls:
                    assert value != instances(other)[0]

    def test_positional_and_keyword_construction(self, cls):
        for args in SAMPLES[cls]:
            keywords = dict(zip(cls.__slots__, args))
            assert cls(*args) == cls(**keywords)
            with pytest.raises(TypeError):
                cls(*args, None)

    def test_frozen(self, cls):
        value = instances(cls)[0]
        for name in (*cls.__slots__, "extra"):
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(value, name, None)
            with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                delattr(value, name)
        assert value == instances(cls)[0]

    def test_no_instance_dict(self, cls):
        assert not hasattr(instances(cls)[0], "__dict__")

    def test_copy_and_pickle_round_trip(self, cls):
        for value in instances(cls):
            clones = copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))
            for clone in clones:
                assert type(clone) is cls and clone == value


def test_partition_cache_is_not_a_field():
    # a point check fills the cache slot; the filled partition stays equal to
    # a fresh one in every way a caller sees, and its copies start empty
    fs = BasisKind("fs", 2, 1)
    filled, fresh = (ColoredPartition.from_pairs(UP2, ((1, 2), -1), ((1, 1), -2)) for _ in "ab")
    admissible_by_divisibility(filled, fs)
    assert filled._code is not None and fresh._code is None
    assert filled == fresh and fresh == filled and hash(filled) == hash(fresh)
    assert repr(filled) == repr(fresh) == repr(twin(fresh))
    assert "_code" not in repr(filled) and repr(filled._code) not in repr(filled)
    for clone in copy.copy(filled), copy.deepcopy(filled), pickle.loads(pickle.dumps(filled)):
        assert type(clone) is ColoredPartition and clone == fresh
        assert hash(clone) == hash(fresh) and repr(clone) == repr(fresh)
        assert clone._code is None
    assert pickle.dumps(filled) == pickle.dumps(fresh)


@pytest.mark.parametrize("rank", [1, 2, 3, 5])
def test_color_carries_its_position(rank):
    # set at construction from (a, b) and the index bound, so B(l) and
    # B1(2l) give one color pair one position; not a field, and kept by copies
    for alphabet in full_scheme(rank), upper_scheme(2 * rank):
        colors = alphabet.colors()
        assert [c._position for c in colors] == list(range(len(colors)))
        for c in colors:
            built = Color(alphabet, c.a, c.b)
            assert built is not c and built._position == c._position
            assert repr(built) == repr(twin(built)) and "_position" not in repr(built)
            for clone in copy.copy(built), copy.deepcopy(built), pickle.loads(pickle.dumps(built)):
                assert clone == c and clone._position == c._position
    full, upper = full_scheme(rank).colors(), upper_scheme(2 * rank).colors()
    assert [(c.pair, c._position) for c in full] == [(c.pair, c._position) for c in upper]


def test_partition_default_and_canonical_order():
    assert ColoredPartition(UP2) == ColoredPartition(UP2, ()) == ColoredPartition(alphabet=UP2)
    assert ColoredPartition(UP2, (Factor(X12, -1), Factor(X11, -2))).factors == PI.factors


def test_series_and_weight_normalise_their_fields():
    assert QSeries([1, True]).coeffs == (1, 1)
    assert Weight([1, "1/2"]).coords == (Fraction(1), Fraction(1, 2))


@pytest.mark.parametrize(
    "cls, args, message",
    [
        (Alphabet, ("C", 1), "unknown scheme 'C'"),
        (Alphabet, ("B", 0), "rank must be a positive integer"),
        (Color, (UP2, 2, 1), "(2,1) is not a valid color of B1(C2)"),
        (Color, (UP2, 1, 3), "(1,3) is not a valid color of B1(C2)"),
        (
            ColoredPartition,
            (B2, (Factor(X11, -1),)),
            "factor 11(-1) does not belong to scheme B(C2)",
        ),
        (BasisKind, ("sl", 1, 1), "unknown basis kind 'sl'"),
        (BasisKind, ("fs", 0, 1), "rank and level must be positive"),
        (BasisKind, ("std", 1, 0), "rank and level must be positive"),
        (QSeries, ((),), "a series needs at least the constant coefficient"),
        (RootSystemSpec, ("E", 6), "unknown family 'E'"),
        (RootSystemSpec, ("D", 2), "rank 2 too small for family D (minimum 3)"),
    ],
)
def test_validation_messages(cls, args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        cls(*args)


@pytest.mark.parametrize(
    "cls, args",
    [
        (Alphabet, ("B1", 2.5)),
        (Alphabet, ("B1", 2.0)),
        (Color, (UP2, 1.0, 2)),
        (Color, (UP2, 1, 2.0)),
        (Factor, (X12, -1.5)),
        (BasisKind, ("fs", 2.5, 1)),
        (BasisKind, ("fs", 2, 1.0)),
        (RootSystemSpec, ("C", 2.0)),
    ],
)
def test_integer_fields_refuse_floats(cls, args):
    with pytest.raises(TypeError, match="integer"):
        cls(*args)


def test_integer_fields_store_exact_integers():
    assert type(Alphabet("B", True).rank) is int
    assert type(Color(UP2, True, 2).a) is int
    assert type(Factor(X11, False).degree) is int
    assert type(BasisKind("fs", True, True).level) is int
    assert type(RootSystemSpec("C", True).rank) is int


@pytest.mark.parametrize("value", [QSeries((1, 2)), PI])
@pytest.mark.parametrize("other", [2, 2.0, None])
def test_product_with_a_foreign_operand_is_a_type_error(value, other):
    with pytest.raises(TypeError, match="unsupported operand"):
        value * other
    with pytest.raises(TypeError):
        other * value


def test_partition_multiply_checks_its_operand():
    with pytest.raises(TypeError, match="^cannot multiply a partition by int$"):
        PI.multiply(2)
    with pytest.raises(ValueError, match="^cannot multiply partitions over different schemes$"):
        PI.multiply(ColoredPartition(B2))
    with pytest.raises(ValueError, match="^cannot multiply partitions over different schemes$"):
        PI * ColoredPartition(B2)
    assert PI * ColoredPartition(UP2) == PI.multiply(ColoredPartition(UP2)) == PI
    assert QSeries((1, 2)) * QSeries((1, 1, 5)) == QSeries((1, 3))
