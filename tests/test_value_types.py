"""The value types are immutable tuples of their fields.

Equality, hashing and order are those of the field tuple, so every sorted
output and every dict and set order is fixed by the field values.  The
CLI must not pay for importing ``dataclasses`` (and the ``inspect`` it
imports) on every call.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from homquiver.bott import SINGULAR, BottResult
from homquiver.bundle import AmPath, GabrielDecomposition
from homquiver.cohomology import GModuleDecomposition, IsotypicEntry, Pairing
from homquiver.linalg import Matrix
from homquiver.quiver import Arrow, QuiverWindow, RelationInstance
from homquiver.rootsystem import CartanType, Root

from .test_bundle import run_optimized

R1 = Root((0, 1), (-1, 2))
R2 = Root((1, 0), (2, -1))

# (type, field names in order, two values whose field tuples differ)
VALUES = [
    (Root, ("simple", "fund"), R1, R2),
    (CartanType, ("series", "rank"), CartanType("A", 2), CartanType("D", 4)),
    (BottResult, ("degree", "weight", "dimension"),
     BottResult(0, (0, 0), 1), BottResult(1, (0, 0), 3)),
    (Arrow, ("source", "root", "target", "kind"),
     Arrow((1, 1), R1, (2, -1), "generating"), Arrow((1, 1), R2, (-1, 2), "generating")),
    (QuiverWindow, ("vertices", "arrows"), QuiverWindow(((0, 0),), ()),
     QuiverWindow(((0, 0), (1, 1)), ())),
    (RelationInstance, ("source", "beta", "gamma", "coefficient"),
     RelationInstance((1, 1), R1, R2, -1), RelationInstance((1, 1), R2, R1, 1)),
    (AmPath, ("direction", "vertices"), AmPath(R1, ((1, 1), (2, -1))),
     AmPath(R2, ((1, 1), (-1, 2)))),
    (GabrielDecomposition, ("path", "intervals"),
     GabrielDecomposition(AmPath(R1, ((1, 1),)), (((0, 0), 1),)),
     GabrielDecomposition(AmPath(R1, ((1, 1),)), (((0, 0), 2),))),
    (Pairing, ("source", "index", "k", "target"), Pairing((0,), 1, 1, (-2,)),
     Pairing((1,), 1, 2, (-3,))),
    (IsotypicEntry, ("weight", "multiplicity", "dimension"), IsotypicEntry((0, 0), 1, 1),
     IsotypicEntry((1, 1), 2, 8)),
    (GModuleDecomposition, ("entries", "notes"), GModuleDecomposition(()),
     GModuleDecomposition((IsotypicEntry((0, 0), 1, 1),), ("note",))),
]


def fields(value):
    return tuple(getattr(value, name) for name in type(value)._fields)


@pytest.mark.parametrize("cls, names, a, b", VALUES, ids=[v[0].__name__ for v in VALUES])
def test_value_type_is_its_field_tuple(cls, names, a, b):
    assert cls._fields == names
    for value in (a, b):
        assert type(value) is cls
        with pytest.raises(AttributeError):
            setattr(value, names[0], getattr(value, names[0]))
        with pytest.raises(AttributeError):
            value.extra = 1
        assert hash(value) == hash(fields(value))
    twin = cls(*fields(a))
    assert twin == a and hash(twin) == hash(a) and not twin != a
    assert a != b and fields(a) != fields(b)
    assert (a < b) == (fields(a) < fields(b)) and (a > b) == (fields(a) > fields(b))
    lo, hi = sorted([a, b])
    assert fields(lo) < fields(hi)


def test_matrix_is_its_canonical_field_tuple():
    # Matrix(*fields) is not its constructor, so VALUES cannot hold it.
    m = Matrix([[2, 4], [Fraction(1, 3), 0]])
    assert Matrix._fields == ("rows", "cols", "num", "den")
    assert fields(m) == (2, 2, ((6, 12), (1, 0)), 3)
    with pytest.raises(AttributeError):
        m.den = 1
    with pytest.raises(AttributeError):
        m.extra = 1
    assert hash(m) == hash(fields(m)) and Matrix._make(fields(m)) == m
    # a field edit goes through the constructor, so it stays canonical
    assert m._replace(den=2 * m.den) == Matrix([[1, 2], [Fraction(1, 6), 0]])
    assert Matrix([[2, 4]])._replace(den=2) == Matrix([[1, 2]])
    with pytest.raises(ValueError):
        m._replace(rows=3)
    with pytest.raises(TypeError):
        m * 2
    with pytest.raises(TypeError):
        2 * m
    with pytest.raises(TypeError):
        (1,) + m


@pytest.mark.parametrize("m", [
    Matrix([[1, 2]]),
    Matrix([[Fraction(1, 3), -2], [0, Fraction(5, 6)]]),
    Matrix([], 0, 3),
])
def test_matrix_copies_and_pickles(m):
    twins = [copy.copy(m), copy.deepcopy(m)] + [
        pickle.loads(pickle.dumps(m, protocol))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    ]
    for twin in twins:
        assert type(twin) is Matrix and twin == m and fields(twin) == fields(m)


def test_value_type_repr_names_its_fields():
    assert repr(Root((1, 0), (2, -1))) == "Root(simple=(1, 0), fund=(2, -1))"
    assert repr(CartanType("A", 2)) == "CartanType(series='A', rank=2)"
    assert str(CartanType("E", 6)) == "E6"
    assert SINGULAR == BottResult(None, None, None) and SINGULAR.is_singular


BAD_CARTAN_TYPES = {
    "A0": lambda: CartanType("A", 0),
    "F4": lambda: CartanType("F", 4),
    "E9": lambda: CartanType("E", 9),
    "keywords": lambda: CartanType(series="D", rank=3),
    "parse": lambda: CartanType.parse("A0"),
    "replace": lambda: CartanType("A", 2)._replace(rank=0),
    "make": lambda: CartanType._make(("F", 4)),
}


@pytest.mark.parametrize("case", BAD_CARTAN_TYPES)
def test_cartan_type_rejects_bad_rank_and_series(case):
    with pytest.raises(ValueError):
        BAD_CARTAN_TYPES[case]()


def test_cartan_type_checks_survive_python_O():
    code = (
        "from homquiver.rootsystem import CartanType\n"
        "for args in (('A', 0), ('F', 4)):\n"
        "    try:\n"
        "        CartanType(*args)\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
    )
    assert run_optimized(code).splitlines() == [
        "invalid rank 0 for series A",
        "unsupported series 'F': must be A, D or E",
    ]


def test_cli_import_loads_no_dataclasses():
    code = (
        "import homquiver.cli, sys\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    assert run_optimized(code) == "[]"
