"""The package's value classes against frozen dataclasses.

Every class built on ``_record.Record`` is checked against a frozen
``dataclasses.make_dataclass`` twin with the golden field names and
defaults below: the same repr, equality exactly when the twins are
equal, the same hash, no equality across classes, no assignment or
deletion, and TypeError for arguments that do not bind.  The twin holds
the record's field values after ``__post_init__`` has normalised them.
"""

import dataclasses
from fractions import Fraction

import pytest

from packinglab import catalog, convert, coxeter, groupwords, integrality, orbit, polygraph, render
from packinglab._record import Record
from packinglab.exactnum import QNum

CONFIG = catalog.get_builtin("d1n3-base").configuration
TETRAHEDRON = polygraph.builtin("tetrahedron")
PYRAMID = polygraph.builtin("square_pyramid")


def _shape(p):
    return (p.name, p.vertices, p.faces, p.edges)


# class, golden fields (name, default or REQUIRED), and two argument
# tuples; the second differs from the first where the class allows it
REQUIRED = object()
GOLDEN = [
    (coxeter.Orthogonal, (), (), ()),
    (coxeter.Tangent, (("sign", 1),), (1,), (-1,)),
    (coxeter.Angle, (("order", REQUIRED), ("sign", 1)), (3, 1), (4, -1)),
    (coxeter.Disjoint, (("separation", REQUIRED),), (QNum(2),), (QNum(3),)),
    (
        coxeter.CoxeterDiagram,
        (("nodes", REQUIRED), ("edges", REQUIRED)),
        (2, {(0, 1): coxeter.Orthogonal()}),
        (2, {(0, 1): coxeter.Tangent()}),
    ),
    (
        coxeter.ClusterReport,
        (("cluster", REQUIRED), ("cocluster", REQUIRED), ("checks", REQUIRED), ("verdict", REQUIRED)),
        ((0,), (1,), (), True),
        ((1,), (0,), (("tangent", 0, 1, QNum(1), True),), False),
    ),
    (groupwords.Word, (("atoms", REQUIRED),), (((1, False),),), (((1, False), (2, True)),)),
    (
        groupwords.Configuration,
        (
            ("name", REQUIRED),
            ("rows", REQUIRED),
            ("labels", REQUIRED),
            ("form_d", None),
            ("defining_words", None),
        ),
        ("c", CONFIG.rows, CONFIG.labels, 1, None),
        ("c", CONFIG.rows[:2], CONFIG.labels[:2], None, ("a", "b")),
    ),
    (
        catalog.CatalogEntry,
        (
            ("id", REQUIRED),
            ("configuration", REQUIRED),
            ("gram", None),
            ("clusters", None),
            ("source", ""),
        ),
        ("e", CONFIG, None, None, ""),
        ("e", CONFIG, CONFIG.gram(), (("1",),), "src"),
    ),
    (
        catalog.CatalogCheck,
        (("kind", REQUIRED), ("subject", REQUIRED), ("ok", REQUIRED), ("detail", REQUIRED)),
        ("norm", "row 1", True, ""),
        ("norm", "row 1", False, "norm 1, not -1"),
    ),
    (
        catalog.CatalogReport,
        (("entry_id", REQUIRED), ("checks", REQUIRED)),
        ("e", ()),
        ("e", (catalog.CatalogCheck("norm", "row 1", True, ""),)),
    ),
    (
        orbit.OrbitLimits,
        (("max_generation", 6), ("max_bend", 10_000)),
        (3, 100),
        (3, None),
    ),
    (
        orbit.PackingOrbit,
        (("circles", REQUIRED), ("limits", REQUIRED), ("mode", REQUIRED)),
        ((), orbit.OrbitLimits(), "packing"),
        ((), orbit.OrbitLimits(), "superpacking"),
    ),
    (
        orbit.OrbitStats,
        (
            ("generation_counts", REQUIRED),
            ("circle_count", REQUIRED),
            ("min_bend", REQUIRED),
            ("max_bend", REQUIRED),
        ),
        ((), 0, None, None),
        ((1, 3), 4, QNum(-1), QNum(2)),
    ),
    (
        orbit.EmptyInteriorReport,
        (
            ("verdict", REQUIRED),
            ("sample_count", REQUIRED),
            ("seed", REQUIRED),
            ("box", REQUIRED),
            ("counterexample", REQUIRED),
            ("exact_checks", REQUIRED),
        ),
        (True, 10, 0, ((Fraction(-1), Fraction(1)),), None, 0),
        (False, 10, 0, ((Fraction(-1), Fraction(1)),), (Fraction(1, 2),), 1),
    ),
    (
        integrality.IntegralityCertificate,
        (
            ("verdict", REQUIRED),
            ("rescale_factor", REQUIRED),
            ("witnesses", REQUIRED),
            ("detail", REQUIRED),
        ),
        ("integral-proven", QNum(1), (), ""),
        ("integral-proven", QNum(2), (), ""),
    ),
    (
        integrality.BoundedRationalReport,
        (
            ("derived_bound", REQUIRED),
            ("observed_max_denominator", REQUIRED),
            ("word_count", REQUIRED),
            ("word_length", REQUIRED),
            ("seed", REQUIRED),
        ),
        (4, 2, 20, 5, 0),
        (4, 8, 20, 5, 0),
    ),
    (
        render.RenderOptions,
        (
            ("viewport", None),
            ("labels", "none"),
            ("cocluster_words", frozenset()),
            ("max_circles", None),
        ),
        (None, "none", frozenset(), None),
        (((0, 1), (0, 1)), "bends", frozenset({"1.2"}), 3),
    ),
    (
        polygraph.PlanarPolyhedron,
        (("name", REQUIRED), ("vertices", REQUIRED), ("faces", REQUIRED), ("edges", ())),
        _shape(TETRAHEDRON),
        _shape(PYRAMID),
    ),
    (convert.BianchiRoot, (("m", REQUIRED), ("x", REQUIRED)), (1, (0, 0, 1, 0)), (2, (0, 0, 1, 0))),
    (convert.VinbergVector, (("d", REQUIRED), ("x", REQUIRED)), (1, (0, 1, 0)), (1, (0, 0, 1))),
]
IDS = [cls.__name__ for cls, *_ in GOLDEN]


def _values(record, fields):
    return tuple(getattr(record, name) for name, _ in fields)


def _twin(cls, fields):
    """A frozen dataclass with cls's name and the golden fields."""
    spec = [
        (name, object) if default is REQUIRED else (name, object, dataclasses.field(default=default))
        for name, default in fields
    ]
    return dataclasses.make_dataclass(cls.__qualname__, spec, frozen=True)


def _hash(obj):
    try:
        return hash(obj)
    except TypeError as e:  # a dict field, as in CoxeterDiagram
        return type(e)


def test_golden_list_covers_every_record_class():
    found = {
        (module.__name__, name)
        for module in (catalog, convert, coxeter, groupwords, integrality, orbit, polygraph, render)
        for name, obj in vars(module).items()
        if isinstance(obj, type) and issubclass(obj, Record) and obj.__module__ == module.__name__
    }
    assert found == {(cls.__module__, cls.__name__) for cls, *_ in GOLDEN}
    assert len(found) == 21


@pytest.mark.parametrize("cls, fields, a, b", GOLDEN, ids=IDS)
def test_record_matches_its_frozen_dataclass_twin(cls, fields, a, b):
    twin = _twin(cls, fields)
    records = [cls(*a), cls(*a), cls(*b)]
    twins = [twin(*_values(r, fields)) for r in records]
    for record, double in zip(records, twins):
        assert repr(record) == repr(double)
        assert _hash(record) == _hash(double)
        assert record != double and double != record
    for i, (r, s) in enumerate(zip(records, twins)):
        for j, (r2, s2) in enumerate(zip(records, twins)):
            assert (r == r2) is (s == s2), (i, j)
            assert (r != r2) is (s != s2), (i, j)
    assert records[0] == records[1]
    if a != b:
        assert records[0] != records[2]


@pytest.mark.parametrize("cls, fields, a, b", GOLDEN, ids=IDS)
def test_record_defaults_are_the_golden_ones(cls, fields, a, b):
    required = [value for (name, default), value in zip(fields, a) if default is REQUIRED]
    defaults = [default for name, default in fields if default is not REQUIRED]
    for name, default in fields:
        if default is not REQUIRED:
            assert getattr(cls, name) == default, name
    # __post_init__ may normalise a default (PlanarPolyhedron derives edges)
    assert cls(*required) == cls(*required, *defaults)
    by_keyword = cls(**{name: value for (name, _), value in zip(fields, a)})
    assert by_keyword == cls(*a)


@pytest.mark.parametrize("cls, fields, a, b", GOLDEN, ids=IDS)
def test_record_never_equals_another_class_with_the_same_values(cls, fields, a, b):
    record = cls(*a)
    names = [name for name, _ in fields]
    other = type(cls.__name__, (Record,), {"__annotations__": dict.fromkeys(names, object)})
    same = other(*_values(record, fields))
    assert repr(same) == repr(record)
    assert record != same and same != record
    assert not record == same


@pytest.mark.parametrize("cls, fields, a, b", GOLDEN, ids=IDS)
def test_record_refuses_assignment_and_deletion(cls, fields, a, b):
    record = cls(*a)
    for name in [name for name, _ in fields] + ["unknown"]:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert record == cls(*a)


@pytest.mark.parametrize("cls, fields, a, b", GOLDEN, ids=IDS)
def test_record_arguments_that_do_not_bind_are_type_errors(cls, fields, a, b):
    calls = [(a + (None,), {}), (a, {"unknown": None})]  # surplus, unknown
    if fields:
        calls.append((a, {fields[0][0]: a[0]}))  # repeated
    required = sum(1 for _, default in fields if default is REQUIRED)
    if required:
        calls.append((a[: required - 1], {}))  # missing
        # an unknown keyword in place of a missing field
        calls.append((a[: required - 1], {"unknown": a[required - 1]}))
    twin = _twin(cls, fields)
    for args, kwargs in calls:
        with pytest.raises(TypeError):
            twin(*args, **kwargs)
        # refused before __post_init__ sees the arguments
        with pytest.raises(TypeError, match=r"^%s\(\) takes the fields \(" % cls.__name__):
            cls(*args, **kwargs)


def test_configuration_gram_cache_is_outside_eq_hash_and_repr():
    config = groupwords.Configuration("c", CONFIG.rows, CONFIG.labels)
    assert config.gram() == CONFIG.gram()
    assert "_gram" not in repr(config)
    other = groupwords.Configuration("c", CONFIG.rows, CONFIG.labels)
    text, digest = repr(other), hash(other)
    object.__setattr__(other, "_gram", ())
    assert other == config and config == other
    assert (repr(other), hash(other)) == (text, digest) == (repr(config), hash(config))
    with pytest.raises(AttributeError):
        config._gram = ()
