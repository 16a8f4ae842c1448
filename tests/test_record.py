"""Record against frozen dataclasses built from the same fields and values."""

import dataclasses
import importlib
import pkgutil

import pytest

import gridfree
from gridfree import (
    ConstructionReport,
    CoreWitness,
    GridWitness,
    Hypergraph3,
    LemmaInstance,
    VertexInfo,
    VertexMap,
    reciprocity_check,
    secant_census,
)
from gridfree.record import Record

# One valid instance of every record in the package, several where a field
# can be None or __post_init__ rewrites a field.
SAMPLES = [
    Hypergraph3(4, [[0, 1, 2], (1, 2, 3)]),
    Hypergraph3(0, ()),
    VertexInfo("V1", 2, 4),
    VertexMap(7, [VertexInfo("V1", 0, 0), VertexInfo("V2", 1, 2)]),
    ConstructionReport(5, "random", 6, 2, 1, 3, 9),
    ConstructionReport(7, "base", 14, 14, 6, None, None),
    GridWitness((0, 4, 5), (1, 2, 3), tuple(range(9))),
    CoreWitness((0, 1), (0, 1, 2), (2, 2, 2)),
    LemmaInstance(4, 2, [(3, 2), (0, 1)]),
    secant_census(13),
    reciprocity_check(11),
]


def _package_records():
    for info in pkgutil.iter_modules(gridfree.__path__):
        if info.name not in ("__main__", "cli"):
            importlib.import_module(f"gridfree.{info.name}")
    found, todo = set(), [Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if sub.__module__.startswith("gridfree."):
                found.add(sub)
    return found


def _twin(record):
    """A frozen dataclass with the record's class name, fields and values.
    A class that writes its own repr keeps it, as a dataclass would."""
    cls = type(record)
    own = {k: cls.__dict__[k] for k in ("__repr__",) if k in cls.__dict__}
    twin_cls = dataclasses.make_dataclass(cls.__name__, cls._fields, frozen=True, namespace=own)
    return twin_cls(*(getattr(record, f) for f in cls._fields))


def _args(record):
    return tuple(getattr(record, f) for f in record._fields)


def test_samples_cover_every_record_class():
    assert {type(r) for r in SAMPLES} == _package_records()


def test_fields_are_the_class_annotations_in_order():
    assert Hypergraph3._fields == ("n", "edges")
    assert ConstructionReport._fields == (
        "p", "kind", "n", "m", "two_point_secants", "selection_size", "seed")
    assert Record._fields == ()


@pytest.mark.parametrize("record", SAMPLES, ids=repr)
def test_record_matches_its_frozen_dataclass_twin(record):
    twin = _twin(record)
    assert [f.name for f in dataclasses.fields(twin)] == list(record._fields)
    assert repr(record) == repr(twin)
    assert hash(record) == hash(twin)
    assert record.__eq__(twin) is NotImplemented
    assert record != twin and twin != record
    copy = type(record)(*_args(record))
    assert copy == record and not copy != record
    assert copy is not record and hash(copy) == hash(record)
    assert type(record)(**dict(zip(record._fields, _args(record)))) == record


@pytest.mark.parametrize("record", SAMPLES, ids=repr)
def test_record_is_frozen(record):
    before = _args(record)
    for name in (*record._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert _args(record) == before and not hasattr(record, "extra")


def test_records_of_different_classes_are_unequal():
    distinct = {id(r): r for r in SAMPLES}
    for a in distinct.values():
        for b in distinct.values():
            if type(a) is not type(b):
                assert a != b
    # the same field values in another class
    fields = ((0, 1, 2), (3, 4, 5), (6, 7, 8))
    assert GridWitness(*fields) != CoreWitness(*fields)
    assert len({GridWitness(*fields), CoreWitness(*fields)}) == 2


@pytest.mark.parametrize("record", SAMPLES, ids=repr)
def test_constructor_refuses_missing_extra_and_repeated_arguments(record):
    cls, args, first = type(record), _args(record), record._fields[0]
    with pytest.raises(TypeError):
        cls(*args[:-1])
    with pytest.raises(TypeError):
        cls(*args, None)
    with pytest.raises(TypeError):
        cls(*args, **{first: args[0]})
    with pytest.raises(TypeError):
        cls(*args, unexpected=None)
    with pytest.raises(TypeError):
        cls(**dict(zip(record._fields[1:], args[1:])))


def test_post_init_still_validates():
    with pytest.raises(ValueError, match="not strictly ascending"):
        Hypergraph3(3, ((0, 2, 1),))
    with pytest.raises(ValueError, match="k must lie"):
        LemmaInstance(4, 5, ())
    with pytest.raises(ValueError, match="N must be"):
        LemmaInstance(N=1, k=0, H=())
    with pytest.raises(ValueError, match="unknown origin"):
        VertexInfo(origin="V3", x=0, y=0)
    with pytest.raises(ArithmeticError):
        ConstructionReport(7, "base", 14, 13, 6, None, None)


def test_post_init_rewrites_fields_before_freezing():
    h = Hypergraph3(n=4, edges=[[0, 1, 2]])
    assert h.edges == ((0, 1, 2),) and type(h.edges[0]) is tuple
    inst = LemmaInstance(4, 2, [(3, 2), (0, 1)])
    assert inst.H == ((0, 1), (2, 3))
