"""The value-type contract of Vec3, Point and Mat3: frozen, compared and
hashed by class and fields, the dataclass repr, keyword construction, and
copies and pickles that round-trip."""

import copy
import math
import pickle
from dataclasses import FrozenInstanceError

import pytest

from screwalg import InertiaOperator, Mat3, NonFiniteError, Point, Vec3
from screwalg.sim import _inverse_moment

FIELDS = [1.0, -2.5, 0.0, 3.0, 1e-300, -0.0, 7.0, 1e300, -4.0]
VALUES = [
    pytest.param(Vec3, FIELDS[:3], id="Vec3"),
    pytest.param(Point, FIELDS[:3], id="Point"),
    pytest.param(Mat3, FIELDS, id="Mat3"),
]


@pytest.mark.parametrize("cls, fields", VALUES)
def test_fields_cannot_be_assigned_or_deleted(cls, fields):
    v = cls(*fields)
    name = cls.__slots__[0]
    with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
        setattr(v, name, 5.0)
    with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{name}'"):
        delattr(v, name)
    with pytest.raises(FrozenInstanceError):
        v.extra = 1.0
    assert getattr(v, name) == fields[0]
    assert not hasattr(v, "__dict__")


def test_equality_is_by_class():
    assert Vec3(1.0, 2.0, 3.0) != Point(1.0, 2.0, 3.0)
    assert Point(1.0, 2.0, 3.0) != Vec3(1.0, 2.0, 3.0)
    assert Vec3(1.0, 2.0, 3.0) != (1.0, 2.0, 3.0)
    assert Point(1.0, 2.0, 3.0) != (1.0, 2.0, 3.0)
    assert Mat3(*FIELDS) != tuple(FIELDS)
    assert Vec3(1.0, 2.0, 3.0) != Vec3(1.0, 2.0, 3.5)


@pytest.mark.parametrize("cls, fields", VALUES)
def test_equal_values_hash_equal(cls, fields):
    flipped = [-x if x == 0.0 else x for x in fields]
    assert cls(*fields) == cls(*flipped)
    assert hash(cls(*fields)) == hash(cls(*flipped)) == hash(tuple(fields))
    assert len({cls(*fields), cls(*flipped)}) == 1


def test_equal_inertia_hits_the_inverse_moment_cache():
    def body(zero):
        return InertiaOperator(
            2.0, Point(zero, 0.5, zero), Mat3(1.0, zero, zero, zero, 2.0, 0.25, zero, 0.25, 3.0)
        )

    first = _inverse_moment(body(0.0))
    hits = _inverse_moment.cache_info().hits
    assert _inverse_moment(body(-0.0)) is first
    assert _inverse_moment.cache_info().hits == hits + 1


def test_repr_is_the_dataclass_repr():
    assert repr(Vec3(1.0, 2.0, 3.0)) == "Vec3(x=1.0, y=2.0, z=3.0)"
    assert repr(Point(-0.5, -0.0, 1e-300)) == "Point(x=-0.5, y=-0.0, z=1e-300)"
    assert repr(Mat3.identity()) == (
        "Mat3(xx=1.0, xy=0.0, xz=0.0, yx=0.0, yy=1.0, yz=0.0, zx=0.0, zy=0.0, zz=1.0)"
    )
    assert repr(Vec3(1, 2, 3)) == "Vec3(x=1, y=2, z=3)"


@pytest.mark.parametrize("cls, fields", VALUES)
def test_keyword_construction(cls, fields):
    assert cls(**dict(zip(cls.__slots__, fields))) == cls(*fields)
    bad = dict(zip(cls.__slots__, fields), **{cls.__slots__[-1]: math.nan})
    with pytest.raises(NonFiniteError, match=f"{cls.__name__} components must be finite"):
        cls(**bad)


@pytest.mark.parametrize("cls, fields", VALUES)
@pytest.mark.parametrize(
    "round_trip",
    [copy.copy, copy.deepcopy]
    + [lambda v, p=p: pickle.loads(pickle.dumps(v, protocol=p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)],
    ids=["copy", "deepcopy"] + [f"pickle{p}" for p in range(pickle.HIGHEST_PROTOCOL + 1)],
)
def test_copies_and_pickles_round_trip(cls, fields, round_trip):
    v = cls(*fields)
    w = round_trip(v)
    assert type(w) is cls
    assert w == v and repr(w) == repr(v)
