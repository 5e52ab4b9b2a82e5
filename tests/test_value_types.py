"""The value-type contract of Vec3, Point, Mat3 and every record class of the
library: frozen, compared and hashed by class and fields, the dataclass
repr, keyword construction and defaults, copies and pickles that round-trip,
and each record's own refusals."""

import copy
import math
import pickle
from dataclasses import FrozenInstanceError

import pytest

import screwalg
from screwalg import (
    ORIGIN,
    AppliedVectorPair,
    BodyState,
    CentralAxisReport,
    ChaslesDecomposition,
    DegenerateAxis,
    Dual6,
    FinitePitch,
    ForceSystem,
    Frame,
    InertiaOperator,
    InfinitePitch,
    InvalidRotationError,
    LineAxis,
    MassDistribution,
    Mat3,
    MomentumScrew,
    MotionChain,
    NonFiniteError,
    Particle,
    Point,
    RigidMap,
    Scene,
    Screw,
    Screw6,
    SimConfig,
    StepDiagnostics,
    Trajectory,
    Twist,
    Vec3,
    Wrench,
    ZeroScrewPitch,
)
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


# -- records -------------------------------------------------------------------
# One instance of every record class, its fields by keyword in declaration
# order.  The values are valid for each record's own checks.

_V = Vec3(1.0, -2.5, 0.0)
_W = Vec3(3.0, 1e-300, -0.0)
_P = Point(0.5, 0.0, -1.0)
_S = Screw(_V, _W)
_TWIST = Twist(_S)
_QUARTER_TURN = Mat3(0.0, -1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0)
_BODY = InertiaOperator(2.0, _P, Mat3(1.0, 0.0, 0.0, 0.0, 2.0, 0.25, 0.0, 0.25, 3.0))
_PARTICLE = Particle(2.0, _P, _V)
_CONFIG = SimConfig(0.01, 3, "euler", Wrench(_S))
_STATE = BodyState(Mat3.identity(), _P, _V, _W, _BODY)
_DIAGNOSTICS = StepDiagnostics(0.0, 1.5, -0.0, 1e-300, 2.5e-7)

RECORDS = [
    (LineAxis, {"point": _P, "direction": Vec3(0.0, 0.0, 1.0)}),
    (DegenerateAxis, {}),
    (FinitePitch, {"value": -0.75}),
    (InfinitePitch, {}),
    (ZeroScrewPitch, {}),
    (Screw, {"resultant": _V, "moment_at_origin": _W}),
    (Twist, {"screw": _S}),
    (MotionChain, {"relative_twists": (_TWIST, Twist(-_S))}),
    (Wrench, {"screw": _S}),
    (MomentumScrew, {"screw": _S}),
    (ForceSystem, {"forces": ((_P, _V), (ORIGIN, _W))}),
    (Particle, {"mass": 2.0, "position": _P, "velocity": _V}),
    (MassDistribution, {"particles": (_PARTICLE, Particle(1.0, ORIGIN))}),
    (InertiaOperator, {"total_mass": 2.0, "center": _P, "moment_matrix": Mat3.identity()}),
    (Frame, {"origin": _P, "e1": Vec3(0.0, 1.0, 0.0), "e2": Vec3(0.0, 0.0, 1.0), "e3": Vec3(1.0, 0.0, 0.0)}),
    (Screw6, {"a": (1.0, -2.5, 0.0), "b": (3.0, 1e-300, -0.0)}),
    (Dual6, {"c": (3.0, 1e-300, -0.0), "d": (1.0, -2.5, 0.0)}),
    (RigidMap, {"rotation": _QUARTER_TURN, "translation": _V}),
    (ChaslesDecomposition, {"axis": LineAxis(_P, Vec3(0.0, 0.0, 1.0)), "angle": 0.5, "slide": -1.0,
                            "pure_translation": None}),
    (AppliedVectorPair, {"point1": _P, "vector1": _V, "point2": ORIGIN, "vector2": _W}),
    (CentralAxisReport, {"resultant": _V, "amplitude": 2.5, "scalar_invariant": 0.0,
                         "vector_invariant": _W, "axis": DegenerateAxis(), "pitch": InfinitePitch()}),
    (Scene, {"version": 1, "forces": ForceSystem(((_P, _V),)), "masses": MassDistribution((_PARTICLE,)),
             "twists": (_TWIST,), "rigid_map": RigidMap(_QUARTER_TURN, _V), "sim": _CONFIG}),
    (BodyState, {"orientation": Mat3.identity(), "center": _P, "linear_momentum": _V,
                 "angular_momentum_at_c": _W, "body": _BODY}),
    (SimConfig, {"dt": 0.01, "steps": 3, "integrator": "euler", "wrench": Wrench(_S)}),
    (StepDiagnostics, {"time": 0.0, "kinetic_energy": 1.5, "power": -0.0, "omega_idot_omega": 1e-300,
                       "balance_residual": 2.5e-7}),
    (Trajectory, {"states": (_STATE,), "diagnostics": (_DIAGNOSTICS,), "renormalizations": 0}),
]
RECORD_PARAMS = [pytest.param(cls, fields, id=cls.__name__) for cls, fields in RECORDS]


def test_every_record_class_is_covered():
    classes = {
        obj
        for module in ("screw", "kinematics", "dynamics", "lie", "rigid", "reduction", "scene", "sim")
        for obj in (getattr(screwalg, name) for name in getattr(screwalg, module).__all__)
        if isinstance(obj, type)
    }
    assert classes == {cls for cls, _ in RECORDS}


@pytest.mark.parametrize("cls, fields", RECORD_PARAMS)
def test_record_fields_cannot_be_assigned_or_deleted(cls, fields):
    rec = cls(**fields)
    for name, value in fields.items():
        with pytest.raises(FrozenInstanceError, match=f"^cannot assign to field '{name}'$"):
            setattr(rec, name, value)
        with pytest.raises(FrozenInstanceError, match=f"^cannot delete field '{name}'$"):
            delattr(rec, name)
        assert getattr(rec, name) is value
    with pytest.raises(FrozenInstanceError, match="^cannot assign to field 'extra'$"):
        rec.extra = 1
    with pytest.raises(FrozenInstanceError, match="^cannot delete field 'extra'$"):
        del rec.extra
    assert not hasattr(rec, "__dict__")


@pytest.mark.parametrize("cls, fields", RECORD_PARAMS)
def test_records_compare_and_hash_by_fields(cls, fields):
    rec = cls(**fields)
    values = tuple(fields.values())
    assert rec == cls(*values)
    assert hash(rec) == hash(cls(*values)) == hash(values)
    assert rec != values
    assert len({rec, cls(*values)}) == 1


@pytest.mark.parametrize(
    "group",
    [
        ((Twist, Wrench, MomentumScrew), (_S,)),
        ((Screw6, Dual6), ((1.0, 2.0, 3.0), (4.0, 5.0, 6.0))),
        ((DegenerateAxis, InfinitePitch, ZeroScrewPitch), ()),
    ],
    ids=["roles", "coordinates", "markers"],
)
def test_records_of_the_same_shape_differ_by_class(group):
    classes, values = group
    recs = [cls(*values) for cls in classes]
    for i, a in enumerate(recs):
        for b in recs[i + 1:]:
            assert a != b and b != a
    assert len(set(recs)) == len(recs)


# -- screw roles ---------------------------------------------------------------
# Twist, Wrench and MomentumScrew: one screw role under three names, each with
# its own names for the resultant, the field value at a point and (for the
# first two) the applied-vector constructor.

_S2 = Screw(Vec3(-0.5, 4.0, 2.0), Vec3(0.25, -1.0, 8.0))
ROLES = [
    pytest.param(Twist, "angular_velocity", "velocity_at", "pure_rotation", id="Twist"),
    pytest.param(Wrench, "force", "moment_at", "from_force", id="Wrench"),
    pytest.param(MomentumScrew, "linear_momentum", "angular_momentum_at", None, id="MomentumScrew"),
]


@pytest.mark.parametrize("cls, resultant, value_at, applied", ROLES)
def test_role_zero_and_sum(cls, resultant, value_at, applied):
    zero = cls.zero()
    assert type(zero) is cls and zero.screw == Screw.zero()
    total = cls(_S) + cls(_S2)
    assert type(total) is cls and total.screw == _S + _S2
    assert cls(_S) + zero == cls(_S)


@pytest.mark.parametrize("cls, resultant, value_at, applied", ROLES)
def test_role_constructors_read_back(cls, resultant, value_at, applied):
    rec = cls.from_motor(_P, _V, _W)
    assert type(rec) is cls and rec.screw == Screw.from_motor(_P, _V, _W)
    assert getattr(rec, resultant) is rec.screw.resultant
    assert getattr(rec, value_at)(_P).isclose(_W)
    assert getattr(rec, value_at)(ORIGIN) == rec.screw.moment_at_origin
    if applied is not None:
        rec = getattr(cls, applied)(_P, _V)
        assert type(rec) is cls and rec.screw == Screw.from_applied_vector(_P, _V)
        assert getattr(rec, value_at)(_P).is_zero()


@pytest.mark.parametrize("cls, resultant, value_at, applied", ROLES)
def test_role_names_cannot_be_assigned(cls, resultant, value_at, applied):
    rec = cls(_S)
    for name in (resultant, value_at):
        with pytest.raises(FrozenInstanceError, match=f"^cannot assign to field '{name}'$"):
            setattr(rec, name, _V)
    assert getattr(rec, resultant) is _V


@pytest.mark.parametrize(
    "left, right",
    [(Twist, Wrench), (Wrench, Twist), (Twist, MomentumScrew), (MomentumScrew, Twist),
     (Wrench, MomentumScrew), (MomentumScrew, Wrench)],
    ids=lambda cls: cls.__name__,
)
def test_roles_add_only_to_the_same_role(left, right):
    with pytest.raises(TypeError, match="unsupported operand"):
        left(_S) + right(_S)
    with pytest.raises(TypeError, match="unsupported operand"):
        left(_S) + _S
    with pytest.raises(TypeError, match="unsupported operand"):
        _S + right(_S)
    with pytest.raises(TypeError, match="unsupported operand"):
        _S - right(_S)


@pytest.mark.parametrize(
    "cls, expected",
    [
        (Twist, "Twist(screw=Screw(resultant=Vec3(x=1.0, y=-2.5, z=0.0), "
                "moment_at_origin=Vec3(x=3.0, y=1e-300, z=-0.0)))"),
        (Wrench, "Wrench(screw=Screw(resultant=Vec3(x=1.0, y=-2.5, z=0.0), "
                 "moment_at_origin=Vec3(x=3.0, y=1e-300, z=-0.0)))"),
        (MomentumScrew, "MomentumScrew(screw=Screw(resultant=Vec3(x=1.0, y=-2.5, z=0.0), "
                        "moment_at_origin=Vec3(x=3.0, y=1e-300, z=-0.0)))"),
    ],
    ids=lambda v: v.__name__ if isinstance(v, type) else "",
)
def test_role_repr(cls, expected):
    assert repr(cls(_S)) == expected


@pytest.mark.parametrize("cls, fields", RECORD_PARAMS)
def test_record_repr_is_the_dataclass_repr(cls, fields):
    listed = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(cls(**fields)) == f"{cls.__qualname__}({listed})"


def test_record_repr_examples():
    assert repr(DegenerateAxis()) == "DegenerateAxis()"
    assert repr(FinitePitch(0.5)) == "FinitePitch(value=0.5)"
    assert repr(Twist(Screw(Vec3(1.0, 0.0, 0.0), Vec3(0.0, -0.0, 2.0)))) == (
        "Twist(screw=Screw(resultant=Vec3(x=1.0, y=0.0, z=0.0), "
        "moment_at_origin=Vec3(x=0.0, y=-0.0, z=2.0)))"
    )
    assert repr(SimConfig(0.5, 2)) == "SimConfig(dt=0.5, steps=2, integrator='midpoint', wrench=None)"


def test_record_defaults():
    config = SimConfig(dt=0.5, steps=2)
    assert (config.integrator, config.wrench) == ("midpoint", None)
    assert Particle(mass=1.0, position=_P).velocity is None
    assert ChaslesDecomposition(axis=DegenerateAxis(), angle=0.0, slide=0.0).pure_translation is None
    scene = Scene(version=1)
    assert (scene.forces, scene.masses, scene.twists, scene.rigid_map, scene.sim) == (None,) * 5


@pytest.mark.parametrize("cls, fields", RECORD_PARAMS)
@pytest.mark.parametrize(
    "round_trip",
    [copy.copy, copy.deepcopy]
    + [lambda v, p=p: pickle.loads(pickle.dumps(v, protocol=p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)],
    ids=["copy", "deepcopy"] + [f"pickle{p}" for p in range(pickle.HIGHEST_PROTOCOL + 1)],
)
def test_record_copies_and_pickles_round_trip(cls, fields, round_trip):
    rec = cls(**fields)
    back = round_trip(rec)
    assert type(back) is cls
    assert back == rec and repr(back) == repr(rec)


_SKEWED = (Vec3(1.0, 0.0, 0.0), Vec3(0.1, 1.0, 0.0), Vec3(0.0, 0.0, 1.0))


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: FinitePitch(math.inf), NonFiniteError, "^pitch must be finite, got inf$"),
        (lambda: SimConfig(dt=0.0, steps=1), ValueError, "^dt must be positive$"),
        (lambda: SimConfig(dt=0.1, steps=0), ValueError, "^steps must be at least 1$"),
        (lambda: SimConfig(dt=0.1, steps=1, integrator="rk4"), ValueError, "^integrator must be"),
        (lambda: Particle(mass=0.0, position=_P), ValueError, "^particle mass must be positive$"),
        (lambda: MotionChain(()), ValueError, "^a motion chain needs at least one twist$"),
        (lambda: Frame(_P, *_SKEWED), ValueError, "^frame basis is not orthonormal$"),
        (lambda: RigidMap(Mat3.from_columns(*_SKEWED), _V), InvalidRotationError, "is not orthonormal"),
        # As the scene parser refuses them: steps counts whole steps, and an
        # infinite dt leaves no state finite.
        (lambda: SimConfig(dt=0.1, steps=2.5), TypeError, "^steps must be an integer, got 2.5$"),
        (lambda: SimConfig(dt=0.1, steps=2.0), TypeError, "^steps must be an integer, got 2.0$"),
        (lambda: SimConfig(dt=0.1, steps=True), TypeError, "^steps must be an integer, got True$"),
        (lambda: SimConfig(dt=math.inf, steps=1), ValueError, "^dt must be finite$"),
        (lambda: SimConfig(dt=math.nan, steps=1), ValueError, "^dt must be positive$"),
    ],
    ids=["FinitePitch", "SimConfig-dt", "SimConfig-steps", "SimConfig-integrator", "Particle",
         "MotionChain", "Frame", "RigidMap", "SimConfig-fractional-steps", "SimConfig-float-steps",
         "SimConfig-bool-steps", "SimConfig-infinite-dt", "SimConfig-nan-dt"],
)
def test_record_refusals(build, error, message):
    with pytest.raises(error, match=message):
        build()
