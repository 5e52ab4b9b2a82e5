"""Shared hypothesis strategies and numeric assertion helpers.

Coordinates are drawn from a moderate box so that relative and absolute
tolerances mean the same thing; resultants used in exp/log tests are kept
away from zero and away from the angle-pi branch cut separately, in the
tests that care.
"""

import io
import json
import math
import os
import sys
import tempfile

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from screwalg import (
    ORIGIN,
    AppliedVectorPair,
    CentralAxisReport,
    ChaslesDecomposition,
    DegenerateAxis,
    FinitePitch,
    Frame,
    InfinitePitch,
    LineAxis,
    Mat3,
    NonFiniteError,
    Point,
    RigidMap,
    Screw,
    Twist,
    Vec3,
    ZeroScrewPitch,
)

settings.register_profile(
    "fast",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.register_profile(
    "thorough",
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "fast"))


coords = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False, allow_infinity=False)
small_params = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False, allow_infinity=False)

vec3s = st.builds(Vec3, coords, coords, coords)
points = st.builds(Point, coords, coords, coords)
nonzero_vec3s = vec3s.filter(lambda v: v.norm() > 1e-2)
unit_vec3s = nonzero_vec3s.map(lambda v: v.normalized())

screws = st.builds(Screw, vec3s, vec3s)
# Resultant bounded away from zero: these have a line axis and a finite pitch.
line_screws = st.builds(Screw, nonzero_vec3s, vec3s)
twists = st.builds(Twist, screws)


# Values at the corners of float arithmetic, for the bit-for-bit tests of
# fused forms.  Each value draws its components from one regime: floats of
# magnitude 0.5 to 4 (whose sums of products round, so that an order of
# operations shows), signed zeros and small integers (whose products cancel
# exactly, which is where the sign of a zero shows), a mix of the two,
# subnormals, magnitudes from 1e154 up (whose products overflow), or all
# finite floats.
_MAX, _MIN_NORMAL = sys.float_info.max, sys.float_info.min
_rough = st.builds(
    lambda sign, x: sign * x, st.sampled_from([1.0, -1.0]), st.floats(min_value=0.5, max_value=4.0)
)
_exact = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0])
_regimes = st.sampled_from([
    _rough,
    _rough,
    st.one_of(_exact, _rough),
    _exact,
    _exact,
    st.one_of(_exact, st.floats(min_value=-_MIN_NORMAL, max_value=_MIN_NORMAL)),
    st.one_of(_exact, st.floats(min_value=1e154, max_value=_MAX), st.floats(min_value=-_MAX, max_value=-1e154)),
    st.floats(allow_nan=False, allow_infinity=False),
])
edge_vec3s = _regimes.flatmap(lambda f: st.builds(Vec3, f, f, f))
edge_points = _regimes.flatmap(lambda f: st.builds(Point, f, f, f))
edge_screws = st.builds(Screw, edge_vec3s, edge_vec3s)
edge_mat3s = _regimes.flatmap(lambda f: st.builds(Mat3, *[f] * 9))
# A changed order of operations or sign of a zero shows in a few percent of
# these draws, so the bit-for-bit tests take more examples than the fast
# profile gives, and never fewer than the loaded profile.
bit_examples = settings(max_examples=max(200, settings.default.max_examples))

# Values at a scale 10**e of their own, e from -150 to 150, with signed zeros
# and small integers among the mantissas: no product of two of them
# overflows.  About half are at the unit scale, where a sum of products
# rounds differently in another order; the rest rarely share a scale.
_mantissas = st.one_of(_exact, _rough)


def _scaled(cls):
    return st.one_of(st.just(0.0), st.floats(-150.0, 150.0)).flatmap(
        lambda e: st.builds(cls, *[_mantissas.map(lambda m: m * 10.0**e)] * 3)
    )


scaled_vec3s, scaled_points = _scaled(Vec3), _scaled(Point)

# BIG * BIG is 1.69e308, below the largest float, and twice that is not: the
# screw sums' tests build with it members whose cross product, or the running
# sum of two of whose finite terms, leaves the float range.
BIG = 1.3e154


@st.composite
def spliced(draw, members, insertions, min_size=0, max_size=60):
    """A tuple of ``members`` with the members of one of the lists
    ``insertions`` inserted at drawn places, so that they come partway
    through it."""
    drawn = draw(st.lists(members, min_size=min_size, max_size=max_size - 2))
    for member in draw(st.sampled_from(insertions)):
        drawn.insert(draw(st.integers(0, len(drawn))), member)
    return tuple(drawn)


def _bits(value) -> tuple[str, ...]:
    """The float.hex of every float of ``value``, field by field, with the
    class of each axis, pitch and record and the length of each list or
    tuple named, so that two results compare equal only when they are the
    same to the bit."""
    if isinstance(value, float):
        return (float.hex(value),)
    if value is None or isinstance(value, (DegenerateAxis, InfinitePitch, ZeroScrewPitch)):
        return (repr(value),)
    if isinstance(value, (list, tuple)):
        return (f"{value.__class__.__name__} of {len(value)}",) + sum(map(_bits, value), ())
    if isinstance(value, FinitePitch):
        return ("FinitePitch", float.hex(value.value))
    if isinstance(value, Mat3):
        return tuple(float.hex(x) for x in value.flat())
    if isinstance(value, Screw):
        return _bits(value.resultant) + _bits(value.moment_at_origin)
    if isinstance(value, LineAxis):
        return ("LineAxis",) + _bits(value.point) + _bits(value.direction)
    if isinstance(value, (RigidMap, ChaslesDecomposition, AppliedVectorPair, CentralAxisReport)):
        fields = (_bits(getattr(value, name)) for name in value._field_names)
        return (value.__class__.__name__,) + sum(fields, ())
    return tuple(float.hex(x) for x in value.components())


def composed_unit(v: Vec3) -> tuple[float, Vec3]:
    """|v| and v / |v| for a nonzero v, the oracle of ``vecmath._unit``,
    written without it: v / v.norm() where v . v is a normal float, and
    otherwise v scaled here by the power of two that brings its largest
    component into [0.5, 1), then divided by its own norm."""
    n = v.norm()
    if _MIN_NORMAL <= v.dot(v) < math.inf:
        return n, v / n
    e = math.frexp(max(abs(c) for c in v.components()))[1]
    scaled = Vec3(*(math.ldexp(c, -e) for c in v.components()))
    return n, scaled / scaled.norm()


def composed_direction(w: Vec3) -> tuple[float, Vec3]:
    """``composed_unit`` of a screw's resultant, refused when |w| is beyond
    the float range, as the axis core ``screw._axis`` refuses it."""
    n, u = composed_unit(w)
    if n == math.inf:
        raise NonFiniteError("norm of the screw direction is not finite")
    return n, u


def composed_ratio(k: float, t: float, n: float) -> float:
    """k t / n as the pitch and the two-vector arm form it: divided after
    the product where k t is finite, and before it where k t overflows."""
    return k * t / n if math.isfinite(k * t) else k * (t / n)


def composed_axis(s: Screw):
    """``Screw.axis`` as the ``Vec3`` expression it fuses, the bit oracle of
    the axis core ``screw._axis`` and of the kernels that read it.  Like
    each oracle below, it takes n and u from ``composed_direction``."""
    if s.is_free():
        return DegenerateAxis()
    n, u = composed_direction(s.resultant)
    return LineAxis(ORIGIN + u.cross(s.moment_at_origin) / n, u)


def composed_vector_invariant(s: Screw) -> Vec3:
    """``Screw.vector_invariant`` as the ``Vec3`` expression the axis core
    replaces, its bit oracle."""
    if s.is_free():
        return s.moment_at_origin
    _, u = composed_direction(s.resultant)
    return u * s.moment_at_origin.dot(u)


def composed_pitch(s: Screw):
    """``Screw.pitch`` as the ``Vec3`` expression the axis core replaces,
    its bit oracle."""
    if s.is_free():
        return ZeroScrewPitch() if s.is_zero() else InfinitePitch()
    n, u = composed_direction(s.resultant)
    return FinitePitch(composed_ratio(2.0 * math.pi, s.moment_at_origin.dot(u), n))


def values_built(f, *args, classes=(Vec3, Point, Mat3)) -> int:
    """The constructions of ``classes`` in f(*args), counted on the
    constructors' code objects."""
    codes = {cls.__init__.__code__ for cls in classes}
    count = 0

    def hook(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code in codes:
            count += 1

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        f(*args)
    finally:
        sys.setprofile(previous)
    return count


def bit_outcome(f, *args):
    """The float.hex of every component of f(*args), or ``NonFiniteError`` if
    it raises one: two forms with the same outcome round alike, signed zeros
    included, and refuse the same inputs.  A kernel's message names the
    group of values it refuses, its value form's the type of the value, so
    the messages are not compared."""
    try:
        return _bits(f(*args))
    except NonFiniteError:
        return NonFiniteError


def sum_outcome(f, *args):
    """``bit_outcome``, or the class of any other exception that f(*args)
    raises: the screw sums' tests compare every refusal."""
    try:
        return bit_outcome(f, *args)
    except Exception as err:
        return err.__class__


def refusal(f, *args):
    """The message of the NonFiniteError that f(*args) raises, or None: a
    test that pins a message on purpose reads it here."""
    try:
        f(*args)
    except NonFiniteError as err:
        return str(err)
    return None


def cli_status(command: str, doc: dict, *options: str) -> int:
    """The exit status of ``screwalg <command> <scene> *options``, run in
    process on a scene file holding ``doc``."""
    from screwalg import cli

    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "scene.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return cli.main([command, path, *options], stdout=io.StringIO(), stderr=io.StringIO())


def _quat_to_frame(q: tuple, origin: Point) -> Frame:
    n = math.sqrt(sum(c * c for c in q))
    w, x, y, z = (c / n for c in q)
    e1 = Vec3(1.0 - 2.0 * (y * y + z * z), 2.0 * (x * y + z * w), 2.0 * (x * z - y * w))
    e2 = Vec3(2.0 * (x * y - z * w), 1.0 - 2.0 * (x * x + z * z), 2.0 * (y * z + x * w))
    e3 = Vec3(2.0 * (x * z + y * w), 2.0 * (y * z - x * w), 1.0 - 2.0 * (x * x + y * y))
    return Frame(origin, e1, e2, e3)


quaternions = st.tuples(coords, coords, coords, coords).filter(
    lambda q: sum(c * c for c in q) > 1e-2
)
frames = st.builds(_quat_to_frame, quaternions, points)


def assert_vec_close(a: Vec3, b: Vec3, tol: float = 1e-12, label: str = ""):
    scale = max(1.0, a.norm(), b.norm())
    err = (a - b).norm()
    assert err <= tol * scale, f"{label or 'vectors'}: {a} vs {b}, err {err:.3e} > {tol:.0e}*{scale:.2f}"


def assert_screw_close(s1: Screw, s2: Screw, tol: float = 1e-12, label: str = ""):
    assert_vec_close(s1.resultant, s2.resultant, tol, f"{label} resultant")
    assert_vec_close(s1.moment_at_origin, s2.moment_at_origin, tol, f"{label} moment")


def assert_scalar_close(a: float, b: float, tol: float = 1e-12, label: str = ""):
    scale = max(1.0, abs(a), abs(b))
    assert abs(a - b) <= tol * scale, f"{label or 'scalars'}: {a} vs {b} beyond {tol:.0e}"


# -- acceptance-criteria reporting -------------------------------------------
# test_acceptance records one line per criterion through the fixture below;
# the terminal-summary hook prints the collected table after the test run so
# the verdicts are visible even when every test passes.

_ACCEPTANCE_RESULTS: list[tuple[int, str, bool, str]] = []


@pytest.fixture
def record_criterion():
    def _record(number: int, name: str, ok: bool, detail: str = ""):
        _ACCEPTANCE_RESULTS.append((number, name, bool(ok), detail))

    return _record


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, name, ok, detail in sorted(_ACCEPTANCE_RESULTS):
        verdict = "PASS" if ok else "FAIL"
        line = f"criterion {number:2d} {verdict}  {name}"
        if detail:
            line += f"  [{detail}]"
        terminalreporter.write_line(line)
