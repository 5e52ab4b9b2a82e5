"""Exponential flow of screws, Chasles decomposition, rigid-map algebra.

The flow is validated against an independent RK4 integration of the field
(the formula never gets to grade its own homework), and the logarithm is
exercised on all three of its branches: generic angle, near-zero, near-pi.
"""

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    assert_scalar_close,
    assert_screw_close,
    assert_vec_close,
    coords,
    points,
    screws,
    unit_vec3s,
    vec3s,
)
from screwalg import (
    ORIGIN,
    ChaslesDecomposition,
    DegenerateAxis,
    InvalidRotationError,
    LineAxis,
    Mat3,
    NonFiniteError,
    Point,
    RigidMap,
    Screw,
    Vec3,
    ZeroScrewError,
    chasles,
    exp_screw,
    rodrigues,
)

# Screws whose |resultant| stays within (0.01, 3.0): nonzero rotation, below
# the pi branch after unit time only when further restricted in the tests
# that need the principal branch.
flow_screws = st.builds(
    lambda u, mag, m: Screw(u * mag, m),
    unit_vec3s,
    st.floats(min_value=0.01, max_value=3.0),
    vec3s,
)


def _rk4_flow(s: Screw, p0: Point, t: float = 1.0, steps: int = 600) -> Point:
    # Plain RK4 on dP/dt = s(P); with |resultant| <= 3 and 600 steps the
    # truncation error sits near 1e-10, an order under the tolerances used.
    h = t / steps
    p = p0
    for _ in range(steps):
        k1 = s.value_at(p)
        k2 = s.value_at(p + k1 * (h / 2.0))
        k3 = s.value_at(p + k2 * (h / 2.0))
        k4 = s.value_at(p + k3 * h)
        p = p + (k1 + 2.0 * k2 + 2.0 * k3 + k4) * (h / 6.0)
    return p


def test_rodrigues_quarter_turn():
    r = rodrigues(Vec3(0.0, 0.0, 1.0), math.pi / 2.0)
    assert_vec_close(r.matvec(Vec3(1.0, 0.0, 0.0)), Vec3(0.0, 1.0, 0.0), tol=1e-15)
    assert_vec_close(r.matvec(Vec3(0.0, 0.0, 2.0)), Vec3(0.0, 0.0, 2.0), tol=1e-15)


# Unit axes with exact (and signed) zero components as well as generic ones.
_axis_coords = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), coords)
_axes = (
    st.builds(Vec3, _axis_coords, _axis_coords, _axis_coords)
    .filter(lambda v: v.norm() > 1e-2)
    .map(lambda v: v.normalized())
)


@given(_axes, st.floats(min_value=-7.0, max_value=7.0))
def test_rodrigues_is_bit_identical_to_the_matrix_expression(u, angle):
    k = Mat3.cross_matrix(u)
    k2 = Mat3.from_columns(k.matvec(k.column(0)), k.matvec(k.column(1)), k.matvec(k.column(2)))
    want = Mat3.identity() + math.sin(angle) * k + (1.0 - math.cos(angle)) * k2
    # repr of a float round-trips its bits, signed zeros included
    assert repr(rodrigues(u, angle)) == repr(want)


@pytest.mark.parametrize("angle", [math.inf, -math.inf, math.nan])
def test_rodrigues_rejects_a_non_finite_angle(angle):
    with pytest.raises(NonFiniteError, match="rotation angle must be finite"):
        rodrigues(Vec3(0.0, 0.0, 1.0), angle)


def test_exp_whose_angle_overflows_is_a_non_finite_error():
    # |omega| t = 10 * 1e308 overflows to inf before any sine is taken
    with pytest.raises(NonFiniteError):
        exp_screw(Screw(Vec3(0.0, 0.0, 10.0), Vec3.zero()), 1e308)


@given(screws)
def test_exp_at_zero_parameter_is_identity(s):
    assert exp_screw(s, 0.0).isclose(RigidMap.identity())


@given(vec3s, coords)
def test_exp_of_free_screw_is_translation(v, t):
    g = exp_screw(Screw.from_free_vector(v), t)
    assert g.rotation == Mat3.identity()
    assert_vec_close(g.translation, v * t)


def test_full_turn_of_pitched_screw_translates_by_pitch():
    # pitch p means: one complete revolution advances the body by p along
    # the axis, whatever the rotation rate.
    u = Vec3(1.0, 2.0, -2.0).normalized()
    q = Point(0.5, -1.0, 2.0)
    p = 0.75
    omega = 1.3
    s = Screw.from_applied_vector(q, u * omega) + Screw.from_free_vector(
        u * (p * omega / (2.0 * math.pi))
    )
    g = exp_screw(s, 2.0 * math.pi / omega)
    assert g.rotation.isclose(Mat3.identity(), abs_=1e-12)
    assert_vec_close(g.apply(q) - q, u * p, tol=1e-12)


@given(flow_screws, st.floats(min_value=-1.5, max_value=1.5), st.floats(min_value=-1.5, max_value=1.5))
def test_one_parameter_group_law(s, a, b):
    lhs = exp_screw(s, a).compose(exp_screw(s, b))
    rhs = exp_screw(s, a + b)
    assert lhs.isclose(rhs, rel=1e-10, abs_=1e-10)


def test_exp_matches_rk4_flow():
    rng = random.Random(20240501)
    for _ in range(5):
        u = Vec3(rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1)).normalized()
        s = Screw(u * rng.uniform(0.1, 3.0), Vec3(*(rng.uniform(-2, 2) for _ in range(3))))
        g = exp_screw(s, 1.0)
        for _ in range(20):
            p0 = Point(*(rng.uniform(-3, 3) for _ in range(3)))
            assert (g.apply(p0) - _rk4_flow(s, p0)).norm() <= 1e-8


@given(flow_screws, points)
def test_fundamental_field_is_the_screw(s, p):
    """Central finite difference of t -> exp(s,t)(P) at t=0 recovers s(P)."""
    h = 1e-5
    fd = (exp_screw(s, h).apply(p) - exp_screw(s, -h).apply(p)) * (1.0 / (2.0 * h))
    assert_vec_close(fd, s.value_at(p), tol=1e-7)


@given(unit_vec3s, points, st.floats(min_value=0.05, max_value=3.0), st.floats(min_value=-1.0, max_value=1.0))
def test_zero_pitch_axis_points_slide_along_axis_only(u, q, omega, t):
    s = Screw.from_applied_vector(q, u * omega)
    g = exp_screw(s, t)
    moved = g.apply(q) - q
    # Zero pitch: axis points do not move at all; in general the displacement
    # of an axis point has no component perpendicular to the axis.
    assert (moved - u * moved.dot(u)).norm() < 1e-10
    assert moved.norm() < 1e-10


@given(flow_screws)
def test_log_exp_round_trip_principal_branch(s):
    if s.resultant.norm() >= math.pi - 1e-3:
        return
    dec = chasles(exp_screw(s, 1.0))
    assert_screw_close(dec.to_screw(), s, tol=1e-9)


def test_log_exp_round_trip_100_fixed_seeds():
    rng = random.Random(77)
    for _ in range(100):
        u = Vec3(rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1)).normalized()
        theta = rng.uniform(1e-3, math.pi - 1e-3)
        s = Screw(u * theta, Vec3(*(rng.uniform(-2, 2) for _ in range(3))))
        g = exp_screw(s, 1.0)
        back = chasles(g)
        assert_screw_close(back.to_screw(), s, tol=1e-9)
        assert back.to_rigid_map().isclose(g, rel=1e-9, abs_=1e-9)


def test_log_exp_round_trip_small_angles_across_scales():
    # Angles 1e-12..1e-2 under moments 1e-6..1e6: the angle comes from atan2
    # and the screw is never mistaken for a free one.
    rng = random.Random(13)
    for _ in range(2000):
        u = Vec3(rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1)).normalized()
        theta = 10.0 ** rng.uniform(-12.0, -2.0)
        m = Vec3(rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1)) * 10.0 ** rng.uniform(-6.0, 6.0)
        s = Screw(u * theta, m)
        dec = chasles(exp_screw(s, 1.0))
        assert abs(dec.angle - theta) <= 1e-12 * theta
        back = dec.to_screw()
        assert (back.resultant - s.resultant).norm() <= 1e-9 * s.resultant.norm()
        assert (back.moment_at_origin - m).norm() <= 1e-9 * m.norm()


@given(screws)
def test_exp_log_reproduces_the_map(s):
    """Even past the principal branch the decomposition reproduces the map
    (the screw itself is only unique for |resultant| < pi)."""
    g = exp_screw(s, 1.0)
    dec = chasles(g)
    assert 0.0 <= dec.angle <= math.pi + 1e-12
    # near the half-turn the angle extraction loses half the digits
    # (acos at -1), so the map round-trip is held to 1e-7 rather than 1e-9
    assert dec.to_rigid_map().isclose(g, rel=1e-7, abs_=1e-7)


def test_log_of_half_turn_about_z():
    g = RigidMap(Mat3(-1.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0, 0.0, 1.0), Vec3.zero())
    dec = chasles(g)
    assert abs(dec.angle - math.pi) <= 1e-12
    assert abs(dec.slide) <= 1e-12
    assert isinstance(dec.axis, LineAxis)
    # axis is the z line through the origin; its orientation is not pinned
    assert abs(abs(dec.axis.direction.z) - 1.0) <= 1e-12
    assert dec.axis.point.to_vec().cross(dec.axis.direction).norm() <= 1e-12
    assert dec.to_rigid_map().isclose(g, rel=1e-12, abs_=1e-12)


def test_log_of_half_turn_with_slide():
    u = Vec3(0.0, 0.0, 1.0)
    g = rodrigues(u, math.pi)
    g = RigidMap(g, Vec3(0.4, -0.2, 0.7))
    dec = chasles(g)
    assert abs(dec.angle - math.pi) <= 1e-9
    assert abs(abs(dec.slide) - 0.7) <= 1e-9
    assert dec.to_rigid_map().isclose(g, rel=1e-9, abs_=1e-9)


# From the symmetric part of R, the axis comes out along +(1, 1, 0) for both
# u and -u; for -u it is flipped to agree with the antisymmetric part.
@pytest.mark.parametrize(
    "u", [Vec3(1.0, 1.0, 0.0).normalized(), -Vec3(1.0, 1.0, 0.0).normalized()], ids=["u", "minus-u"]
)
def test_log_just_below_half_turn_keeps_axis_sign(u):
    theta = math.pi - 1e-7
    s = Screw.from_applied_vector(Point(0.2, 0.0, -0.4), u * theta)
    g = exp_screw(s, 1.0)
    dec = chasles(g)
    assert isinstance(dec.axis, LineAxis)
    assert dec.axis.direction.dot(u) > 0.0
    assert dec.to_rigid_map().isclose(g, rel=1e-7, abs_=1e-7)


@given(vec3s)
def test_log_of_pure_translation(v):
    dec = chasles(RigidMap(Mat3.identity(), v))
    assert dec.angle == 0.0
    assert dec.slide == 0.0
    assert isinstance(dec.axis, DegenerateAxis)
    assert dec.pure_translation == v
    assert_screw_close(dec.to_screw(), Screw.from_free_vector(v))


@given(screws, points, points)
def test_rigid_maps_are_isometries(s, p, q):
    g = exp_screw(s, 1.0)
    assert_scalar_close(
        (g.apply(p) - g.apply(q)).norm(), (p - q).norm(), tol=1e-12
    )


@given(screws, screws, points)
def test_compose_order_and_inverse(s1, s2, p):
    g1 = exp_screw(s1, 1.0)
    g2 = exp_screw(s2, 1.0)
    composed = g2.compose(g1)
    assert_vec_close(
        composed.apply(p) - ORIGIN, g2.apply(g1.apply(p)) - ORIGIN, tol=1e-11
    )
    assert g1.compose(RigidMap.identity()).isclose(g1)
    assert g1.compose(g1.inverse()).isclose(RigidMap.identity(), abs_=1e-12)
    assert g1.inverse().compose(g1).isclose(RigidMap.identity(), abs_=1e-12)


def test_rotation_validation():
    with pytest.raises(InvalidRotationError):
        RigidMap(Mat3(1.0, 0.1, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0), Vec3.zero())
    with pytest.raises(InvalidRotationError):
        # orthonormal but orientation-reversing
        RigidMap(Mat3(1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, -1.0), Vec3.zero())


@pytest.mark.parametrize("index", [0, 4, 7])
@pytest.mark.parametrize("entry", [2.5, 1e154, 1e200, -1.7e308])
def test_rotation_with_a_huge_entry_is_an_invalid_rotation(index, entry):
    # Past about 1.3e154 the entry's square, and with it R^T R, overflows:
    # the block is still refused as no rotation, not as a non-finite product.
    entries = [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]
    entries[index] = entry
    with pytest.raises(InvalidRotationError, match="not orthonormal"):
        RigidMap(Mat3(*entries), Vec3.zero())


def test_chasles_to_screw_requires_line_axis_unless_translation():
    dec = ChaslesDecomposition(
        axis=LineAxis(Point(0.0, 0.0, 0.0), Vec3(0.0, 0.0, 1.0)),
        angle=math.pi / 3.0,
        slide=0.25,
    )
    s = dec.to_screw()
    assert_vec_close(s.resultant, Vec3(0.0, 0.0, math.pi / 3.0))
    assert_scalar_close(s.vector_invariant().norm(), 0.25, tol=1e-12)


def test_chasles_to_screw_of_a_degenerate_axis_without_translation_raises():
    # A raise, not an assert, so the check holds under ``python -O`` too.
    with pytest.raises(ZeroScrewError):
        ChaslesDecomposition(DegenerateAxis(), 0.0, 0.0).to_screw()
