"""Exponential flow of screws, Chasles decomposition, rigid-map algebra.

The flow is validated against an independent RK4 integration of the field
(the formula never gets to grade its own homework), and the logarithm is
exercised on all three of its branches: generic angle, near-zero, near-pi.
The float kernels ``exp_screw`` and ``chasles`` and the rotation check of
``RigidMap`` are held to the bit, and in what they refuse, to the composed
``Vec3``/``Mat3`` forms kept here as their oracles.
"""

import math
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import (
    assert_scalar_close,
    assert_screw_close,
    assert_vec_close,
    bit_examples,
    cli_status,
    composed_axis,
    composed_unit,
    coords,
    edge_mat3s,
    edge_screws,
    edge_vec3s,
    points,
    refusal,
    scaled_vec3s,
    screws,
    small_params,
    sum_outcome,
    unit_vec3s,
    values_built,
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
    rigid,
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
@example(Screw(Vec3(0.0, 5e-324, 0.0), Vec3(0.0, 0.0, 1.0)))
def test_exp_log_reproduces_the_map(s):
    """Even past the principal branch the decomposition reproduces the map
    (the screw itself is only unique for |resultant| < pi).  A rotation by
    an angle so small that the axis point |u x t| / angle is beyond the
    float range (|t| is at most 4 sqrt(3) here) is a line screw all the
    same, and its axis point is refused."""
    g = exp_screw(s, 1.0)
    refused = refusal(chasles, g)
    if refused is not None:
        assert refused.startswith("Point components must be finite") and 0.0 < s.amplitude() < 1e-300
        return
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


# The composed forms that the kernels fuse, kept as their bit oracles: each
# builds every intermediate through the checking constructors.  They read the
# kernels' own coefficient functions and constants, which are defined once.


def _composed_rotation_check(r: Mat3, t: Vec3) -> RigidMap:
    """RigidMap(r, t) with its checks as the Mat3 expressions they fuse."""
    if not (r.max_abs() <= 2.0 and (r.transpose().matmul(r) - Mat3.identity()).max_abs() <= rigid._ROTATION_TOL):
        raise InvalidRotationError(f"rotation block is not orthonormal within {rigid._ROTATION_TOL}")
    if abs(r.row(0).dot(r.row(1).cross(r.row(2))) - 1.0) > rigid._ROTATION_TOL:
        raise InvalidRotationError("rotation block must have determinant +1")
    return RigidMap(r, t)


def _composed_exp_screw(s: Screw, t: float) -> RigidMap:
    if s.is_free():
        return _composed_rotation_check(Mat3.identity(), s.moment_at_origin * t)
    omega, u = composed_unit(s.resultant)
    theta = omega * t
    rot = rodrigues(u, theta)
    f1, f2 = rigid._exp_coeffs(theta)
    m = s.moment_at_origin
    um = u.cross(m)
    uum = u.cross(um)
    trans = (m + f1 * um + f2 * uum) * t
    return _composed_rotation_check(rot, trans)


def _composed_axis_from_symmetric_part(r: Mat3, w: Vec3, cos_theta: float) -> Vec3:
    m = 0.5 * (r + r.transpose()) - cos_theta * Mat3.identity()
    diag = (m.xx, m.yy, m.zz)
    j = max(range(3), key=lambda i: diag[i])
    _, u = composed_unit(m.column(j))
    if w.norm() > 1e-12 and w.dot(u) < 0.0:
        u = -u
    return u


def _composed_chasles(g: RigidMap) -> ChaslesDecomposition:
    r = g.rotation
    tv = g.translation
    w = Vec3(r.zy - r.yz, r.xz - r.zx, r.yx - r.xy)
    trace_less_one = r.trace() - 1.0
    theta = math.atan2(w.norm(), trace_less_one)
    s = Screw.from_free_vector(tv)
    if theta > 0.0:
        if math.pi - theta < rigid._NEAR_PI:
            u = _composed_axis_from_symmetric_part(r, w, 0.5 * trace_less_one)
        else:
            _, u = composed_unit(w)
        utv = u.cross(tv)
        s = Screw(u * theta, tv - (0.5 * theta) * utv + rigid._log_coeff(theta) * u.cross(utv))
    if s.is_free():
        return ChaslesDecomposition(DegenerateAxis(), 0.0, 0.0, pure_translation=tv)
    axis = composed_axis(s)
    slide = s.moment_at_origin.dot(axis.direction)
    return ChaslesDecomposition(axis=axis, angle=theta, slide=slide)


# Angles on both sides of each branch constant: around _SERIES_ANGLE, inside
# and outside the band pi - _NEAR_PI, at and past the half turn, and below
# about 1.5e-162, where the squared angle underflows to 0.0 and the screw is
# still a line.
_kernel_angles = st.one_of(
    st.floats(-7.0, 7.0),
    st.floats(-6.0, -3.0).map(lambda e: 10.0 ** e),
    st.floats(-9.0, -4.0).map(lambda e: math.pi - 10.0 ** e),
    st.floats(-9.0, -4.0).map(lambda e: math.pi + 10.0 ** e),
    st.floats(-200.0, -150.0).map(lambda e: 10.0 ** e),
    st.sampled_from([math.pi, rigid._SERIES_ANGLE, math.pi - rigid._NEAR_PI, 1.5e-162]),
)
_kernel_moments = st.one_of(vec3s, edge_vec3s, scaled_vec3s)
_kernel_screws = st.one_of(
    st.builds(lambda u, a, m: Screw(u * a, m), _axes, _kernel_angles, _kernel_moments),
    edge_screws,
)
# Mostly t = 1; also parameters that overflow the angle or the translation
# partway, and the non-finite ones.
_kernel_params = st.one_of(
    st.just(1.0),
    small_params,
    st.floats(-30.0, 30.0).map(lambda e: 10.0 ** e),
    st.sampled_from([1e308, -1e308, 1e-300, -0.0, math.inf, math.nan]),
)


@bit_examples
@given(_kernel_screws, _kernel_params)
# The angle overflows; the translation overflows at its last step, * t; u x m
# overflows; |w|^2 = 1e-320 is subnormal, not 0.0, so the screw is no free one.
@example(Screw(Vec3(0.0, 0.0, 10.0), Vec3.zero()), 1e308)
@example(Screw(Vec3(0.0, 0.0, 0.5), Vec3(0.0, 0.0, 2.0)), 1e308)
@example(Screw(Vec3(0.0, 0.6, 0.8), Vec3(0.0, -1.7e308, 1.7e308)), 1.0)
@example(Screw(Vec3(1e-160, 0.0, 0.0), Vec3(1.0, 2.0, 3.0)), 1.0)
@example(Screw(Vec3(-0.0, 0.0, -0.0), Vec3(1e300, -0.0, 1.0)), 1e10)
def test_exp_screw_is_the_composed_flow_bit_for_bit(s, t):
    assert sum_outcome(exp_screw, s, t) == sum_outcome(_composed_exp_screw, s, t)


@given(_kernel_screws, _kernel_params)
def test_exp_exits_as_the_composed_flow_refuses(s, t):
    """Where a refusal reaches the command line: ``exp`` exits 3 where the
    composed flow refuses, 2 for a t that is not finite, and 0 otherwise."""
    doc = {"version": 1, "twists": [
        {"omega": list(s.resultant.components()), "moment_at_origin": list(s.moment_at_origin.components())}
    ]}
    if not math.isfinite(t):
        want = 2
    else:
        want = 3 if isinstance(sum_outcome(_composed_exp_screw, s, t), type) else 0
    assert cli_status("exp", doc, "--t", repr(t)) == want


def _flow_or_none(s: Screw):
    try:
        return exp_screw(s, 1.0)
    except (NonFiniteError, InvalidRotationError):
        return None


# Half turns about a coordinate axis, with zeros of either sign off the
# diagonal: the axis taken from the symmetric part keeps their signs.
_half_turns = st.builds(
    lambda d, z: Mat3(d[0], z[0], z[1], z[2], d[1], z[3], z[4], z[5], d[2]),
    st.sampled_from([(-1.0, -1.0, 1.0), (-1.0, 1.0, -1.0), (1.0, -1.0, -1.0)]),
    st.lists(st.sampled_from([0.0, -0.0]), min_size=6, max_size=6),
)
_kernel_maps = st.one_of(
    st.builds(_flow_or_none, _kernel_screws).filter(lambda g: g is not None),
    st.builds(
        RigidMap,
        st.one_of(st.builds(rodrigues, _axes, _kernel_angles), _half_turns),
        _kernel_moments,
    ),
)


@bit_examples
@given(_kernel_maps)
# u x t overflows where the squared angle underflows, and a line axis comes
# back where it does not; exact and near half turns; the moment overflows
# near a half turn; a rotation of 1e-170 with a translation of 1.
@example(RigidMap(rodrigues(Vec3(0.0, 0.6, 0.8), 1e-170), Vec3(0.0, -1.7e308, 1.7e308)))
@example(RigidMap(rodrigues(Vec3(0.0, 0.6, 0.8), 1e-170), Vec3(1.0, 2.0, 3.0)))
@example(RigidMap(Mat3(-1.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0, 0.0, 1.0), Vec3(0.4, -0.2, 0.7)))
@example(RigidMap(rodrigues(Vec3(0.6, 0.0, -0.8), math.pi - 1e-7), Vec3(-0.0, 0.0, 1.0)))
@example(RigidMap(rodrigues(Vec3(0.6, 0.0, -0.8), math.pi - 1e-7), Vec3(1.7e308, -1.7e308, 1.7e308)))
@example(RigidMap(Mat3(-1.0, -0.0, -0.0, -0.0, -1.0, -0.0, -0.0, -0.0, 1.0), Vec3(0.4, -0.2, 0.7)))
# An axial part w = (8e-11, 0, 0) perpendicular to the axis (0, 0, 1) that
# the symmetric part gives: w . u is 0.0, which does not flip u.
@example(RigidMap(Mat3(-1.0, 0.0, 0.0, 0.0, -1.0, -4e-11, 0.0, 4e-11, 1.0), Vec3(0.4, -0.2, 0.7)))
def test_chasles_is_the_composed_decomposition_bit_for_bit(g):
    assert sum_outcome(chasles, g) == sum_outcome(_composed_chasles, g)


def test_a_moment_beyond_the_float_range_is_refused_by_name():
    g = RigidMap(rodrigues(Vec3(0.0, 0.6, 0.8), 1e-170), Vec3(0.0, -1.7e308, 1.7e308))
    assert refusal(chasles, g) == "moment of the screw motion is not finite"


@given(_kernel_maps)
@example(RigidMap(rodrigues(Vec3(0.0, 0.6, 0.8), 1e-170), Vec3(0.0, -1.7e308, 1.7e308)))
@example(RigidMap(rodrigues(Vec3(0.6, 0.0, -0.8), math.pi - 1e-7), Vec3(1.7e308, -1.7e308, 1.7e308)))
def test_log_exits_as_the_composed_decomposition_refuses(g):
    """Where a refusal reaches the command line: ``log`` exits 3 where the
    composed decomposition or its screw refuses, or its slide is not
    finite, and 0 otherwise."""
    doc = {"version": 1, "rigid_map": {"rotation": list(g.rotation.flat()),
                                       "translation": list(g.translation.components())}}
    try:
        dec = _composed_chasles(g)
        dec.to_screw()
        want = 0 if math.isfinite(dec.slide) else 3
    except NonFiniteError:
        want = 3
    assert cli_status("log", doc) == want


# Near rotations: one entry moved by about the tolerance, or the whole
# matrix scaled by 1 + d, which moves the determinant by about 3 d and the
# orthonormality defect by 2 d; and their reflections.
_rotations = st.builds(rodrigues, _axes, _kernel_angles)
_near_rotations = st.builds(
    lambda r, i, d, sign: Mat3(*(sign * (x + d if k == i else x) for k, x in enumerate(r.flat()))),
    st.one_of(_rotations, st.builds(lambda r, d: r * (1.0 + d), _rotations, st.floats(-6e-11, 6e-11))),
    st.integers(0, 8),
    st.sampled_from([0.0, 0.0, 1e-11, -1e-11, 1e-10, 1e-9, 2.5]),
    st.sampled_from([1.0, -1.0]),
)


@bit_examples
@given(st.one_of(edge_mat3s, _near_rotations), edge_vec3s)
# Orthonormal within the tolerance (defect 9e-11) with det - 1 = 1.35e-10.
@example(Mat3.identity() * (1.0 + 4.5e-11), Vec3.zero())
def test_rigid_map_checks_its_rotation_as_the_composed_checks(r, t):
    assert sum_outcome(RigidMap, r, t) == sum_outcome(_composed_rotation_check, r, t)


@pytest.mark.parametrize(
    "s",
    [Screw(Vec3(0.0, 0.0, 2.0), Vec3(1.0, 2.0, 3.0)), Screw(Vec3(0.0, 3e-5, 0.0), Vec3(1.0, 2.0, 3.0)),
     Screw.from_free_vector(Vec3(1.0, 2.0, 3.0))],
    ids=["line", "series", "free"],
)
def test_exp_screw_builds_its_rotation_and_translation_only(s):
    assert values_built(exp_screw, s, 0.7) == 2


@pytest.mark.parametrize(
    "g, built",
    [
        (exp_screw(Screw(Vec3(0.0, 0.0, 2.0), Vec3(1.0, 2.0, 3.0)), 1.0), 2),
        (exp_screw(Screw(Vec3(0.0, 0.6, 0.8) * (math.pi - 1e-7), Vec3(1.0, 2.0, 3.0)), 1.0), 2),
        (RigidMap(Mat3(-1.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0, 0.0, 1.0), Vec3(0.4, -0.2, 0.7)), 2),
        (RigidMap(Mat3.identity(), Vec3(1.0, 2.0, 3.0)), 0),
        # The squared angle underflows; the angle does not, so the axis is a line.
        (RigidMap(rodrigues(Vec3(0.0, 0.6, 0.8), 1e-170), Vec3(1.0, 2.0, 3.0)), 2),
    ],
    ids=["line", "near-half-turn", "half-turn", "translation", "underflow"],
)
def test_chasles_builds_its_axis_point_and_direction_only(g, built):
    assert values_built(chasles, g) == built
