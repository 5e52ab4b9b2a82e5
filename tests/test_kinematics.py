import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import (
    BIG,
    assert_screw_close,
    assert_vec_close,
    bit_examples,
    bit_outcome,
    points,
    scaled_points,
    scaled_vec3s,
    spliced,
    sum_outcome,
    twists,
    unit_vec3s,
    vec3s,
)
from screwalg import (
    ORIGIN,
    ForceSystem,
    LineAxis,
    MotionChain,
    NonFiniteError,
    Point,
    Screw,
    Twist,
    Vec3,
    Wrench,
    compose_chain,
    wrench_of,
)

chains = st.lists(twists, min_size=1, max_size=6)


@given(chains)
def test_composition_is_order_independent(tws):
    total = compose_chain(MotionChain(tuple(tws)))
    reversed_total = compose_chain(MotionChain(tuple(reversed(tws))))
    assert_screw_close(total.screw, reversed_total.screw, tol=1e-12)
    if len(tws) >= 2:
        swapped = [tws[1], tws[0], *tws[2:]]
        assert_screw_close(
            total.screw, compose_chain(MotionChain(tuple(swapped))).screw, tol=1e-12
        )


@given(chains)
def test_resultant_additivity_is_exact(tws):
    total = compose_chain(MotionChain(tuple(tws)))
    acc = Vec3.zero()
    for tw in tws:
        acc = acc + tw.angular_velocity
    assert total.angular_velocity == acc


def test_three_coplanar_rotations_field_oracle():
    # Three pure rotations with axes perpendicular to a common plane; the
    # composite field must equal the pointwise sum of the three fields.
    tws = [
        Twist.pure_rotation(Point(0.0, 0.0, 0.0), Vec3(0.0, 0.0, 1.0)),
        Twist.pure_rotation(Point(2.0, 0.5, 0.0), Vec3(0.0, 0.0, -2.5)),
        Twist.pure_rotation(Point(-1.0, 1.5, 0.0), Vec3(0.0, 0.0, 0.75)),
    ]
    total = compose_chain(MotionChain(tuple(tws)))
    assert_vec_close(total.angular_velocity, Vec3(0.0, 0.0, -0.75))
    import random

    rng = random.Random(5150)
    for _ in range(10):
        p = Point(*(rng.uniform(-5, 5) for _ in range(3)))
        summed = Vec3.zero()
        for tw in tws:
            summed = summed + tw.velocity_at(p)
        assert_vec_close(total.velocity_at(p), summed, tol=1e-12)
    axis = total.screw.axis()
    assert isinstance(axis, LineAxis)
    assert total.velocity_at(axis.point).norm() <= 1e-12


@given(vec3s, unit_vec3s, points)
@example(Vec3(0.0, 1.0, 4.4385461108674967e-10), Vec3(0.0, 0.0, 1.0), ORIGIN)
def test_any_translation_is_a_rotation_couple(v, axis_dir, q):
    """Two opposite pure rotations about parallel axes reproduce any
    translation twist: the couple construction made explicit."""
    if v.norm() <= 1e-3:
        return
    # need a rotation axis perpendicular to the target velocity; project even
    # when nearly perpendicular, since any leftover shows up in the moment
    omega = axis_dir - v.normalized() * axis_dir.dot(v.normalized())
    if omega.norm() <= 1e-3:
        return
    omega = omega.normalized()
    arm = v.cross(omega)
    pair = Twist.pure_rotation(q, omega) + Twist.pure_rotation(q + arm, -1.0 * omega)
    assert_screw_close(pair.screw, Twist.pure_translation(v).screw, tol=1e-11)


def test_rotation_plus_perpendicular_translation_shifts_the_axis():
    omega = Vec3(0.0, 0.0, 2.0)
    v = Vec3(0.0, 3.0, 0.0)
    tw = Twist.pure_rotation(ORIGIN, omega) + Twist.pure_translation(v)
    axis = tw.screw.axis()
    assert isinstance(axis, LineAxis)
    assert_vec_close(axis.direction, Vec3(0.0, 0.0, 1.0))
    # parallel axis displaced by |v| / |omega| perpendicular to both
    offset = axis.point - ORIGIN
    assert abs(offset.norm() - v.norm() / omega.norm()) <= 1e-12
    assert abs(offset.dot(omega)) <= 1e-12
    assert tw.velocity_at(axis.point).norm() <= 1e-12


def test_point_velocity_example():
    tw = Twist.pure_rotation(ORIGIN, Vec3(0.0, 0.0, 1.0))
    assert tw.velocity_at(Point(1.0, 0.0, 0.0)) == Vec3(0.0, 1.0, 0.0)
    assert tw.velocity_at(ORIGIN) == Vec3.zero()


@given(points, vec3s, vec3s)
def test_from_motor_reads_back(q, omega, v):
    tw = Twist.from_motor(q, omega, v)
    assert tw.angular_velocity == omega
    assert_vec_close(tw.velocity_at(q), v, tol=1e-12)


@given(vec3s, points)
def test_pure_translation_is_uniform(v, p):
    tw = Twist.pure_translation(v)
    assert tw.velocity_at(p) == v
    assert tw.angular_velocity == Vec3.zero()


def test_empty_chain_rejected():
    with pytest.raises(ValueError):
        MotionChain(())


@given(twists, twists, points)
def test_twist_addition_is_screw_addition(t1, t2, p):
    assert_vec_close(
        (t1 + t2).velocity_at(p), t1.velocity_at(p) + t2.velocity_at(p), tol=1e-12
    )


# -- the screw sum against its composed form, bit for bit --------------------


def _composed_chain(chain: MotionChain) -> Screw:
    """compose_chain as it was written, Screw by Screw: the oracle."""
    total = Screw.zero()
    for tw in chain.relative_twists:
        total = total + tw.screw
    return total


# Pairs of twists whose resultants, or moments, are finite but whose running
# sum is not.
_TWIST_OVERFLOWS = [
    [],
    [Twist(Screw(Vec3(1.5e308, 0.0, -1.0), Vec3(1.0, 2.0, 3.0)))] * 2,
    [Twist(Screw(Vec3(1.0, 2.0, 3.0), Vec3(0.0, -1.5e308, 1.0)))] * 2,
]


@bit_examples
@given(spliced(st.builds(Twist, st.builds(Screw, scaled_vec3s, scaled_vec3s)), _TWIST_OVERFLOWS, min_size=1))
def test_compose_chain_is_the_composed_sum_bit_for_bit(members):
    chain = MotionChain(members)
    assert bit_outcome(lambda: compose_chain(chain).screw) == bit_outcome(_composed_chain, chain)


# Lines on which the sums of the rotations and of the forces overflow
# partway through; no line's own cross product overflows, so each rotation
# is a twist.
_LINE_OVERFLOWS = [
    [],
    [(ORIGIN, Vec3(1.5e308, 0.0, -1.0))] * 2,
    [(Point(0.0, 0.0, BIG), Vec3(BIG, 0.0, 0.0))] * 2,
]


@bit_examples
@given(spliced(st.tuples(scaled_points, scaled_vec3s), _LINE_OVERFLOWS, min_size=1))
def test_composed_rotations_are_the_reduced_forces_bit_for_bit(lines):
    """Angular velocities about lines sum as forces on those lines do (the
    paper's analogy): composing the rotations gives, bit for bit, the screw
    that reducing the forces gives, and both refuse the same sum."""
    chain = MotionChain(tuple(Twist.pure_rotation(p, w) for p, w in lines))
    assert bit_outcome(lambda: compose_chain(chain).screw) == bit_outcome(
        lambda: wrench_of(ForceSystem(lines)).screw
    )


_unit = Screw(Vec3(1.0, 0.0, 0.0), Vec3(0.0, 1.0, 0.0))


@pytest.mark.parametrize("members, refusal", [
    ((Twist(_unit), _unit), AttributeError),
    ((Twist(Screw(Vec3(1.0, 0.0, 0.0), Point(0.0, 1.0, 0.0))),), TypeError),
    ((Twist(Screw(Vec3(1.5e308, 0.0, 0.0), Vec3.zero())),) * 2 + (_unit,), NonFiniteError),
    ((Twist(_unit), Wrench(_unit)), None),
], ids=["screw-as-twist", "point-moment", "overflow-first", "wrench"])
def test_compose_chain_of_a_member_of_another_form_is_the_composed_outcome(members, refusal):
    """A member that is not a screw role over a Screw of two Vec3 is summed,
    or refused, as the composed form sums or refuses it, after the members
    before it."""
    chain = MotionChain(members)
    got = sum_outcome(lambda: compose_chain(chain).screw)
    assert got == sum_outcome(_composed_chain, chain)
    assert got is refusal if refusal is not None else isinstance(got, tuple)
