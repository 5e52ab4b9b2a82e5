"""Core screw behaviour: the constitutive equation, invariants, axis, pitch.

The screw is pinned down by one identity — the field values at two points
differ by the resultant crossed with the separation — and everything else
here (invariants, axis, pitch, decompositions) is derived from it, so most
tests are property-based with a handful of frozen hand-computed values.
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
    bit_outcome,
    composed_axis,
    composed_pitch,
    composed_vector_invariant,
    coords,
    edge_points,
    edge_screws,
    edge_vec3s,
    line_screws,
    points,
    scaled_vec3s,
    screws,
    small_params,
    sum_outcome,
    values_built,
    vec3s,
)
from screwalg import (
    ORIGIN,
    DegenerateAxis,
    FinitePitch,
    InfinitePitch,
    LineAxis,
    NonFiniteError,
    Point,
    Screw,
    Vec3,
    ZeroScrewPitch,
)


@given(screws, points, points)
def test_constitutive_equation(s, p, q):
    """s(P) - s(Q) = resultant x (P - Q), the defining identity."""
    lhs = s.value_at(p) - s.value_at(q)
    rhs = s.resultant.cross(p - q)
    assert_vec_close(lhs, rhs, tol=1e-12)


@given(screws, points, points)
def test_rebasing_gives_the_same_screw(s, p, q):
    """Reading off (resultant, value) at any point reconstructs the same
    field: canonical storage does not privilege the origin semantically."""
    from_p = Screw.from_motor(p, s.resultant, s.value_at(p))
    from_q = Screw.from_motor(q, s.resultant, s.value_at(q))
    assert_screw_close(from_p, from_q)
    assert_screw_close(from_p, s)


@given(vec3s, points)
def test_free_screw_is_constant(v, p):
    s = Screw.from_free_vector(v)
    assert s.resultant == Vec3.zero()
    assert s.value_at(p) == v


@given(points, vec3s)
def test_applied_screw_vanishes_at_its_point(q, w):
    assert Screw.from_applied_vector(q, w).value_at(q).norm() <= 1e-12 * max(
        1.0, w.norm() * q.to_vec().norm()
    )


def test_evaluate_examples():
    s = Screw(Vec3(0.0, 0.0, 1.0), Vec3.zero())
    assert s.value_at(Point(1.0, 0.0, 0.0)) == Vec3(0.0, 1.0, 0.0)
    applied = Screw.from_applied_vector(ORIGIN, Vec3(0.0, 0.0, 1.0))
    assert applied.value_at(Point(1.0, 0.0, 0.0)) == Vec3(0.0, 1.0, 0.0)
    assert applied.pitch() == FinitePitch(0.0)


def test_from_motor_transports_to_origin():
    # Unit resultant along z applied on the line through (1,0,0): the field
    # at the origin is (0,0,1) x (0,0,0)-(1,0,0)) = (0,-1,0).
    s = Screw.from_motor(Point(1.0, 0.0, 0.0), Vec3(0.0, 0.0, 1.0), Vec3.zero())
    assert s.moment_at_origin == Vec3(0.0, -1.0, 0.0)
    same = Screw.from_applied_vector(Point(1.0, 0.0, 0.0), Vec3(0.0, 0.0, 1.0))
    assert s == same


def test_from_motor_at_origin_is_representation_identity():
    s = Screw.from_motor(ORIGIN, Vec3(1.0, 2.0, 3.0), Vec3(4.0, 5.0, 6.0))
    assert s == Screw(Vec3(1.0, 2.0, 3.0), Vec3(4.0, 5.0, 6.0))


@given(screws, points)
def test_scalar_invariant_point_independent(s, p):
    assert_scalar_close(s.value_at(p).dot(s.resultant), s.scalar_invariant(), tol=1e-12)


def test_scalar_invariant_value():
    assert Screw(Vec3(0.0, 0.0, 1.0), Vec3(1.0, 1.0, 4.0)).scalar_invariant() == 4.0


@given(points, vec3s)
def test_applied_and_free_scalar_invariants_vanish(q, w):
    assert abs(Screw.from_applied_vector(q, w).scalar_invariant()) <= 1e-12 * max(
        1.0, w.norm() ** 2 * q.to_vec().norm()
    )
    assert Screw.from_free_vector(w).scalar_invariant() == 0.0


def test_vector_invariant_values():
    s = Screw(Vec3(0.0, 0.0, 2.0), Vec3(3.0, 0.0, 1.0))
    assert s.vector_invariant() == Vec3(0.0, 0.0, 1.0)
    v = Vec3(1.0, -2.0, 0.5)
    assert Screw.from_free_vector(v).vector_invariant() == v


@given(line_screws, points)
def test_vector_invariant_from_any_point(s, p):
    """Projecting the field value at any point onto the resultant gives the
    same vector, the field's value on the axis."""
    w = s.resultant
    proj = w * (s.value_at(p).dot(w) / w.dot(w))
    assert_vec_close(proj, s.vector_invariant(), tol=1e-12)


@given(line_screws)
def test_axis_minimality_and_membership(s):
    axis = s.axis()
    assert isinstance(axis, LineAxis)
    floor = s.vector_invariant().norm()
    rng = random.Random(961)
    for _ in range(100):
        p = Point(*(rng.uniform(-10.0, 10.0) for _ in range(3)))
        assert s.value_at(p).norm() >= floor - 1e-12 * max(1.0, floor)
    for t in (-3.0, -0.5, 0.0, 1.0, 7.5):
        on_axis = axis.point + axis.direction * t
        assert_vec_close(s.value_at(on_axis), s.vector_invariant(), tol=1e-10)


def test_axis_example_and_degenerate_cases():
    s = Screw(Vec3(0.0, 0.0, 1.0), Vec3(0.0, 1.0, 0.0))
    axis = s.axis()
    assert isinstance(axis, LineAxis)
    # Q = w x s(O) / |w|^2 lands on the negative x side; the field vanishes
    # there, confirming it as the minimum locus.
    assert_vec_close(axis.point - ORIGIN, Vec3(-1.0, 0.0, 0.0))
    assert axis.direction == Vec3(0.0, 0.0, 1.0)
    assert s.value_at(axis.point).norm() <= 1e-15

    assert isinstance(Screw.from_free_vector(Vec3(1.0, 0.0, 0.0)).axis(), DegenerateAxis)
    assert isinstance(Screw.zero().axis(), DegenerateAxis)


@given(points, vec3s)
def test_applied_screw_axis_through_its_point(q, w):
    if w.norm() <= 1e-2:
        return
    axis = Screw.from_applied_vector(q, w).axis()
    assert isinstance(axis, LineAxis)
    # The axis passes through q: the offset from q is parallel to the direction.
    offset = axis.point - q
    assert offset.cross(axis.direction).norm() <= 1e-10 * max(1.0, offset.norm())
    assert_vec_close(axis.direction, w.normalized(), tol=1e-12)


def test_pitch_values():
    assert Screw(Vec3(0.0, 0.0, 1.0), Vec3(0.0, 0.0, 1.0)).pitch() == FinitePitch(
        2.0 * math.pi
    )
    assert Screw.from_free_vector(Vec3(0.0, 0.0, 5.0)).pitch() == InfinitePitch()
    assert Screw.from_applied_vector(Point(2.0, 0.0, 0.0), Vec3(1.0, 1.0, 0.0)).pitch() == FinitePitch(0.0)
    assert Screw.zero().pitch() == ZeroScrewPitch()


@given(line_screws)
def test_pitch_relates_invariant_to_resultant(s):
    """vector_invariant = (pitch / 2 pi) resultant: the full-turn convention."""
    p = s.pitch()
    assert isinstance(p, FinitePitch)
    assert_vec_close(
        s.vector_invariant(), s.resultant * (p.value / (2.0 * math.pi)), tol=1e-12
    )


def test_amplitude():
    assert Screw(Vec3(3.0, 4.0, 0.0), Vec3.zero()).amplitude() == 5.0
    assert Screw.from_free_vector(Vec3(1.0, 1.0, 1.0)).amplitude() == 0.0


@given(screws, small_params)
def test_amplitude_scales_homogeneously(s, lam):
    assert_scalar_close((s * lam).amplitude(), abs(lam) * s.amplitude(), tol=1e-12)


@given(screws, screws, points)
def test_addition_acts_pointwise(s1, s2, p):
    assert_vec_close((s1 + s2).value_at(p), s1.value_at(p) + s2.value_at(p), tol=1e-12)


@given(screws, screws)
def test_resultant_additivity_exact(s1, s2):
    assert (s1 + s2).resultant == s1.resultant + s2.resultant


@given(screws, screws, screws, small_params)
def test_vector_space_axioms(s1, s2, s3, lam):
    assert_screw_close(s1 + s2, s2 + s1)
    assert_screw_close((s1 + s2) + s3, s1 + (s2 + s3), tol=1e-12)
    assert_screw_close(lam * (s1 + s2), lam * s1 + lam * s2, tol=1e-12)
    assert_screw_close(s1 + Screw.zero(), s1)
    assert_screw_close(s1 - s1, Screw.zero())
    assert_screw_close(-s1, s1 * -1.0)


@given(line_screws)
def test_decomposition_into_invariant_plus_applied(s):
    """s = free(vector invariant) + (resultant applied on the axis)."""
    rebuilt = Screw.from_free_vector(s.vector_invariant()) + Screw.from_applied_vector(
        s.axis().point, s.resultant
    )
    assert_screw_close(rebuilt, s, tol=1e-10)


def test_rotation_couple_is_a_translation():
    # Opposite resultants on parallel lines an arm apart: the fields add up
    # to a constant of magnitude |w| * arm, perpendicular to both.
    w = Vec3(0.0, 0.0, 3.0)
    q1 = Point(0.0, 0.0, 0.0)
    q2 = Point(2.0, 0.0, 0.0)
    couple = Screw.from_applied_vector(q1, w) + Screw.from_applied_vector(q2, -w)
    assert couple.resultant == Vec3.zero()
    value = couple.value_at(Point(17.0, -4.0, 2.5))
    assert_vec_close(value, Vec3(0.0, 6.0, 0.0))
    assert abs(value.norm() - w.norm() * 2.0) <= 1e-12
    assert value.dot(w) == 0.0
    assert value.dot(q2 - q1) == 0.0


@given(screws)
def test_equality_is_exact_isclose_is_tolerant(s):
    assert s == Screw(s.resultant, s.moment_at_origin)
    nudged = Screw(s.resultant + Vec3(1e-14, 0.0, 0.0), s.moment_at_origin)
    assert s.isclose(nudged)
    far = Screw(s.resultant + Vec3(1.0, 0.0, 0.0), s.moment_at_origin)
    assert not s.isclose(far)


def test_zero_screw_predicates():
    assert Screw.zero().is_zero()
    assert Screw.zero().is_free()
    assert Screw.from_free_vector(Vec3(0.0, 1.0, 0.0)).is_free()
    assert not Screw.from_free_vector(Vec3(0.0, 1.0, 0.0)).is_zero()
    assert not Screw(Vec3(1.0, 0.0, 0.0), Vec3.zero()).is_free()
    # Classification is exact: a tiny resultant under a huge moment is a line.
    s = Screw(Vec3(1e-6, 0.0, 0.0), Vec3(1e6, 0.0, 0.0))
    assert not s.is_free()
    assert s.axis() == LineAxis(ORIGIN, Vec3(1.0, 0.0, 0.0))
    assert isinstance(s.pitch(), FinitePitch) and math.isfinite(s.pitch().value)


def test_invariants_whose_direct_forms_overflow_are_finite():
    # w . w, s . w or w x s overflow; the answers do not.
    assert Screw(Vec3(0.0, 0.0, 1e160), Vec3(0.0, 0.0, 1.0)).vector_invariant() == Vec3(0.0, 0.0, 1.0)
    p = Screw(Vec3(0.0, 0.0, 1e160), Vec3(0.0, 0.0, 1e160)).pitch()
    assert isinstance(p, FinitePitch) and math.isclose(p.value, 2.0 * math.pi)
    force = Screw.from_applied_vector(Point(1.0, 0.0, 0.0), Vec3(0.0, 0.0, 1e160))
    assert force.axis() == LineAxis(Point(1.0, 0.0, 0.0), Vec3(0.0, 0.0, 1.0))
    s = Screw(Vec3(1e150, 0.0, 0.0), Vec3(0.0, 1e300, 0.0))
    assert s.axis() == LineAxis(Point(0.0, 0.0, 1e150), Vec3(1.0, 0.0, 0.0))
    assert s.vector_invariant() == Vec3.zero()


def test_invariants_whose_resultant_square_is_subnormal_keep_their_digits():
    s = Screw(Vec3(0.0, 0.0, 1e-160), Vec3(3.0, 0.0, 1.0))
    assert s.vector_invariant().isclose(Vec3(0.0, 0.0, 1.0), rel=1e-15, abs_=0.0)
    assert math.isclose(s.pitch().value, 2.0 * math.pi * 1e160, rel_tol=1e-15)
    assert s.axis().point.isclose(Point(0.0, 3e160, 0.0), rel=1e-15, abs_=0.0)


def test_pitch_beyond_the_float_range_is_refused():
    # 2 pi * 1e160 / 1e-160 overflows; the axis and the vector invariant do not.
    s = Screw(Vec3(0.0, 0.0, 1e-160), Vec3(0.0, 0.0, 1e160))
    with pytest.raises(NonFiniteError, match="pitch must be finite, got inf"):
        s.pitch()
    assert s.axis() == LineAxis(ORIGIN, Vec3(0.0, 0.0, 1.0))
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(NonFiniteError):
            FinitePitch(bad)


def _direct_forms(s: Screw) -> tuple[Vec3, Point, float]:
    """Oracle for the unit-direction forms: the vector invariant, axis point
    and pitch written directly over w . w, as w (s . w) / w . w,
    w x s / w . w and 2 pi (s . w) / w . w, with s the field at the origin."""
    w, m = s.resultant, s.moment_at_origin
    w2 = w.dot(w)
    return w * (m.dot(w) / w2), ORIGIN + w.cross(m) / w2, 2.0 * math.pi * m.dot(w) / w2


# Worst deviation from the direct forms measured over 2 x 10^5 screws with
# resultant and moment at independent scales 1e-6..1e6: 6.3e-16 of the
# natural scale (|s|, |s| / |w| and 2 pi |s| / |w|).
_DIRECT_FORM_RTOL = 1e-15


def test_invariants_agree_with_their_direct_forms():
    rng = random.Random(8)

    def vec() -> Vec3:
        scale = 10.0 ** rng.uniform(-6.0, 6.0)
        return Vec3(*(rng.uniform(-1.0, 1.0) * scale for _ in range(3)))

    for _ in range(2000):
        s = Screw(vec(), vec())
        invariant, point, pitch = _direct_forms(s)
        m, n = s.moment_at_origin.norm(), s.amplitude()
        assert (s.vector_invariant() - invariant).norm() <= _DIRECT_FORM_RTOL * m
        assert (s.axis().point - point).norm() <= _DIRECT_FORM_RTOL * m / n
        assert abs(s.pitch().value - pitch) <= _DIRECT_FORM_RTOL * 2.0 * math.pi * m / n


# Components that are 0 or of magnitude 1e-100..1e100: scaled by up to 1e6
# either way, their squares neither underflow nor overflow.
_wide_components = st.one_of(
    st.just(0.0),
    st.builds(
        lambda e, sign: sign * 10.0 ** e,
        st.floats(min_value=-100.0, max_value=100.0),
        st.sampled_from([1.0, -1.0]),
    ),
)
_wide_vec3s = st.builds(Vec3, _wide_components, _wide_components, _wide_components)


def _classify(s: Screw) -> tuple:
    return (s.is_zero(), s.is_free(), type(s.axis()), type(s.pitch()))


@given(
    st.builds(Screw, _wide_vec3s, _wide_vec3s),
    st.floats(min_value=-6.0, max_value=6.0).map(lambda e: 10.0 ** e),
)
@example(Screw(Vec3(0.0, 0.0, 1e-10), Vec3.zero()), 1e6)
@example(Screw(Vec3.zero(), Vec3(1e-13, 0.0, 0.0)), 1e6)
def test_classification_does_not_depend_on_the_units(s, k):
    assert _classify(s * k) == _classify(s)


def test_the_field_is_read_and_set_at_points_only():
    s, v = Screw(Vec3(0.0, 0.0, 1.0), Vec3(1.0, 0.0, 0.0)), Vec3(1.0, 2.0, 3.0)
    with pytest.raises(TypeError, match="value_at takes a Point, got Vec3"):
        s.value_at(v)  # type: ignore[arg-type]
    with pytest.raises(TypeError, match="from_motor takes a Point, got Vec3"):
        Screw.from_motor(v, s.resultant, v)  # type: ignore[arg-type]


# value_at and from_motor each build their field value as one Vec3; these pin
# them to the bit to the composed expressions they replace.


@bit_examples
@given(edge_screws, edge_points)
# The cross product (1.7e308, 0, 0) is finite and the sum is not.
@example(Screw(Vec3(0.0, 0.0, 1.0), Vec3(1.7e308, 0.0, 0.0)), Point(0.0, -1.7e308, 0.0))
def test_value_at_is_the_composed_field_bit_for_bit(s, p):
    assert bit_outcome(s.value_at, p) == bit_outcome(
        lambda p: s.moment_at_origin + s.resultant.cross(p - ORIGIN), p
    )


@bit_examples
@given(edge_points, edge_vec3s, edge_vec3s)
@example(Point(0.0, 0.0, 0.0), Vec3(-0.0, 1.0, 0.0), Vec3(-0.0, -0.0, -0.0))
def test_from_motor_is_the_composed_screw_bit_for_bit(p, w, v):
    # At p = ORIGIN, O - P is (0.0, 0.0, 0.0); -p would be all -0.0 and give
    # the example a moment of (0.0, -0.0, 0.0) instead of (0.0, 0.0, -0.0).
    assert bit_outcome(Screw.from_motor, p, w, v) == bit_outcome(
        lambda p, w, v: Screw(w, v + w.cross(ORIGIN - p)), p, w, v
    )


# Screw.axis, vector_invariant and pitch read the axis core screw._axis, which
# chasles, the two-vector reduction and the reduction report share; each is
# its composed form (conftest.composed_axis, composed_vector_invariant and
# composed_pitch) to the bit.


@bit_examples
@given(st.one_of(edge_screws, st.builds(Screw, scaled_vec3s, scaled_vec3s)))
# u x m overflows, with |w| = 2, and u x m / |w| overflows, |w|^2 = 1e-320 being subnormal; the cross product's
# zeros carry signs that O + p turns positive.
@example(Screw(Vec3(0.0, 1.2, 1.6), Vec3(1.0, -1.7e308, 1.7e308)))
@example(Screw(Vec3(1e-160, 0.0, 0.0), Vec3(0.0, 1e150, 0.0)))
@example(Screw(Vec3(-1.0, -0.0, 0.0), Vec3(-0.0, -0.0, 0.0)))
def test_axis_is_the_composed_axis_bit_for_bit(s):
    assert sum_outcome(s.axis) == sum_outcome(composed_axis, s)


@bit_examples
@given(st.one_of(edge_screws, st.builds(Screw, scaled_vec3s, scaled_vec3s)))
# w . w overflows, and is subnormal; m . u overflows; signed zeros.
@example(Screw(Vec3(0.0, 0.0, 1e160), Vec3(0.0, 0.0, 1.0)))
@example(Screw(Vec3(0.0, 0.0, 1e-160), Vec3(3.0, 0.0, 1.0)))
@example(Screw(Vec3(1.0, 1.0, 0.0), Vec3(1.7e308, 1.7e308, 0.0)))
@example(Screw(Vec3(-1.0, -0.0, 0.0), Vec3(-0.0, -0.0, 0.0)))
def test_vector_invariant_is_the_composed_vector_invariant_bit_for_bit(s):
    assert sum_outcome(s.vector_invariant) == sum_outcome(composed_vector_invariant, s)


@bit_examples
@given(st.one_of(edge_screws, st.builds(Screw, scaled_vec3s, scaled_vec3s)))
# s . w overflows, and w . w is subnormal, with a finite pitch; the pitch
# overflows; signed zeros.
@example(Screw(Vec3(0.0, 0.0, 1e160), Vec3(0.0, 0.0, 1e160)))
@example(Screw(Vec3(0.0, 0.0, 1e-160), Vec3(3.0, 0.0, 1.0)))
@example(Screw(Vec3(0.0, 0.0, 1e-160), Vec3(0.0, 0.0, 1e160)))
@example(Screw(Vec3(-1.0, -0.0, 0.0), Vec3(-0.0, -0.0, 0.0)))
def test_pitch_is_the_composed_pitch_bit_for_bit(s):
    assert sum_outcome(s.pitch) == sum_outcome(composed_pitch, s)


def test_axis_builds_its_point_and_direction_only():
    assert values_built(Screw(Vec3(0.0, 0.0, 2.0), Vec3(1.0, 2.0, 3.0)).axis) == 2
    assert values_built(Screw.from_free_vector(Vec3(1.0, 2.0, 3.0)).axis) == 0


def test_vector_invariant_and_pitch_build_their_result_only():
    s = Screw(Vec3(0.0, 0.0, 2.0), Vec3(1.0, 2.0, 3.0))
    assert values_built(s.vector_invariant) == 1
    assert values_built(s.pitch) == 0
