"""Two-vector reductions: every branch must reproduce its target screw, and
the normalizations that make the result unique must actually hold.  The
float kernel is held to the bit, and in what it refuses, to the composed
``Vec3`` form kept here as its oracle."""

import math

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from conftest import (
    assert_scalar_close,
    assert_screw_close,
    assert_vec_close,
    bit_examples,
    cli_status,
    composed_axis,
    composed_pitch,
    composed_vector_invariant,
    edge_points,
    edge_screws,
    edge_vec3s,
    line_screws,
    nonzero_vec3s,
    points,
    scaled_points,
    scaled_vec3s,
    sum_outcome,
    values_built,
    vec3s,
)
from screwalg import (
    ORIGIN,
    AppliedVectorPair,
    CentralAxisReport,
    FinitePitch,
    ForceSystem,
    LineAxis,
    NonFiniteError,
    Point,
    Screw,
    ScrewAlgError,
    Vec3,
    ZeroScrewError,
    central_axis_report,
    decompose_two_applied,
    reduction,
    wrench_of,
)

free_screws = st.builds(lambda m: Screw.from_free_vector(m), nonzero_vec3s)


@given(line_screws)
def test_general_decomposition_reproduces_the_screw(s):
    assume(abs(s.scalar_invariant()) > 1e-6 * max(1.0, s.amplitude()))
    pair = decompose_two_applied(s)
    assert_screw_close(pair.to_screw(), s, tol=1e-10)


@given(line_screws)
def test_general_legs_are_perpendicular_and_equal(s):
    assume(abs(s.scalar_invariant()) > 1e-6 * max(1.0, s.amplitude()))
    pair = decompose_two_applied(s)
    n1, n2 = pair.vector1.norm(), pair.vector2.norm()
    assert_scalar_close(n1, n2, tol=1e-10)
    assert abs(pair.vector1.dot(pair.vector2)) <= 1e-10 * n1 * n2
    # each leg carries half the resultant plus a correction of the same size
    assert_scalar_close(n1, s.amplitude() / math.sqrt(2.0), tol=1e-9)


@given(free_screws)
def test_couple_decomposition_default_arm(s):
    pair = decompose_two_applied(s)
    m = s.moment_at_origin
    assert_screw_close(pair.to_screw(), s, tol=1e-11)
    assert pair.vector2 == -pair.vector1
    assert_scalar_close(pair.vector1.norm(), m.norm(), tol=1e-12)  # arm = 1
    assert_scalar_close((pair.point2 - pair.point1).norm(), 1.0, tol=1e-12)


@given(free_screws, st.floats(min_value=0.1, max_value=10.0))
def test_couple_arm_override_scales_the_force(s, arm):
    pair = decompose_two_applied(s, arm_length=arm)
    m = s.moment_at_origin
    assert_screw_close(pair.to_screw(), s, tol=1e-10)
    assert_scalar_close(pair.vector1.norm(), m.norm() / arm, tol=1e-11)
    assert_scalar_close((pair.point2 - pair.point1).norm(), arm, tol=1e-11)


@given(points, nonzero_vec3s)
def test_zero_pitch_screw_splits_along_its_axis(q, w):
    s = Screw.from_applied_vector(q, w)
    pair = decompose_two_applied(s)
    assert_screw_close(pair.to_screw(), s, tol=1e-10)
    # both legs are half the resultant, applied on the axis itself
    assert_vec_close(pair.vector1, w * 0.5, tol=1e-10)
    assert_vec_close(pair.vector2, w * 0.5, tol=1e-10)
    scale = max(1.0, s.amplitude(), s.moment_at_origin.norm())
    assert s.value_at(pair.point1).norm() <= 1e-9 * scale
    assert s.value_at(pair.point2).norm() <= 1e-9 * scale
    assert (pair.point2 - pair.point1).norm() > 0.5  # distinct points


@given(line_screws, st.integers(min_value=-13, max_value=13))
@example(Screw(Vec3(1.0, 0.0, 0.0), Vec3(1.0, 0.0, 0.0)), -13)
def test_decomposition_reproduces_the_screw_in_any_units(s, e):
    """The zero-pitch split is decided relative to the moment, so a couple
    part survives any change of units: the pair re-sums to k s for every k."""
    k = 10.0 ** e
    pair = decompose_two_applied(s * k)
    assert_screw_close(pair.to_screw() * (1.0 / k), s, tol=1e-10)


def test_zero_screw_has_no_decomposition():
    with pytest.raises(ZeroScrewError):
        decompose_two_applied(Screw.zero())


def test_arm_length_must_be_positive():
    s = Screw.from_free_vector(Vec3(0.0, 0.0, 1.0))
    with pytest.raises(ValueError):
        decompose_two_applied(s, arm_length=0.0)
    with pytest.raises(ValueError):
        decompose_two_applied(s, arm_length=-1.0)


def test_pair_accessors():
    pair = AppliedVectorPair(
        Point(1.0, 0.0, 0.0), Vec3(0.0, 1.0, 0.0), Point(0.0, 2.0, 0.0), Vec3(3.0, 0.0, 0.0)
    )
    assert (pair.point1, pair.vector1) == (Point(1.0, 0.0, 0.0), Vec3(0.0, 1.0, 0.0))
    assert (pair.point2, pair.vector2) == (Point(0.0, 2.0, 0.0), Vec3(3.0, 0.0, 0.0))


def test_report_agrees_with_the_screw_it_summarizes():
    fs = ForceSystem(
        (
            (Point(0.0, 0.0, 0.0), Vec3(1.0, 0.0, 0.0)),
            (Point(1.0, 0.0, 0.0), Vec3(0.0, 2.0, 0.0)),
            (Point(0.0, 1.0, 0.0), Vec3(-1.0, 1.0, 0.5)),
        )
    )
    s = wrench_of(fs).screw
    rep = central_axis_report(fs)
    assert rep.resultant == s.resultant
    assert rep.amplitude == s.amplitude()
    assert rep.scalar_invariant == s.scalar_invariant()
    assert rep.vector_invariant == s.vector_invariant()
    assert rep.axis == s.axis()
    assert rep.pitch == s.pitch()


def test_textbook_coplanar_system():
    """Three coplanar forces: resultant (0, 3, 0), moment 3 z at the origin,
    hand-checked moments at two poles, central axis through (1, 0, 0)."""
    fs = ForceSystem(
        (
            (Point(0.0, 0.0, 0.0), Vec3(1.0, 0.0, 0.0)),
            (Point(1.0, 0.0, 0.0), Vec3(0.0, 2.0, 0.0)),
            (Point(0.0, 1.0, 0.0), Vec3(-1.0, 1.0, 0.0)),
        )
    )
    w = wrench_of(fs)
    assert_vec_close(w.force, Vec3(0.0, 3.0, 0.0))
    assert_vec_close(w.moment_at(ORIGIN), Vec3(0.0, 0.0, 3.0))
    # moment at (2, 0, 0): sum (P_i - Q) x F_i = (0,0,-2)+(0,0,-2)+(0,0,1) = -3 z
    assert_vec_close(w.moment_at(Point(2.0, 0.0, 0.0)), Vec3(0.0, 0.0, -3.0))
    rep = central_axis_report(fs)
    assert abs(rep.scalar_invariant) <= 1e-12  # coplanar: no wrench part
    assert rep.pitch == FinitePitch(0.0)
    assert isinstance(rep.axis, LineAxis)
    assert w.moment_at(rep.axis.point).norm() <= 1e-12
    assert (rep.axis.point - Point(1.0, 0.0, 0.0)).cross(rep.axis.direction).norm() <= 1e-12


@given(points, nonzero_vec3s, st.floats(min_value=-2.0, max_value=2.0))
def test_sliding_a_force_along_its_line_changes_nothing(p, f, t):
    direct = Screw.from_applied_vector(p, f)
    slid = Screw.from_applied_vector(p + f * t, f)
    assert_screw_close(direct, slid, tol=1e-12)


@given(points, nonzero_vec3s, st.floats(min_value=0.1, max_value=0.9))
def test_splitting_a_force_in_two_changes_nothing(p, f, frac):
    whole = wrench_of(ForceSystem(((p, f),)))
    split = wrench_of(ForceSystem(((p, f * frac), (p, f * (1.0 - frac)))))
    assert_screw_close(whole.screw, split.screw, tol=1e-12)


def test_decomposition_of_a_unit_wrench_example():
    """Screw with resultant z and moment z at the origin: pitch 2 pi, axis
    through the origin; the two legs must straddle the axis symmetrically."""
    s = Screw(Vec3(0.0, 0.0, 1.0), Vec3(0.0, 0.0, 1.0))
    pair = decompose_two_applied(s)
    assert_screw_close(pair.to_screw(), s, tol=1e-12)
    mid = Point(
        0.5 * (pair.point1.x + pair.point2.x),
        0.5 * (pair.point1.y + pair.point2.y),
        0.5 * (pair.point1.z + pair.point2.z),
    )
    assert mid.isclose(ORIGIN, abs_=1e-12)  # axis passes through the origin
    assert_vec_close(pair.vector1 + pair.vector2, s.resultant, tol=1e-12)


# The composed form that decompose_two_applied fuses, kept as its bit oracle.


def _composed_reference_perpendicular(u: Vec3) -> Vec3:
    axes = (Vec3(1.0, 0.0, 0.0), Vec3(0.0, 1.0, 0.0), Vec3(0.0, 0.0, 1.0))
    pick = min(axes, key=lambda e: abs(u.dot(e)))
    return u.cross(pick).normalized()


def _composed_decompose(s: Screw, arm_length: float) -> AppliedVectorPair:
    if s.is_zero():
        raise ZeroScrewError("the zero screw has no two-vector decomposition")
    if not arm_length > 0.0:
        raise ValueError("arm_length must be positive")
    if s.is_free():
        m = s.moment_at_origin
        m_hat = m.normalized()
        w_hat = _composed_reference_perpendicular(m_hat)
        w = w_hat * (m.norm() / arm_length)
        a = m_hat.cross(w_hat) * arm_length
        return AppliedVectorPair(ORIGIN + a * -0.5, w, ORIGIN + a * 0.5, -w)
    w = s.resultant
    amp = w.norm()
    axis = composed_axis(s)
    q, u = axis.point, axis.direction
    m = s.moment_at_origin
    sigma = m.dot(u)
    if abs(sigma) <= reduction._SCALAR_RTOL * m.norm():
        return AppliedVectorPair(q, w * 0.5, q + u, w * 0.5)
    a_hat = _composed_reference_perpendicular(u)
    v_hat = u.cross(a_hat)
    gamma = 0.5 * amp
    alpha = -2.0 * sigma / amp
    arm = a_hat * alpha
    leg1 = w * 0.5 + v_hat * gamma
    leg2 = w * 0.5 - v_hat * gamma
    return AppliedVectorPair(q + arm * -0.5, leg1, q + arm * 0.5, leg2)


def _applied_or_free(p: Point, w: Vec3) -> Screw:
    try:
        return Screw.from_applied_vector(p, w)
    except NonFiniteError:
        return Screw.from_free_vector(w)


# Screws of every branch: zero-pitch ones (a vector applied at a point),
# couples, the zero screw and general screws, at the corners of float
# arithmetic and at scales 1e-150..1e150; arms of any sign and size.
_reduced_screws = st.one_of(
    edge_screws,
    st.builds(Screw, scaled_vec3s, scaled_vec3s),
    st.builds(_applied_or_free, st.one_of(points, scaled_points), st.one_of(vec3s, edge_vec3s, scaled_vec3s)),
    st.builds(Screw.from_free_vector, st.one_of(vec3s, edge_vec3s, scaled_vec3s)),
)
_arms = st.one_of(
    st.just(1.0),
    st.floats(0.1, 10.0),
    st.floats(),
    st.sampled_from([5e-324, 1e-300, 1e300, math.inf, 0.0, -0.0]),
)


@bit_examples
@given(_reduced_screws, _arms)
# The couple's force overflows, its arm is infinite, its moment's norm
# overflows (no unit direction); the general arm overflows, and then the
# first point does; a zero-pitch split with signed zeros.
@example(Screw.from_free_vector(Vec3(1e300, 0.0, 0.0)), 1e-10)
@example(Screw.from_free_vector(Vec3(0.0, 2.0, -1.0)), math.inf)
@example(Screw.from_free_vector(Vec3(1.7e308, 1.7e308, 1.7e308)), 1.0)
@example(Screw(Vec3(1e-160, 0.0, 0.0), Vec3(1e150, 0.0, 0.0)), 1.0)
@example(Screw(Vec3(1.0, 0.0, 0.0), Vec3(4e307, 1.7e308, 0.0)), 1.0)
@example(Screw(Vec3(-0.0, 2.0, -0.0), Vec3(-0.0, 0.0, -0.0)), 1.0)
def test_decompose_two_applied_is_the_composed_pair_bit_for_bit(s, arm):
    assert sum_outcome(decompose_two_applied, s, arm) == sum_outcome(_composed_decompose, s, arm)


@pytest.mark.parametrize(
    "s, built",
    [
        (Screw.from_free_vector(Vec3(1.0, 2.0, 3.0)), 4),
        (Screw.from_applied_vector(Point(1.0, 2.0, 3.0), Vec3(0.0, 0.0, 2.0)), 3),
        (Screw(Vec3(0.0, 0.0, 1.0), Vec3(0.0, 0.0, 1.0)), 4),
    ],
    ids=["couple", "zero-pitch", "general"],
)
def test_decompose_two_applied_builds_its_points_and_vectors_only(s, built):
    assert values_built(decompose_two_applied, s, 2.0) == built


# The composed form that central_axis_report fuses, kept as its bit oracle.


def _composed_report(fs: ForceSystem):
    s = wrench_of(fs).screw
    return CentralAxisReport(
        s.resultant, s.amplitude(), s.scalar_invariant(), composed_vector_invariant(s), composed_axis(s),
        composed_pitch(s),
    )


_forces = st.tuples(st.one_of(points, scaled_points, edge_points), st.one_of(vec3s, scaled_vec3s, edge_vec3s))


_O = Point(0.0, 0.0, 0.0)


@bit_examples
@given(st.lists(_forces, max_size=6).map(tuple))
# Couples of 1.7e308 and 1e300 with a resultant of 1e-10 overflow the vector
# invariant and then the axis point, which the composed form refuses second;
# a couple of 1e200 with a resultant of 1e-150 overflows the axis point
# alone, or, parallel to it, the pitch alone; a couple; the zero wrench;
# signed zeros.
@example((
    (Point(0.0, 1.0, 0.0), Vec3(0.0, 0.0, 1.7e308)), (_O, Vec3(0.0, 0.0, -1.7e308)),
    (Point(-1.0, 0.0, 0.0), Vec3(0.0, 0.0, 1.7e308)), (_O, Vec3(0.0, 0.0, -1.7e308)),
    (Point(1.0, 0.0, 0.0), Vec3(0.0, 1e300, 0.0)), (_O, Vec3(0.0, -1e300, 0.0)),
    (_O, Vec3(1e-10, 1e-10, 0.0)),
))
@example(((Point(1.0, 0.0, 0.0), Vec3(0.0, 1e200, 0.0)), (_O, Vec3(0.0, -1e200, 0.0)), (_O, Vec3(1e-150, 0.0, 0.0))))
@example(((Point(0.0, 1.0, 0.0), Vec3(0.0, 0.0, 1e200)), (_O, Vec3(0.0, 0.0, -1e200)), (_O, Vec3(1e-150, 0.0, 0.0))))
@example(((_O, Vec3(1.0, 0.0, 0.0)), (Point(0.0, 1.0, 0.0), Vec3(-1.0, 0.0, 0.0))))
@example(())
@example(((Point(-0.0, 0.0, -0.0), Vec3(-0.0, 2.0, -0.0)),))
def test_central_axis_report_is_the_composed_report_bit_for_bit(forces):
    fs = ForceSystem(forces)
    assert sum_outcome(central_axis_report, fs) == sum_outcome(_composed_report, fs)


def _composed_status(fs: ForceSystem) -> int:
    """The exit status of ``reduce`` when its results are computed in the
    composed forms: 3 for a refusal or a non-finite amplitude or scalar
    invariant, the two results no constructor checks, else 0."""
    try:
        report = _composed_report(fs)
        _composed_decompose(wrench_of(fs).screw, 1.0)
    except ScrewAlgError:
        return 3
    return 0 if math.isfinite(report.amplitude) and math.isfinite(report.scalar_invariant) else 3


@given(st.lists(_forces, min_size=1, max_size=6))
def test_reduce_exits_as_the_composed_forms_refuse(forces):
    """Where a refusal reaches the command line: ``reduce`` exits 3 on the
    systems whose composed forms refuse, and 0 on the others."""
    doc = {"version": 1, "forces": [{"point": list(p.components()), "vector": list(v.components())}
                                    for p, v in forces]}
    assert cli_status("reduce", doc) == _composed_status(ForceSystem(tuple(forces)))


@pytest.mark.parametrize(
    "force, built",
    [((Point(1.0, 2.0, 3.0), Vec3(0.0, 0.0, 2.0)), 5), ((Point(0.0, 0.0, 0.0), Vec3(0.0, 0.0, 0.0)), 2)],
    ids=["line", "couple"],
)
def test_central_axis_report_builds_its_fields_only(force, built):
    # The wrench sum's resultant and moment, then the vector invariant and
    # the axis point and direction of a line screw; a free screw's fields
    # are the wrench's own vectors.
    fs = ForceSystem((force, (Point(0.0, 0.0, 0.0), Vec3(1.0, 0.0, 0.0)), (Point(0.0, 1.0, 0.0), Vec3(-1.0, 0.0, 0.0))))
    assert values_built(central_axis_report, fs) == built
