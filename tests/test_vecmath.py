import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import (
    assert_scalar_close,
    assert_vec_close,
    bit_examples,
    bit_outcome,
    coords,
    edge_mat3s,
    points,
    refusal,
    small_params,
    unit_vec3s,
    values_built,
    vec3s,
)
from screwalg import ORIGIN, Mat3, NonFiniteError, Point, RigidMap, Vec3, rodrigues


@given(vec3s, vec3s)
def test_dot_symmetric(u, v):
    assert_scalar_close(u.dot(v), v.dot(u))


@given(vec3s, vec3s)
def test_cross_antisymmetric(u, v):
    assert_vec_close(u.cross(v), -(v.cross(u)))


@given(vec3s, vec3s)
def test_cross_orthogonal_to_factors(u, v):
    w = u.cross(v)
    assert abs(w.dot(u)) <= 1e-12 * max(1.0, u.norm() ** 2 * v.norm())
    assert abs(w.dot(v)) <= 1e-12 * max(1.0, v.norm() ** 2 * u.norm())


@given(vec3s, vec3s, vec3s)
def test_scalar_triple_product_cyclic(u, v, w):
    assert_scalar_close(u.dot(v.cross(w)), w.dot(u.cross(v)), tol=1e-12)


def test_norm_examples():
    assert Vec3(3.0, 4.0, 0.0).norm() == 5.0
    assert Vec3.zero().norm() == 0.0
    with pytest.raises(ValueError):
        Vec3.zero().normalized()


@pytest.mark.parametrize("scale", [1e160, 1e300, 1e-155, 1e-162, 1e-200])
def test_norm_survives_squares_that_overflow_or_underflow(scale):
    # sqrt(x.x) would give inf, or lose digits in the subnormals, or 0.0
    assert math.isclose(Vec3(3.0 * scale, 4.0 * scale, 0.0).norm(), 5.0 * scale, rel_tol=1e-15)


@given(points, vec3s)
def test_point_displacement_round_trip(p, d):
    assert_vec_close((p + d) - p, d)


def test_points_do_not_add():
    with pytest.raises(TypeError):
        Point(1.0, 0.0, 0.0) + Point(0.0, 1.0, 0.0)  # type: ignore[operator]


def test_a_point_is_not_a_displacement():
    v, p = Vec3(1.0, 2.0, 3.0), Point(1.0, 1.0, 1.0)
    with pytest.raises(TypeError, match="unsupported operand"):
        v + p  # type: ignore[operator]
    with pytest.raises(TypeError, match="unsupported operand"):
        v - p  # type: ignore[operator]
    with pytest.raises(TypeError, match="unsupported operand"):
        p - v  # type: ignore[operator]


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize(
    "cls, position",
    [(Vec3, i) for i in range(3)] + [(Point, i) for i in range(3)] + [(Mat3, i) for i in range(9)],
)
def test_nonfinite_rejected(cls, position, bad):
    values = [0.0] * len(cls.__slots__)
    values[position] = bad
    with pytest.raises(NonFiniteError, match=f"{cls.__name__} components must be finite"):
        cls(*values)


@given(vec3s, vec3s)
def test_cross_matrix_is_cross_product(v, u):
    assert_vec_close(Mat3.cross_matrix(v).matvec(u), v.cross(u))


@given(vec3s, vec3s, vec3s)
def test_outer_matvec(u, v, w):
    assert_vec_close(Mat3.outer(u, v).matvec(w), u * v.dot(w), tol=1e-12)


@given(vec3s, vec3s, vec3s)
def test_from_rows_columns_agree(r0, r1, r2):
    assert Mat3.from_rows(r0, r1, r2) == Mat3.from_columns(r0, r1, r2).transpose()


@given(vec3s, vec3s, vec3s, vec3s)
def test_matmul_matches_composed_matvec(a0, a1, a2, w):
    a = Mat3.from_rows(a0, a1, a2)
    b = Mat3.from_columns(a1, a2, a0)
    assert_vec_close(a.matmul(b).matvec(w), a.matvec(b.matvec(w)), tol=1e-12)


@given(vec3s, vec3s, vec3s, vec3s, vec3s, vec3s)
def test_matmul_is_matvec_on_each_column_bit_for_bit(a0, a1, a2, b0, b1, b2):
    a, b = Mat3.from_rows(a0, a1, a2), Mat3.from_columns(b0, b1, b2)
    want = Mat3.from_columns(a.matvec(b0), a.matvec(b1), a.matvec(b2))
    assert repr(a.matmul(b)) == repr(want)


def _matmul_by_entries(a: Mat3, b: Mat3) -> Mat3:
    """A B written out entry by entry, independent of ``vecmath._matmul``:
    entry (i, j) is row i of a dotted with column j of b, summed left to
    right, and the result is checked by the ``Mat3`` constructor."""
    return Mat3(
        a.xx * b.xx + a.xy * b.yx + a.xz * b.zx,
        a.xx * b.xy + a.xy * b.yy + a.xz * b.zy,
        a.xx * b.xz + a.xy * b.yz + a.xz * b.zz,
        a.yx * b.xx + a.yy * b.yx + a.yz * b.zx,
        a.yx * b.xy + a.yy * b.yy + a.yz * b.zy,
        a.yx * b.xz + a.yy * b.yz + a.yz * b.zz,
        a.zx * b.xx + a.zy * b.yx + a.zz * b.zx,
        a.zx * b.xy + a.zy * b.yy + a.zz * b.zy,
        a.zx * b.xz + a.zy * b.yz + a.zz * b.zz,
    )


# In the first example every entry overflows and is refused; in the second
# only the sum of the nine entries does, which refuses nothing.
@bit_examples
@given(edge_mat3s, edge_mat3s)
@example(Mat3(*[1e200] * 9), Mat3(*[1e200] * 9))
@example(Mat3.identity() * 1e308, Mat3.identity())
def test_matmul_is_the_entrywise_product_bit_for_bit(a, b):
    # The edge regimes reach the overflowing and subnormal products, where the
    # order of the sums and the refusal's components show.
    assert bit_outcome(a.matmul, b) == bit_outcome(_matmul_by_entries, a, b)


# The orthonormality defect against the composed expression it replaces, to
# the bit and in what it refuses, and what its float core spares.


@pytest.mark.parametrize("scale, orthonormal", [(1.0, True), (1.0 + 1e-7, False), (3.0, False)])
def test_is_orthonormal_builds_no_mat3(scale, orthonormal):
    # RigidMap and Frame check their rotation with is_orthonormal.
    r = rodrigues(Vec3(0.6, 0.0, 0.8), 0.3) * scale
    assert r.is_orthonormal(1e-10) is orthonormal
    assert values_built(r.is_orthonormal, 1e-10, classes=(Mat3,)) == 0
    if orthonormal:
        assert values_built(RigidMap, r, Vec3.zero(), classes=(Mat3,)) == 0


@bit_examples
@given(st.one_of(edge_mat3s, st.builds(rodrigues, unit_vec3s, small_params)))
def test_orthonormality_defect_is_the_composed_defect_bit_for_bit(r):
    # Near a rotation each diagonal entry of R^T R - I cancels to a few ulps,
    # where the order of the sums shows.
    assert bit_outcome(r.orthonormality_defect) == bit_outcome(
        lambda: (r.transpose().matmul(r) - Mat3.identity()).max_abs()
    )


def test_orthonormality_defect_refuses_with_the_entries_of_r_t_r():
    # Row by row, each off-diagonal entry twice, as the composed
    # R.transpose().matmul(R) names them before R^T R - I is formed.
    r = Mat3(1e200, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)
    assert refusal(r.orthonormality_defect) == (
        "Mat3 components must be finite, got (inf, 1e+200, 0.0, 1e+200, 2.0, 0.0, 0.0, 0.0, 1.0)"
    )
    assert not r.is_orthonormal(1e-10)


@bit_examples
@given(st.one_of(edge_mat3s, st.builds(rodrigues, unit_vec3s, small_params)))
# Row 1 x row 2 overflows; the dot product overflows, which refuses nothing.
@example(Mat3(1.0, 0.0, 0.0, 0.0, 1e200, 1e200, 0.0, -1e200, 1e200))
@example(Mat3(1e200, 0.0, 0.0, 0.0, 1e100, 0.0, 0.0, 0.0, 1e100))
def test_det_is_the_composed_determinant_bit_for_bit(m):
    assert bit_outcome(m.det) == bit_outcome(lambda: m.row(0).dot(m.row(1).cross(m.row(2))))


def test_det_builds_no_value():
    assert values_built(rodrigues(Vec3(0.6, 0.0, 0.8), 0.3).det) == 0


def test_identity_and_trace():
    assert Mat3.identity().matvec(Vec3(1.0, 2.0, 3.0)) == Vec3(1.0, 2.0, 3.0)
    assert Mat3.identity().trace() == 3.0
    assert Mat3.identity().det() == 1.0
    assert Mat3.identity().orthonormality_defect() == 0.0


@given(vec3s)
def test_cross_matrix_antisymmetric_zero_trace(v):
    k = Mat3.cross_matrix(v)
    assert k.trace() == 0.0
    assert (k + k.transpose()).max_abs() == 0.0


def test_row_column_access():
    m = Mat3(1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0)
    assert m.row(1) == Vec3(4.0, 5.0, 6.0)
    assert m.column(2) == Vec3(3.0, 6.0, 9.0)
    assert m.flat() == (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0)


def test_origin_is_zero_point():
    assert ORIGIN.components() == (0.0, 0.0, 0.0)
    assert math.isclose((Point(1.0, 1.0, 1.0) - ORIGIN).norm(), math.sqrt(3.0))
