"""Finite rigid motions and their correspondence with screws.

A screw, read as a velocity field, integrates to a one-parameter family of
rigid maps: rotation about the screw axis at the rate of the resultant,
drifting along the axis at the rate of the vector invariant.  ``exp_screw``
computes that flow in closed form; ``chasles`` inverts it, decomposing any
rigid map into a rotation about a line plus a slide along it.

The rotation part of a ``RigidMap`` is stored as a full 3x3 matrix and
validated on construction; it is never silently re-normalized, so numerical
drift surfaces as an error instead of a wrong answer.
"""

from __future__ import annotations

import math

from .errors import InvalidRotationError, NonFiniteError, ZeroScrewError
from .screw import DegenerateAxis, LineAxis, Screw, ScrewAxis
from .vecmath import ORIGIN, Mat3, Point, Vec3, _Value

__all__ = ["RigidMap", "ChaslesDecomposition", "rodrigues", "exp_screw", "chasles"]

_ROTATION_TOL = 1e-10
# Below this angle the exp and log coefficients come from their series.
_SERIES_ANGLE = 1e-4
# Within this of a half turn, extract the axis from the symmetric part of R.
_NEAR_PI = 1e-6


def rodrigues(axis: Vec3, angle: float) -> Mat3:
    """Rotation by ``angle`` about the unit vector ``axis``:
    R = I + sin(t) K + (1 - cos(t)) K^2 with K the cross matrix of the axis."""
    if not math.isfinite(angle):
        raise NonFiniteError(f"rotation angle must be finite, got {angle}")
    # Entry by entry, with the float operations of the matrix expression in
    # its order, so the result is bit-identical to it: K^2 is K.matmul(K)
    # with its exact-zero terms dropped (uu^T - I would round differently),
    # and each entry of I + sin(t) K keeps its 0.0 or 1.0 addend.
    x, y, z = axis.x, axis.y, axis.z
    s = math.sin(angle)
    c = 1.0 - math.cos(angle)
    xy, xz, yz = x * y, x * z, y * z
    return Mat3(
        1.0 + c * (-z * z - y * y), (0.0 - z * s) + c * xy, (0.0 + y * s) + c * xz,
        (0.0 + z * s) + c * xy, 1.0 + c * (-z * z - x * x), (0.0 - x * s) + c * yz,
        (0.0 - y * s) + c * xz, (0.0 + x * s) + c * yz, 1.0 + c * (-y * y - x * x),
    )


class RigidMap(_Value):
    """Orientation-preserving isometry P -> O + R (P - O) + translation,
    with O the global origin."""

    __slots__ = ("rotation", "translation")

    def __init__(self, rotation: Mat3, translation: Vec3):
        if not rotation.is_orthonormal(_ROTATION_TOL):
            raise InvalidRotationError(
                f"rotation block is not orthonormal within {_ROTATION_TOL}"
            )
        if abs(rotation.det() - 1.0) > _ROTATION_TOL:
            raise InvalidRotationError("rotation block must have determinant +1")
        _set_rotation(self, rotation)
        _set_translation(self, translation)

    @staticmethod
    def identity() -> "RigidMap":
        return RigidMap(Mat3.identity(), Vec3.zero())

    def apply(self, p: Point) -> Point:
        moved = self.rotation.matvec(p - ORIGIN) + self.translation
        return ORIGIN + moved

    def compose(self, first: "RigidMap") -> "RigidMap":
        """self after first: (self.compose(first))(P) == self(first(P))."""
        return RigidMap(
            self.rotation.matmul(first.rotation),
            self.rotation.matvec(first.translation) + self.translation,
        )

    def inverse(self) -> "RigidMap":
        rt = self.rotation.transpose()
        return RigidMap(rt, -rt.matvec(self.translation))

    def isclose(self, other: "RigidMap", rel: float = 1e-12, abs_: float = 1e-12) -> bool:
        return self.rotation.isclose(other.rotation, rel, abs_) and \
            self.translation.isclose(other.translation, rel, abs_)


_set_rotation, _set_translation = RigidMap._setters


class ChaslesDecomposition(_Value):
    """Any rigid map is a rotation by ``angle`` about ``axis`` followed by a
    slide of ``slide`` along it; a map with no rotation is the edge case, and
    then ``pure_translation`` carries the displacement instead."""

    __slots__ = ("axis", "angle", "slide", "pure_translation")

    def __init__(
        self, axis: ScrewAxis, angle: float, slide: float, pure_translation: Vec3 | None = None
    ):
        _set_axis(self, axis)
        _set_angle(self, angle)
        _set_slide(self, slide)
        _set_pure_translation(self, pure_translation)

    def to_screw(self) -> Screw:
        """The screw whose unit-parameter flow is the decomposed map."""
        if self.pure_translation is not None:
            return Screw.from_free_vector(self.pure_translation)
        if not isinstance(self.axis, LineAxis):
            raise ZeroScrewError("a degenerate axis with no pure translation names no screw")
        u = self.axis.direction
        return Screw.from_free_vector(u * self.slide) + Screw.from_applied_vector(
            self.axis.point, u * self.angle
        )

    def to_rigid_map(self) -> RigidMap:
        return exp_screw(self.to_screw(), 1.0)


_set_axis, _set_angle, _set_slide, _set_pure_translation = ChaslesDecomposition._setters


def _exp_coeffs(theta: float) -> tuple[float, float]:
    """f1 = (1 - cos t) / t and f2 = 1 - sin t / t, series-guarded near 0."""
    if abs(theta) < _SERIES_ANGLE:
        t2 = theta * theta
        f1 = theta * (0.5 - t2 / 24.0 + t2 * t2 / 720.0)
        f2 = t2 * (1.0 / 6.0 - t2 / 120.0 + t2 * t2 / 5040.0)
        return f1, f2
    return (1.0 - math.cos(theta)) / theta, 1.0 - math.sin(theta) / theta


def _log_coeff(theta: float) -> float:
    """1 - (t/2) cot(t/2) for t in (0, pi], series-guarded near 0."""
    if theta < _SERIES_ANGLE:
        t2 = theta * theta
        return t2 * (1.0 / 12.0 + t2 / 720.0 + t2 * t2 / 30240.0)
    half = 0.5 * theta
    return 1.0 - half * (math.cos(half) / math.sin(half))


def exp_screw(s: Screw, t: float = 1.0) -> RigidMap:
    """Flow of the screw field for parameter t.

    Rotation by |resultant| t about the screw axis composed with a slide of
    (pitch / 2 pi) |resultant| t along it; for a zero-resultant screw, a pure
    translation by t times the constant field value.  Obeys the group law
    exp(s, t1 + t2) = exp(s, t2) o exp(s, t1).
    """
    if s.is_free():
        return RigidMap(Mat3.identity(), s.moment_at_origin * t)
    w = s.resultant
    omega = w.norm()
    u = w / omega
    theta = omega * t
    rot = rodrigues(u, theta)
    # translation = integral of the rotating field at the origin:
    # t (I + f1(theta) K + f2(theta) K^2) applied to the origin value.
    f1, f2 = _exp_coeffs(theta)
    m = s.moment_at_origin
    um = u.cross(m)
    uum = u.cross(um)
    trans = (m + f1 * um + f2 * uum) * t
    return RigidMap(rot, trans)


def _axis_from_symmetric_part(r: Mat3, w: Vec3, cos_theta: float) -> Vec3:
    # Near a half turn (R + R^T)/2 - cos(theta) I = (1 - cos(theta)) u u^T;
    # its largest-diagonal column is parallel to the axis.  w is the axial
    # vector 2 sin(theta) u of R.
    m = 0.5 * (r + r.transpose()) - cos_theta * Mat3.identity()
    diag = (m.xx, m.yy, m.zz)
    j = max(range(3), key=lambda i: diag[i])
    u = m.column(j).normalized()
    # Orient consistently with the (possibly tiny) antisymmetric part.
    if w.norm() > 1e-12 and w.dot(u) < 0.0:
        u = -u
    return u


def chasles(g: RigidMap) -> ChaslesDecomposition:
    """Decompose a rigid map into rotation about a line plus slide along it.

    The angle, in [0, pi], is atan2(|axial part|, tr R - 1), accurate at every
    angle.  A map whose screw is free (no rotation, or one whose squared angle
    underflows) comes back as a pure translation, as ``Screw.axis`` would
    classify it; at a half turn the axis direction is recovered from the
    symmetric part of the rotation (its sign is not determined there, and
    either choice reproduces the map).
    """
    r = g.rotation
    tv = g.translation
    w = Vec3(r.zy - r.yz, r.xz - r.zx, r.yx - r.xy)  # 2 sin(theta) u
    trace_less_one = r.trace() - 1.0  # 2 cos(theta)
    theta = math.atan2(w.norm(), trace_less_one)
    s = Screw.from_free_vector(tv)
    if theta > 0.0:
        if math.pi - theta < _NEAR_PI:
            u = _axis_from_symmetric_part(r, w, 0.5 * trace_less_one)
        else:
            u = w.normalized()
        # Invert the translation integral V(1): on the axis direction V is the
        # identity, in the perpendicular plane it is a scaled rotation, giving
        #   V^-1 = I - (t/2) K + (1 - (t/2) cot(t/2)) K^2.
        utv = u.cross(tv)
        s = Screw(u * theta, tv - (0.5 * theta) * utv + _log_coeff(theta) * u.cross(utv))
    if s.is_free():
        return ChaslesDecomposition(DegenerateAxis(), 0.0, 0.0, pure_translation=tv)
    axis = s.axis()
    slide = s.moment_at_origin.dot(axis.direction)
    return ChaslesDecomposition(axis=axis, angle=theta, slide=slide)
