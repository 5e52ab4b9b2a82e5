"""Finite rigid motions and their correspondence with screws.

A screw, read as a velocity field, integrates to a one-parameter family of
rigid maps: rotation about the screw axis at the rate of the resultant,
drifting along the axis at the rate of the vector invariant.  ``exp_screw``
computes that flow in closed form; ``chasles`` inverts it, decomposing any
rigid map into a rotation about a line plus a slide along it.

The rotation part of a ``RigidMap`` is stored as a full 3x3 matrix and
validated on construction, on its nine floats; it is never silently
re-normalized, so numerical drift surfaces as an error instead of a wrong
answer.

``exp_screw`` and ``chasles`` are float kernels: each builds only the values
it returns (a rotation and a translation; an axis point and direction),
with the float operations of the composed ``Vec3``/``Mat3`` expression in
their order, so every result is that expression's to the bit.  As in the
sim kernel (``sim._stream``), a chain of values joined by +, - and * is
tested once at its end: ``exp_screw``'s translation by its ``Vec3``, and
``chasles``'s moment with one refusal (``vecmath._refuse``).  They share
``_rodrigues``, ``RigidMap``'s check, the zero rule ``vecmath._is_zero``,
which decides when the screw is free, the unit vector ``vecmath._unit`` and
the axis core ``screw._axis``; ``tests/test_rigid.py`` keeps the composed
forms as their bit oracles.
"""

from __future__ import annotations

import math

from .errors import InvalidRotationError, NonFiniteError, ZeroScrewError
from .screw import DegenerateAxis, LineAxis, Screw, ScrewAxis, _axis
from .vecmath import ORIGIN, Mat3, Point, Vec3, _det, _is_orthonormal, _is_zero, _refuse, _unit, _Value

__all__ = ["RigidMap", "ChaslesDecomposition", "rodrigues", "exp_screw", "chasles"]

_ROTATION_TOL = 1e-10
# Below this angle the exp and log coefficients come from their series.
_SERIES_ANGLE = 1e-4
# Within this of a half turn, extract the axis from the symmetric part of R.
_NEAR_PI = 1e-6


def rodrigues(axis: Vec3, angle: float) -> Mat3:
    """Rotation by ``angle`` about the unit vector ``axis``:
    R = I + sin(t) K + (1 - cos(t)) K^2 with K the cross matrix of the axis."""
    return Mat3(*_rodrigues(axis.x, axis.y, axis.z, angle))


def _rodrigues(x: float, y: float, z: float, angle: float) -> tuple[float, ...]:
    """The entries of ``rodrigues(Vec3(x, y, z), angle)``, row by row: the one
    definition, which ``rodrigues`` and the sim step kernel share.  The angle
    is checked here; the entries are checked by ``rodrigues``' ``Mat3``, and
    need no check in the kernel, whose unit axis keeps them within [-3, 3]."""
    if not math.isfinite(angle):
        raise NonFiniteError(f"rotation angle must be finite, got {angle}")
    # Entry by entry, with the float operations of the matrix expression in
    # its order, so the result is bit-identical to it: K^2 is K.matmul(K)
    # with its exact-zero terms dropped (uu^T - I would round differently),
    # and each entry of I + sin(t) K keeps its 0.0 or 1.0 addend.
    s = math.sin(angle)
    c = 1.0 - math.cos(angle)
    xy, xz, yz = x * y, x * z, y * z
    return (
        1.0 + c * (-z * z - y * y), (0.0 - z * s) + c * xy, (0.0 + y * s) + c * xz,
        (0.0 + z * s) + c * xy, 1.0 + c * (-z * z - x * x), (0.0 - x * s) + c * yz,
        (0.0 - y * s) + c * xz, (0.0 + x * s) + c * yz, 1.0 + c * (-y * y - x * x),
    )


class RigidMap(_Value):
    """Orientation-preserving isometry P -> O + R (P - O) + translation,
    with O the global origin."""

    __slots__ = ("rotation", "translation")

    def __init__(self, rotation: Mat3, translation: Vec3):
        # One check on the nine floats, for every caller and both kernels.
        r = rotation.flat()
        if not _is_orthonormal(r, _ROTATION_TOL):
            raise InvalidRotationError(f"rotation block is not orthonormal within {_ROTATION_TOL}")
        if abs(_det(r) - 1.0) > _ROTATION_TOL:
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

    It takes |w| and w / |w| from ``vecmath._unit``, not from
    ``screw._axis``, whose axis point and field strength it does not read
    (they cost about a tenth of a call): a |w| beyond the float range makes
    the angle |w| t infinite or NaN, which ``_rodrigues`` refuses.
    """
    w = s.resultant
    m = s.moment_at_origin
    wx, wy, wz = w.x, w.y, w.z
    mx, my, mz = m.x, m.y, m.z
    if _is_zero(wx, wy, wz):
        return RigidMap(Mat3.identity(), Vec3(mx * t, my * t, mz * t))
    omega, ux, uy, uz = _unit(wx, wy, wz)
    theta = omega * t
    rot = _rodrigues(ux, uy, uz, theta)
    # translation = integral of the rotating field at the origin:
    # t (I + f1(theta) K + f2(theta) K^2) applied to the origin value, as
    # (m + f1 (u x m) + f2 (u x (u x m))) t.
    f1, f2 = _exp_coeffs(theta)
    ax = uy * mz - uz * my
    ay = uz * mx - ux * mz
    az = ux * my - uy * mx
    bx = uy * az - uz * ay
    by = uz * ax - ux * az
    bz = ux * ay - uy * ax
    tx = ((mx + ax * f1) + bx * f2) * t
    ty = ((my + ay * f1) + by * f2) * t
    tz = ((mz + az * f1) + bz * f2) * t
    return RigidMap(Mat3(*rot), Vec3(tx, ty, tz))


def _axis_from_symmetric_part(
    r: tuple[float, ...], wx: float, wy: float, wz: float, wn: float, cos_theta: float
) -> tuple[float, float, float]:
    """Near a half turn (R + R^T)/2 - cos(theta) I = (1 - cos(theta)) u u^T;
    its largest-diagonal column is parallel to the axis.  w is the axial
    vector 2 sin(theta) u of R, and wn its norm.  Entry by entry as the
    Mat3 expression forms it: an off-diagonal entry subtracts 0.0 * cos(theta).
    The diagonal sums to 1.5 - tr R / 2, about 2 here, so the column's norm is
    at least about 2/3 and is never 0."""
    xx, xy, xz, yx, yy, yz, zx, zy, zz = r
    off = 0.0 * cos_theta
    dxx = (xx + xx) * 0.5 - cos_theta
    dyy = (yy + yy) * 0.5 - cos_theta
    dzz = (zz + zz) * 0.5 - cos_theta
    # max() keeps the first of equal diagonal entries.
    if dxx >= dyy and dxx >= dzz:
        cx, cy, cz = dxx, (yx + xy) * 0.5 - off, (zx + xz) * 0.5 - off
    elif dyy >= dzz:
        cx, cy, cz = (xy + yx) * 0.5 - off, dyy, (zy + yz) * 0.5 - off
    else:
        cx, cy, cz = (xz + zx) * 0.5 - off, (yz + zy) * 0.5 - off, dzz
    _, ux, uy, uz = _unit(cx, cy, cz)
    # Orient consistently with the (possibly tiny) antisymmetric part.
    if wn > 1e-12 and wx * ux + wy * uy + wz * uz < 0.0:
        return -ux, -uy, -uz
    return ux, uy, uz


def chasles(g: RigidMap) -> ChaslesDecomposition:
    """Decompose a rigid map into rotation about a line plus slide along it.

    The angle, in [0, pi], is atan2(|axial part|, tr R - 1), accurate at every
    angle.  A map with no rotation (an angle of 0.0) comes back as a pure
    translation; any other has a line axis, as ``Screw.axis`` classifies
    its screw: u theta has a component of at least theta / sqrt(3) >=
    0.577 * 2**-1074, which is not 0.0.  At a half turn the axis direction
    is recovered from the symmetric part of the rotation (its sign is not
    determined there, and either choice reproduces the map).
    """
    r = g.rotation
    tv = g.translation
    tx, ty, tz = tv.x, tv.y, tv.z
    wx, wy, wz = r.zy - r.yz, r.xz - r.zx, r.yx - r.xy  # 2 sin(theta) u
    trace_less_one = (r.xx + r.yy + r.zz) - 1.0  # 2 cos(theta)
    wn, ux, uy, uz = _unit(wx, wy, wz)
    theta = math.atan2(wn, trace_less_one)
    if not theta > 0.0:
        return ChaslesDecomposition(DegenerateAxis(), 0.0, 0.0, pure_translation=tv)
    if math.pi - theta < _NEAR_PI:
        ux, uy, uz = _axis_from_symmetric_part(r.flat(), wx, wy, wz, wn, 0.5 * trace_less_one)
    # Invert the translation integral V(1): on the axis direction V is the
    # identity, in the perpendicular plane it is a scaled rotation, giving
    #   V^-1 = I - (t/2) K + (1 - (t/2) cot(t/2)) K^2,
    # so the moment is t - (theta / 2) (u x t) + c (u x (u x t)).
    half = 0.5 * theta
    ax = uy * tz - uz * ty
    ay = uz * tx - ux * tz
    az = ux * ty - uy * tx
    c = _log_coeff(theta)
    bx = uy * az - uz * ay
    by = uz * ax - ux * az
    bz = ux * ay - uy * ax
    mx = (tx - ax * half) + bx * c
    my = (ty - ay * half) + by * c
    mz = (tz - az * half) + bz * c
    # Tested here, so that a refusal names the moment, not the axis point.
    if not math.isfinite(mx + my + mz):
        _refuse("moment of the screw motion", mx, my, mz)
    _, vx, vy, vz, slide, px, py, pz = _axis(ux * theta, uy * theta, uz * theta, mx, my, mz)
    return ChaslesDecomposition(LineAxis(Point(px, py, pz), Vec3(vx, vy, vz)), theta, slide)
