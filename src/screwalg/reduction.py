"""Reduction of force systems to minimal equivalent ones.

Any nonzero screw is the sum of just two applied vectors.  The construction
splits by type:

* zero resultant (a couple): two opposite vectors on parallel lines, with a
  default unit arm;
* zero scalar invariant: the resultant halved at two distinct points of the
  central axis, no couple needed;
* the general case: half the resultant at two points straddling the axis,
  each half picking up an equal-and-opposite correction in the plane normal
  to the axis.  The arm length is then forced by asking the two legs to be
  perpendicular and of equal magnitude, which pins the construction down up
  to the (documented, deterministic) choice of arm direction.

``decompose_two_applied`` is a float kernel, as ``rigid.exp_screw`` is: it
builds only the points and vectors it returns, with the float operations of
the composed ``Vec3`` expression in their order, so each result is that
expression's to the bit, and a chain of values is tested once at its end,
by the ``Point`` or ``Vec3`` it ends in.  Its branches share the axis core
``screw._axis`` and the float form of ``_reference_perpendicular``;
``tests/test_reduction.py`` keeps the composed form as its bit oracle.

``central_axis_report`` bundles the invariants a statics calculation usually
wants in one pass.  It is the report ``_report`` of the system's wrench, the
one report of a screw, which ``screwalg reduce`` (a sum of forces) and
``screwalg compose`` (a sum of twists) both render: the paper's analogy, in
which angular velocities sum as applied forces do, asks the same questions
of either sum.
"""

from __future__ import annotations

import math

from .dynamics import ForceSystem, wrench_of
from .errors import ZeroScrewError
from .screw import FinitePitch, LineAxis, Pitch, Screw, ScrewAxis, _axis
from .vecmath import Point, Vec3, _norm, _Value

__all__ = ["AppliedVectorPair", "CentralAxisReport", "decompose_two_applied", "central_axis_report"]

# Zero-pitch split: |sigma| at most this times the moment sigma is read from.
_SCALAR_RTOL = 1e-12


class AppliedVectorPair(_Value):
    """Two applied vectors whose screw sum reproduces a target screw."""

    __slots__ = ("point1", "vector1", "point2", "vector2")

    def __init__(self, point1: Point, vector1: Vec3, point2: Point, vector2: Vec3):
        _set_point1(self, point1)
        _set_vector1(self, vector1)
        _set_point2(self, point2)
        _set_vector2(self, vector2)

    def to_screw(self) -> Screw:
        return Screw.from_applied_vector(self.point1, self.vector1) + \
            Screw.from_applied_vector(self.point2, self.vector2)


_set_point1, _set_vector1, _set_point2, _set_vector2 = AppliedVectorPair._setters


class CentralAxisReport(_Value):
    __slots__ = ("resultant", "amplitude", "scalar_invariant", "vector_invariant", "axis", "pitch")

    def __init__(
        self,
        resultant: Vec3,
        amplitude: float,
        scalar_invariant: float,
        vector_invariant: Vec3,
        axis: ScrewAxis,
        pitch: Pitch,
    ):
        _set_resultant(self, resultant)
        _set_amplitude(self, amplitude)
        _set_scalar_invariant(self, scalar_invariant)
        _set_vector_invariant(self, vector_invariant)
        _set_axis(self, axis)
        _set_pitch(self, pitch)


(_set_resultant, _set_amplitude, _set_scalar_invariant, _set_vector_invariant,
 _set_axis, _set_pitch) = CentralAxisReport._setters


def _reference_perpendicular(ux: float, uy: float, uz: float) -> tuple[float, float, float]:
    """Deterministic unit vector perpendicular to the unit vector u: u crossed
    with the coordinate axis it is least aligned with, the first of equally
    aligned ones, and normalized.  |u . e_i| is |u_i| exactly (the other
    terms are zeros), and each cross product keeps its products with 0.0
    and 1.0, which set the signs of its zeros."""
    if abs(ux) <= abs(uy) and abs(ux) <= abs(uz):
        cx, cy, cz = uy * 0.0 - uz * 0.0, uz * 1.0 - ux * 0.0, ux * 0.0 - uy * 1.0
    elif abs(uy) <= abs(uz):
        cx, cy, cz = uy * 0.0 - uz * 1.0, uz * 0.0 - ux * 0.0, ux * 1.0 - uy * 0.0
    else:
        cx, cy, cz = uy * 1.0 - uz * 0.0, uz * 0.0 - ux * 1.0, ux * 0.0 - uy * 0.0
    n = _norm(cx, cy, cz)
    if n == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return cx / n, cy / n, cz / n


def decompose_two_applied(s: Screw, arm_length: float = 1.0) -> AppliedVectorPair:
    """Write a nonzero screw as the sum of two applied vectors.

    ``arm_length`` controls only the couple branch (zero resultant), where
    the separation of the two lines is otherwise free; elsewhere the arm is
    determined by the perpendicular-equal-magnitude normalization.  Raises
    ``ZeroScrewError`` for the zero screw, which is the sum of no vectors.

    The screw splits as zero-pitch (no couple part) when its axis field
    strength sigma = s(O) . u, u the axis direction, is a rounding-sized
    fraction of |s(O)|, the moment sigma is read from; so the split does
    not depend on the units.
    """
    w = s.resultant
    m = s.moment_at_origin
    wx, wy, wz = w.x, w.y, w.z
    mx, my, mz = m.x, m.y, m.z
    free = wx * wx + wy * wy + wz * wz == 0.0
    if free and mx * mx + my * my + mz * mz == 0.0:
        raise ZeroScrewError("the zero screw has no two-vector decomposition")
    if not arm_length > 0.0:
        raise ValueError("arm_length must be positive")

    if free:
        # Couple: moment m = w x a with w perpendicular to m and |a| = arm.
        mn = _norm(mx, my, mz)
        hx, hy, hz = mx / mn, my / mn, mz / mn
        ex, ey, ez = _reference_perpendicular(hx, hy, hz)
        k = mn / arm_length
        force = Vec3(ex * k, ey * k, ez * k)
        ax = (hy * ez - hz * ey) * arm_length
        ay = (hz * ex - hx * ez) * arm_length
        az = (hx * ey - hy * ex) * arm_length
        # O + a * -0.5 is 0.0 + (a.x * -0.5).
        return AppliedVectorPair(
            Point(0.0 + ax * -0.5, 0.0 + ay * -0.5, 0.0 + az * -0.5),
            force,
            Point(0.0 + ax * 0.5, 0.0 + ay * 0.5, 0.0 + az * 0.5),
            Vec3(-force.x, -force.y, -force.z),
        )

    amp, ux, uy, uz, sigma, qx, qy, qz = _axis(wx, wy, wz, mx, my, mz)

    if abs(sigma) <= _SCALAR_RTOL * _norm(mx, my, mz):
        # No couple part: half the resultant at two distinct axis points.
        half = Vec3(wx * 0.5, wy * 0.5, wz * 0.5)
        return AppliedVectorPair(Point(qx, qy, qz), half, Point(qx + ux, qy + uy, qz + uz), half)

    ex, ey, ez = _reference_perpendicular(ux, uy, uz)
    # v = u x a_hat, and the legs w / 2 +- gamma v with gamma = |w| / 2
    gamma = 0.5 * amp
    vx = (uy * ez - uz * ey) * gamma
    vy = (uz * ex - ux * ez) * gamma
    vz = (ux * ey - uy * ex) * gamma
    alpha = -2.0 * sigma / amp
    ax, ay, az = ex * alpha, ey * alpha, ez * alpha
    leg1 = Vec3(wx * 0.5 + vx, wy * 0.5 + vy, wz * 0.5 + vz)
    leg2 = Vec3(wx * 0.5 - vx, wy * 0.5 - vy, wz * 0.5 - vz)
    return AppliedVectorPair(
        Point(qx + ax * -0.5, qy + ay * -0.5, qz + az * -0.5),
        leg1,
        Point(qx + ax * 0.5, qy + ay * 0.5, qz + az * 0.5),
        leg2,
    )


def _report(s: Screw) -> CentralAxisReport:
    """The invariants and axis of a screw, the one report, which
    ``central_axis_report`` and the ``reduce`` and ``compose`` commands
    render.  A line screw's |w|, vector invariant, axis and pitch come from
    one ``screw._axis``, each built as the ``Screw`` method it stands for
    builds it, to the bit, and in that order: vector invariant, axis point,
    pitch, so the first of them to overflow is the one refused.  A free or
    zero screw's fields are the methods' own."""
    w = s.resultant
    if s.is_free():
        return CentralAxisReport(w, s.amplitude(), s.scalar_invariant(), s.vector_invariant(), s.axis(), s.pitch())
    amp, ux, uy, uz, t, px, py, pz = s._line()
    return CentralAxisReport(
        w,
        amp,
        s.scalar_invariant(),
        Vec3(ux * t, uy * t, uz * t),
        LineAxis(Point(px, py, pz), Vec3(ux, uy, uz)),
        FinitePitch(2.0 * math.pi * t / amp),
    )


def central_axis_report(fs: ForceSystem) -> CentralAxisReport:
    """Reduce a force system and report the invariants and central axis of
    its wrench (the central axis of the system is the wrench's screw axis)."""
    return _report(wrench_of(fs).screw)
