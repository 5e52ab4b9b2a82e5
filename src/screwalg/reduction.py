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

``central_axis_report`` bundles the invariants a statics calculation usually
wants in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dynamics import ForceSystem, wrench_of
from .errors import ZeroScrewError
from .screw import Pitch, Screw, ScrewAxis
from .vecmath import ORIGIN, Point, Vec3

__all__ = ["AppliedVectorPair", "CentralAxisReport", "decompose_two_applied", "central_axis_report"]

# Zero-pitch split: |sigma| at most this times the moment sigma is read from.
_SCALAR_RTOL = 1e-12


@dataclass(frozen=True, slots=True)
class AppliedVectorPair:
    """Two applied vectors whose screw sum reproduces a target screw."""

    point1: Point
    vector1: Vec3
    point2: Point
    vector2: Vec3

    def to_screw(self) -> Screw:
        return Screw.from_applied_vector(self.point1, self.vector1) + \
            Screw.from_applied_vector(self.point2, self.vector2)


@dataclass(frozen=True, slots=True)
class CentralAxisReport:
    resultant: Vec3
    amplitude: float
    scalar_invariant: float
    vector_invariant: Vec3
    axis: ScrewAxis
    pitch: Pitch


def _reference_perpendicular(u: Vec3) -> Vec3:
    """Deterministic unit vector perpendicular to the unit vector u: cross u
    with the coordinate axis it is least aligned with."""
    axes = (Vec3(1.0, 0.0, 0.0), Vec3(0.0, 1.0, 0.0), Vec3(0.0, 0.0, 1.0))
    pick = min(axes, key=lambda e: abs(u.dot(e)))
    return u.cross(pick).normalized()


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
    if s.is_zero():
        raise ZeroScrewError("the zero screw has no two-vector decomposition")
    if not arm_length > 0.0:
        raise ValueError("arm_length must be positive")

    if s.is_free():
        # Couple: moment m = w x a with w perpendicular to m and |a| = arm.
        m = s.moment_at_origin
        m_hat = m.normalized()
        w_hat = _reference_perpendicular(m_hat)
        w = w_hat * (m.norm() / arm_length)
        a = m_hat.cross(w_hat) * arm_length
        p1 = ORIGIN + a * -0.5
        p2 = ORIGIN + a * 0.5
        return AppliedVectorPair(p1, w, p2, -w)

    w = s.resultant
    amp = w.norm()
    axis = s.axis()
    q, u = axis.point, axis.direction
    m = s.moment_at_origin
    sigma = m.dot(u)  # axis field strength, signed

    if abs(sigma) <= _SCALAR_RTOL * m.norm():
        # No couple part: half the resultant at two distinct axis points.
        return AppliedVectorPair(q, w * 0.5, q + u, w * 0.5)

    a_hat = _reference_perpendicular(u)
    v_hat = u.cross(a_hat)
    gamma = 0.5 * amp
    alpha = -2.0 * sigma / amp
    arm = a_hat * alpha
    leg1 = w * 0.5 + v_hat * gamma
    leg2 = w * 0.5 - v_hat * gamma
    return AppliedVectorPair(q + arm * -0.5, leg1, q + arm * 0.5, leg2)


def central_axis_report(fs: ForceSystem) -> CentralAxisReport:
    """Reduce a force system and bundle the invariants and central axis of
    its wrench (the central axis of the system is the wrench's screw axis)."""
    s = wrench_of(fs).screw
    return CentralAxisReport(
        resultant=s.resultant,
        amplitude=s.amplitude(),
        scalar_invariant=s.scalar_invariant(),
        vector_invariant=s.vector_invariant(),
        axis=s.axis(),
        pitch=s.pitch(),
    )
