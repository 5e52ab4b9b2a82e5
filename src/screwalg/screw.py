"""Screws: vector fields on space whose values at two points differ by a cross
product with a fixed vector.

A screw is a map ``s`` from points to vectors satisfying

    s(P) = s(Q) + resultant x (P - Q)        for all points P, Q,

for a single vector ``resultant`` (written ``s.resultant``).  Angular-velocity
fields of rigid bodies, force systems (resultant + moment field) and momentum
fields all have this shape, which is why one algebra serves kinematics,
statics and dynamics alike.

Storage is canonical: the resultant together with the field value at the
global origin.  Every constructor normalizes to that form, so two screws
built at different base points compare equal when they are the same field.

Conventions that matter:

* The *scalar invariant* ``s(P) . resultant`` does not depend on P.
* The *vector invariant* is the component of the field value parallel to the
  resultant (the whole field value when the resultant vanishes).  It is the
  field's value on the axis.
* The *axis* is the locus of minimum field magnitude: a line when the
  resultant is nonzero, everywhere (degenerate) when it vanishes.
* Classification is exact: a screw is free (zero resultant) only when the
  resultant's squared norm is 0.0 in floating point, and zero when its
  moment's is too.  With no tolerance, a change of units cannot change
  the class unless it underflows a square to 0.0.
* The vector invariant, the axis and the pitch are each computed one way,
  through the unit direction u = w / |w| and the amplitude |w| of the
  resultant w, never through w . w, which can overflow or lose its digits
  to underflow where the answer does neither (``Vec3.norm`` cannot).
* The *pitch* uses the full-turn normalization: a screw of pitch p advances
  by p along its axis per complete revolution, so the vector invariant is
  (p / 2 pi) times the resultant.  Beware: much of the robotics literature
  omits the 2 pi.
"""

from __future__ import annotations

import math

from .errors import NonFiniteError
from .vecmath import ORIGIN, Point, Vec3, _Value

__all__ = [
    "Screw",
    "LineAxis",
    "DegenerateAxis",
    "ScrewAxis",
    "FinitePitch",
    "InfinitePitch",
    "ZeroScrewPitch",
    "Pitch",
]

def _negligible(v: Vec3) -> bool:
    """The one degeneracy rule: a resultant (or moment) is negligible only when
    its squared norm is 0.0 in floating point.  That is an exact zero, or a
    vector so small that dividing by its squared norm would divide by zero.
    No tolerance enters, so the rule does not depend on the units."""
    return v.dot(v) == 0.0


class LineAxis(_Value):
    """Axis of a screw with nonzero resultant: a line, stored as a point on it
    plus a unit direction."""

    __slots__ = ("point", "direction")

    def __init__(self, point: Point, direction: Vec3):
        _set_axis_point(self, point)
        _set_axis_direction(self, direction)


_set_axis_point, _set_axis_direction = LineAxis._setters


class DegenerateAxis(_Value):
    """Axis of a zero-resultant screw: the minimum locus is all of space."""

    __slots__ = ()


ScrewAxis = LineAxis | DegenerateAxis


class FinitePitch(_Value):
    """Pitch of a line screw.  A pitch beyond the float range is refused,
    as a non-finite vector component is."""

    __slots__ = ("value",)

    def __init__(self, value: float):
        if not math.isfinite(value):
            raise NonFiniteError(f"pitch must be finite, got {value}")
        _set_pitch_value(self, value)


(_set_pitch_value,) = FinitePitch._setters


class InfinitePitch(_Value):
    """Pitch of a free screw: translation with no rotation."""

    __slots__ = ()


class ZeroScrewPitch(_Value):
    """The zero screw has no well-defined pitch; callers must handle this case."""

    __slots__ = ()


Pitch = FinitePitch | InfinitePitch | ZeroScrewPitch


class Screw(_Value):
    """A screw field, stored as (resultant, field value at the global origin).

    ``==`` is exact and is meant for representation round-trips; use
    :meth:`isclose` for numerical comparison.
    """

    __slots__ = ("resultant", "moment_at_origin")

    def __init__(self, resultant: Vec3, moment_at_origin: Vec3):
        _set_resultant(self, resultant)
        _set_moment_at_origin(self, moment_at_origin)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "Screw":
        return Screw(Vec3.zero(), Vec3.zero())

    @staticmethod
    def from_free_vector(v: Vec3) -> "Screw":
        """Constant field equal to v everywhere (zero resultant)."""
        return Screw(Vec3.zero(), v)

    @staticmethod
    def from_applied_vector(point: Point, vector: Vec3) -> "Screw":
        """Field of a vector applied along the line through ``point``:
        s(P) = vector x (P - point).  Vanishes on its own axis."""
        return Screw(vector, vector.cross(ORIGIN - point))

    @staticmethod
    def from_motor(point: Point, resultant: Vec3, value_at_point: Vec3) -> "Screw":
        """Reconstruct the screw whose field takes ``value_at_point`` at
        ``point``.  Inverse of reading (resultant, value_at(point))."""
        return Screw(
            resultant, value_at_point + resultant.cross(ORIGIN - point)
        )

    # -- the field ---------------------------------------------------------

    def value_at(self, point: Point) -> Vec3:
        """Field value at a point: s(P) = s(O) + resultant x (P - O)."""
        return self.moment_at_origin + self.resultant.cross(point - ORIGIN)

    # -- vector-space structure --------------------------------------------

    def __add__(self, other: "Screw") -> "Screw":
        return Screw(
            self.resultant + other.resultant,
            self.moment_at_origin + other.moment_at_origin,
        )

    def __sub__(self, other: "Screw") -> "Screw":
        return Screw(
            self.resultant - other.resultant,
            self.moment_at_origin - other.moment_at_origin,
        )

    def __neg__(self) -> "Screw":
        return Screw(-self.resultant, -self.moment_at_origin)

    def __mul__(self, k: float) -> "Screw":
        return Screw(self.resultant * k, self.moment_at_origin * k)

    __rmul__ = __mul__

    def isclose(self, other: "Screw", rel: float = 1e-12, abs_: float = 1e-12) -> bool:
        return self.resultant.isclose(
            other.resultant, rel, abs_
        ) and self.moment_at_origin.isclose(other.moment_at_origin, rel, abs_)

    # -- invariants ----------------------------------------------------------

    def scalar_invariant(self) -> float:
        """s(P) . resultant, the same number at every P."""
        return self.moment_at_origin.dot(self.resultant)

    def vector_invariant(self) -> Vec3:
        """Component of the field value along the resultant; equals the field
        value on the axis.  For a zero-resultant screw this is the constant
        field value itself."""
        if self.is_free():
            return self.moment_at_origin
        u = self.resultant.normalized()
        return u * self.moment_at_origin.dot(u)

    def amplitude(self) -> float:
        """Magnitude of the resultant (unsigned)."""
        return self.resultant.norm()

    def is_zero(self) -> bool:
        return self.is_free() and _negligible(self.moment_at_origin)

    def is_free(self) -> bool:
        """True when the resultant is negligible, i.e. the field is constant
        (a couple, for wrenches; a pure translation, for twists)."""
        return _negligible(self.resultant)

    # -- axis and pitch ------------------------------------------------------

    def axis(self) -> ScrewAxis:
        """Locus of minimum field magnitude.

        For nonzero resultant w = n u (|u| = 1) this is the line through
        A + u x s(A) / n with direction u (A any base point); the field there
        reduces to the vector invariant.  For negligible resultant every
        point realizes the minimum and the axis degenerates to all of space.
        """
        if self.is_free():
            return DegenerateAxis()
        w = self.resultant
        n = w.norm()
        u = w / n
        return LineAxis(ORIGIN + u.cross(self.moment_at_origin) / n, u)

    def pitch(self) -> Pitch:
        """Axis advance per full revolution: 2 pi (s(P) . u) / n for the
        resultant w = n u (|u| = 1), which is 2 pi (s(P) . w) / (w . w).

        Free screws (zero resultant, nonzero field) translate without
        rotating and get ``InfinitePitch``; the zero screw gets the explicit
        ``ZeroScrewPitch`` marker rather than a sentinel number.
        """
        if self.is_free():
            if self.is_zero():
                return ZeroScrewPitch()
            return InfinitePitch()
        w = self.resultant
        n = w.norm()
        return FinitePitch(2.0 * math.pi * self.moment_at_origin.dot(w / n) / n)


_set_resultant, _set_moment_at_origin = Screw._setters
