"""Screws: vector fields on space whose values at two points differ by a cross
product with a fixed vector.

A screw is a map ``s`` from points to vectors satisfying

    s(P) = s(Q) + resultant x (P - Q)        for all points P, Q,

for a single vector ``resultant`` (written ``s.resultant``).  Angular-velocity
fields of rigid bodies, force systems (resultant + moment field) and momentum
fields all have this shape, which is why one algebra serves kinematics,
statics and dynamics alike.  ``Twist``, ``Wrench`` and ``MomentumScrew``
are one screw role (``_ScrewRole``) under three names: a ``Screw`` read
through the role's names, equal to and summed with the same role only.

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
* The vector invariant, the axis and the pitch of a line screw read one
  core, ``_axis``: the unit direction u = w / |w|, the amplitude |w| of the
  resultant w and the axis field strength s(O) . u, never w . w, which can
  overflow or lose its digits to underflow where the answer does neither
  (``Vec3.norm`` cannot).
* The *pitch* uses the full-turn normalization: a screw of pitch p advances
  by p along its axis per complete revolution, so the vector invariant is
  (p / 2 pi) times the resultant.  Beware: much of the robotics literature
  omits the 2 pi.
"""

from __future__ import annotations

import math

from .errors import MissingVelocitiesError, NonFiniteError
from .vecmath import ORIGIN, Point, Vec3, _norm, _Value

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


def _add_cross(v: Vec3, w: Vec3, dx: float, dy: float, dz: float) -> Vec3:
    """``v + w.cross(Vec3(dx, dy, dz))``, fused (see ``vecmath``)."""
    return Vec3(
        v.x + (w.y * dz - w.z * dy),
        v.y + (w.z * dx - w.x * dz),
        v.z + (w.x * dy - w.y * dx),
    )


def _axis(
    wx: float, wy: float, wz: float, mx: float, my: float, mz: float
) -> tuple[float, ...]:
    """(n, u, t, P) of the line screw with resultant w and moment m at the
    origin, as eight floats: n = |w|, u = w / n, the axis field strength
    t = m . u and the axis point P = O + u x m / n.  The one definition of a
    line screw's invariants: the vector invariant u t, the axis (P, u) and
    the pitch 2 pi t / n of ``Screw`` and of the ``reduction`` report, and
    ``rigid.chasles``'s slide and ``reduction.decompose_two_applied``'s split
    read it, with the float operations of the ``Vec3`` expressions in their
    order.  Each caller builds P as a ``Point``, whose check is the one test
    of u x m / n (w / n needs none, as |w_i| <= n)."""
    n = _norm(wx, wy, wz)
    ux = wx / n
    uy = wy / n
    uz = wz / n
    t = mx * ux + my * uy + mz * uz
    cx = uy * mz - uz * my
    cy = uz * mx - ux * mz
    cz = ux * my - uy * mx
    px = cx / n
    py = cy / n
    pz = cz / n
    # O + p is 0.0 + p.x, which turns a -0.0 into 0.0.
    return n, ux, uy, uz, t, 0.0 + px, 0.0 + py, 0.0 + pz


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
        if not isinstance(point, Point):
            raise TypeError(f"from_motor takes a Point, got {point.__class__.__name__}")
        # O - P is 0.0 - p.x, not -p.x, which would flip the sign of a zero.
        moment = _add_cross(value_at_point, resultant, 0.0 - point.x, 0.0 - point.y, 0.0 - point.z)
        return Screw(resultant, moment)

    # -- the field ---------------------------------------------------------

    def value_at(self, point: Point) -> Vec3:
        """Field value at a point: s(P) = s(O) + resultant x (P - O)."""
        if not isinstance(point, Point):
            raise TypeError(f"value_at takes a Point, got {point.__class__.__name__}")
        # P - O is the point's coordinates: p.x - 0.0 is exactly p.x.
        return _add_cross(self.moment_at_origin, self.resultant, point.x, point.y, point.z)

    # -- vector-space structure --------------------------------------------

    def __add__(self, other: "Screw") -> "Screw":
        if other.__class__ is not Screw:
            return NotImplemented
        return Screw(
            self.resultant + other.resultant,
            self.moment_at_origin + other.moment_at_origin,
        )

    def __sub__(self, other: "Screw") -> "Screw":
        if other.__class__ is not Screw:
            return NotImplemented
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
        _, ux, uy, uz, t, _, _, _ = self._line()
        return Vec3(ux * t, uy * t, uz * t)

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
        _, ux, uy, uz, _, px, py, pz = self._line()
        return LineAxis(Point(px, py, pz), Vec3(ux, uy, uz))

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
        n, _, _, _, t, _, _, _ = self._line()
        return FinitePitch(2.0 * math.pi * t / n)

    def _line(self) -> tuple[float, ...]:
        """``_axis`` of this screw's six floats: (n, u, t, P)."""
        w = self.resultant
        m = self.moment_at_origin
        return _axis(w.x, w.y, w.z, m.x, m.y, m.z)


_set_resultant, _set_moment_at_origin = Screw._setters


class _ScrewRole(_Value):
    """A screw in one physical role.  ``Twist``, ``Wrench`` and
    ``MomentumScrew`` subclass it with no field of their own and publish the
    resultant, the value at a point and the applied-vector constructor under
    their role's names."""

    __slots__ = ("screw",)

    def __init__(self, screw: Screw):
        _set_role_screw(self, screw)

    @classmethod
    def zero(cls):
        return cls(Screw.zero())

    @classmethod
    def from_motor(cls, point: Point, resultant: Vec3, value_at_point: Vec3):
        """The role of ``Screw.from_motor(point, resultant, value_at_point)``."""
        return cls(Screw.from_motor(point, resultant, value_at_point))

    def __add__(self, other):
        if other.__class__ is self.__class__:
            return self.__class__(self.screw + other.screw)
        return NotImplemented

    @property
    def _resultant(self) -> Vec3:
        return self.screw.resultant

    def _value_at(self, point: Point) -> Vec3:
        return self.screw.value_at(point)

    def _from_applied_vector(cls, point: Point, vector: Vec3):
        """The role of ``Screw.from_applied_vector(point, vector)``; a role
        binds this function with ``classmethod``, so that it builds that role."""
        return cls(Screw.from_applied_vector(point, vector))


(_set_role_screw,) = _ScrewRole._setters


def _screw_sum(members, kind=None) -> Screw:
    """The sum of the screws of ``members``, the one screw sum, which
    ``wrench_of`` (``kind`` None), ``compose_chain`` (``kind`` ``_ScrewRole``)
    and ``momentum_screw`` (``kind`` ``Particle``) share.  A member is, by
    caller, an applied vector ``(point, vector)``, whose screw is
    (vector, vector x (O - point)); a screw role, whose screw's six
    components it adds; or a record of the class ``kind``, the applied vector
    ``velocity * mass`` at ``position``.

    Six float accumulators start at 0.0 and add the terms in the order of the
    value form, total = total + screw member by member, with O - P as
    ``0.0 - p.x`` as ``Screw.from_applied_vector`` forms it, so the sum has
    that form's bits (``x * mass`` rounds as ``Vec3 * mass`` does).  The two
    ``Vec3``s of the result are its one finiteness test: a non-finite term or
    partial sum leaves its accumulator non-finite.  A member whose point and
    vector are not exactly a ``Point`` and a ``Vec3`` (whose screw is not a
    ``Screw`` of two ``Vec3``s, for a role), such as a pair given as a list
    or a particle with no velocity, or that is of another caller's kind,
    such as a twist among forces or a pair among particles, is added to the
    sum so far by the value form of ``kind``'s sum, which gives its bits or
    raises as it does."""
    # The class of the caller's pairs and of its roles; None and () match no
    # member.
    pair = tuple if kind is None else None
    role = _ScrewRole if kind is _ScrewRole else ()
    rx = ry = rz = mx = my = mz = 0.0
    for member in members:
        cls = member.__class__
        if cls is pair and len(member) == 2:
            point, vector = member
        elif cls is kind:
            point = member.position
            vector = member.velocity
        elif isinstance(member, role) and member.screw.__class__ is Screw:
            w = member.screw.resultant
            m = member.screw.moment_at_origin
            if w.__class__ is Vec3 and m.__class__ is Vec3:
                rx = rx + w.x
                ry = ry + w.y
                rz = rz + w.z
                mx = mx + m.x
                my = my + m.y
                mz = mz + m.z
                continue
            point = None
        else:
            point = None
        if point.__class__ is not Point or vector.__class__ is not Vec3:
            total = Screw(Vec3(rx, ry, rz), Vec3(mx, my, mz))
            if kind is None:
                point, vector = member
                total = total + Screw.from_applied_vector(point, vector)
            elif kind is _ScrewRole:
                total = total + member.screw
            else:
                if member.velocity is None:
                    raise MissingVelocitiesError("momentum needs velocities on all particles")
                mv = member.velocity * member.mass
                total = Screw(total.resultant + mv, total.moment_at_origin + member.position.to_vec().cross(mv))
            rx, ry, rz = total.resultant.components()
            mx, my, mz = total.moment_at_origin.components()
            continue
        fx = vector.x
        fy = vector.y
        fz = vector.z
        if cls is kind:
            mass = member.mass
            fx = fx * mass
            fy = fy * mass
            fz = fz * mass
        dx = 0.0 - point.x
        dy = 0.0 - point.y
        dz = 0.0 - point.z
        rx = rx + fx
        ry = ry + fy
        rz = rz + fz
        mx = mx + (fy * dz - fz * dy)
        my = my + (fz * dx - fx * dz)
        mz = mz + (fx * dy - fy * dx)
    return Screw(Vec3(rx, ry, rz), Vec3(mx, my, mz))
