"""Small fixed-size linear algebra used everywhere else, and ``_Value``, the
immutable base of every value and record class of the library.

Vectors, points and 3x3 matrices are immutable value objects built on plain
floats, and so is every factorization of the package: all three rest on
one pure-Python one-sided Jacobi SVD, ``dynamics._jacobi_svd``, which gives
the inertia inverse its eigenpairs (``sim._inverse_moment``), ranks the
reciprocal subspace behind its Householder QR (``dynamics._null_space``) and
gives the polar projection U V^T (``sim._renormalize``).  The package does
not use numpy.

A ``Point`` is a location, a ``Vec3`` a displacement: Point - Point = Vec3,
Point + Vec3 = Point, and any other sum or difference of them is a TypeError.

Composite operations on the algebra's hot paths are fused (``Screw.value_at``,
``from_motor``, ``lie.commutator``, ``rigid.rodrigues``): one value, built
entry by entry through the checking constructor with the float operations of
the composed expression in its order, so it rounds as that expression does,
to the bit, and its constructor's check is its one finiteness test.  Float
cores build no value at all but keep those operations.  They test each group
of float values once, at its end, and refuse a group that is not finite with
one ``NonFiniteError`` that names it (``_refuse``, ``sim._stream``).  A
group's end that goes straight into a checking constructor needs no test of
its own.  The value API wraps the cores, and the phases of the sim step
kernel (``sim._read``, ``_advance`` and ``_diagnose``) share them: ``_norm``,
the 3x3 product ``_matmul`` (whose callers check it), ``_orthonormality_defect``
and ``_det`` here, ``rigid._rodrigues`` and ``sim._angular_velocity``.  The
screw sum ``screw._screw_sum`` serves ``wrench_of``, ``compose_chain`` and
``momentum_screw``.  The exp/log kernels
``rigid.exp_screw`` and ``rigid.chasles``, the two-vector reduction
``reduction.decompose_two_applied`` and the reciprocal subspace
``dynamics.reciprocal_subspace`` work on floats and build only the values
they return; they share the zero rule ``_is_zero`` here (every component
0.0, which ``Vec3.is_zero``, ``Screw.is_free`` and ``is_zero`` apply too),
the axis core ``screw._axis`` (n, u, m . u and the axis point of a line
screw, which ``Screw``'s vector invariant, axis and pitch and the one
report ``reduction._report`` read too, and which refuses an n beyond the
float range), ``RigidMap``'s rotation check on nine floats
(``_is_orthonormal`` and ``_det`` here), the pairing rows
``lie._dual_coords`` and the basis screw ``lie._screw_from_coords``.  The
value forms they replace are their bit oracles in ``tests/``.

One range rule serves every layer.  ``_scaled`` is the one exact
power-of-two scaling, which the reciprocal pairing blocks, the tiny
Householder column, the inertia inverse and the polar projection call;
``_unit`` is the one division of a vector by its norm (the sim step kernel
keeps its own), which is the quotient by sqrt(d) where the sum of squares d
is a normal float and goes through ``_scaled`` elsewhere, so a direction is
a unit vector at every scale; ``_ratio`` forms k t / n, the pitch and the
two-vector arm, dividing first where k t would overflow.  Classification
reads exact zeros only, so a change of units by a power of two changes no
class unless it leaves the float range.

Every value and record class (``Vec3``, ``Point`` and ``Mat3`` here;
``Screw``, its roles, axes and pitches, ``Frame``, ``RigidMap``,
``BodyState``, ``SimConfig``, ``Scene`` and the rest elsewhere) subclasses
``_Value``.  It names its own fields in ``__slots__`` (its ``_field_names``
are those of its whole MRO, base classes first, so a subclass with
``__slots__ = ()``, as each screw role is, has its base's) and builds itself
in its own or its base's ``__init__``: it makes its checks (a ``Vec3``,
``Point`` or ``Mat3`` refuses a NaN or infinite component with
``NonFiniteError``), then stores the fields through the ``__set__`` of each
field's member descriptor (``_setters``): directly, from module-level names,
in the values and records built in the arithmetic and the algebra calls, and
through ``_Value._store`` in the others, among them ``BodyState`` and
``StepDiagnostics``, which only ``sim.run`` and ``sim.step`` build.  ``_Value``
supplies what a frozen slots dataclass would: assigning or deleting any
attribute raises ``dataclasses.FrozenInstanceError``, ``==`` holds only
between values of the same class, ``hash`` is that of the field tuple,
``repr`` is the dataclass ``repr``, and ``__reduce__`` goes through the
constructor for ``pickle`` and ``copy``.  No module imports ``dataclasses``:
loading it, with the ``inspect`` it imports, and decorating each class took a
large share of a command-line process's start-up, and a dataclass
``__init__`` that stores each field through ``object.__setattr__`` and then
calls ``__post_init__`` costs more than the checks it guards.
"""

from __future__ import annotations

import math
import sys
from math import isfinite
from operator import attrgetter

from .errors import NonFiniteError

__all__ = ["Vec3", "Point", "Mat3", "ORIGIN"]

_MIN_NORMAL = sys.float_info.min


def _require_finite(name: str, *values: float) -> None:
    for v in values:
        if not isfinite(v):
            raise NonFiniteError(f"{name} components must be finite, got {values}")


def _refuse(what: str, *values: float) -> None:
    """Refuse the group of float values whose end is ``values``, naming it,
    unless every one is finite.  A group is a chain of values joined only by
    +, -, * and division by a positive finite number, so a non-finite link
    reaches the end (0 * inf and inf - inf are NaN).  A caller tests the sum
    of the end first and calls this only when that sum is not finite, so a
    sum that merely overflowed raises nothing."""
    if not all(map(isfinite, values)):
        raise NonFiniteError(f"{what} is not finite")


def _is_zero(x: float, y: float, z: float) -> bool:
    """The one zero rule: (x, y, z) is zero only when every component is
    0.0, of either sign.  ``Vec3.is_zero`` applies it, and so do
    ``Screw.is_free`` and ``is_zero`` and the kernels that branch on a free
    screw.  No tolerance and no square enters, so a change of units by a
    power of two, which moves no component to or from 0.0 unless it leaves
    the float range, cannot change a class."""
    return x == 0.0 and y == 0.0 and z == 0.0


def _scaled(values) -> tuple[int, list[float]]:
    """(e, [v * 2**-e for v in values]) for the power of two that brings the
    largest |v| into [0.5, 1): the one exact power-of-two scaling (Blue, ACM
    TOMS 1978; Anderson, "Algorithm 978", ACM TOMS 2017).  A scaled value
    is exact unless it falls into the subnormals, so a result scaled back
    rounds as it would in the normal range.  All zeros give e = 0 and come
    back as they are, signed zeros included."""
    e = math.frexp(max(map(abs, values)))[1]
    return e, [math.ldexp(v, -e) for v in values]


def _norm(x: float, y: float, z: float) -> float:
    """|(x, y, z)|, the one definition, which ``Vec3.norm`` and the sim step
    kernel share."""
    d = x * x + y * y + z * z
    if _MIN_NORMAL <= d < math.inf:
        return math.sqrt(d)
    # The sum of squares overflowed, or fell to 0.0 or into the subnormals
    # where it loses digits; hypot scales before squaring.
    return math.hypot(x, y, z)


def _unit(x: float, y: float, z: float) -> tuple[float, float, float, float]:
    """(n, u) = (|(x, y, z)|, (x, y, z) / n) as four floats: the one division
    of a vector by its norm outside the sim step kernel.  Where the sum of
    squares d is a normal float, n = sqrt(d) and u = (x / n, y / n, z / n).
    Elsewhere n is ``_norm``'s hypot, which may be inf, and u is the
    ``_scaled`` vector divided by its own norm, whose squares lie in
    [0.25, 3): so u is a unit vector within 2 eps for every nonzero finite
    vector, the subnormal and the overflowing ones too.  n is ``_norm`` to
    the bit.  The zero vector has no direction: it gives n = 0.0 and u its
    own zeros, so ``chasles`` reads |w| and u of an axial vector w that may
    be zero in one call."""
    d = x * x + y * y + z * z
    if _MIN_NORMAL <= d < math.inf:
        n = math.sqrt(d)
        return n, x / n, y / n, z / n
    _, (sx, sy, sz) = _scaled((x, y, z))
    s = math.sqrt(sx * sx + sy * sy + sz * sz)
    if s == 0.0:
        return s, sx, sy, sz
    return math.hypot(x, y, z), sx / s, sy / s, sz / s


def _ratio(k: float, t: float, n: float) -> float:
    """k t / n for n > 0, the one form of the pitch 2 pi t / n and of the
    two-vector arm -2 sigma / |w|: (k t) / n as written where k t is
    finite, and k (t / n) where it overflows, so a ratio within the float
    range is not refused for a product that is not."""
    kt = k * t
    if isfinite(kt):
        return kt / n
    return k * (t / n)


def _orthonormality_defect(r: tuple[float, ...]) -> float:
    """max |R^T R - I| for the row-major 9-tuple R, the one definition, which
    ``Mat3.orthonormality_defect`` and the sim kernel's drift test share.
    R^T R is symmetric to the bit, and R^T R - I is its one group."""
    xx, xy, xz, yx, yy, yz, zx, zy, zz = r
    dxy = xx * xy + yx * yy + zx * zy
    dxz = xx * xz + yx * yz + zx * zz
    dyz = xy * xz + yy * yz + zy * zz
    dxx = (xx * xx + yx * yx + zx * zx) - 1.0
    dyy = (xy * xy + yy * yy + zy * zy) - 1.0
    dzz = (xz * xz + yz * yz + zz * zz) - 1.0
    if not isfinite(dxx + dxy + dxz + dyy + dyz + dzz):
        _refuse("R^T R", dxx, dxy, dxz, dyy, dyz, dzz)
    return max(abs(dxx), abs(dxy), abs(dxz), abs(dyy), abs(dyz), abs(dzz))


def _is_orthonormal(r: tuple[float, ...], tol: float) -> bool:
    """Whether the row-major 9-tuple R has ``_orthonormality_defect`` within
    ``tol``, the one test, which ``Mat3.is_orthonormal`` and ``RigidMap``'s
    rotation check share.  No entry of an orthonormal matrix exceeds 1, and
    one beyond 2 could overflow the squares of R^T R, so such a matrix is
    refused before forming it."""
    return max(map(abs, r)) <= 2.0 and _orthonormality_defect(r) <= tol


def _det(r: tuple[float, ...]) -> float:
    """det R for the row-major 9-tuple R, the one definition, which
    ``Mat3.det`` and ``RigidMap``'s rotation check share: row 0 dotted with row
    1 x row 2, with the float operations of that ``Vec3`` expression in its
    order.  It refuses where that expression does; the dot product may
    overflow, as ``Vec3.dot`` may."""
    xx, xy, xz, yx, yy, yz, zx, zy, zz = r
    cx = yy * zz - yz * zy
    cy = yz * zx - yx * zz
    cz = yx * zy - yy * zx
    if not isfinite(cx + cy + cz):
        _refuse("row 2 x row 3 of the determinant", cx, cy, cz)
    return xx * cx + xy * cy + xz * cz


def _matmul(a: tuple[float, ...], b: tuple[float, ...]) -> tuple[float, ...]:
    """A B for the row-major 9-tuples A and B, the one definition, which
    ``Mat3.matmul`` and the sim kernel share: entry (i, j) is row i of A
    dotted with column j of B, summed left to right as ``Mat3.matvec`` sums.
    Each caller checks the product finite as the ``Mat3`` it forms."""
    axx, axy, axz, ayx, ayy, ayz, azx, azy, azz = a
    bxx, bxy, bxz, byx, byy, byz, bzx, bzy, bzz = b
    return (
        axx * bxx + axy * byx + axz * bzx,
        axx * bxy + axy * byy + axz * bzy,
        axx * bxz + axy * byz + axz * bzz,
        ayx * bxx + ayy * byx + ayz * bzx,
        ayx * bxy + ayy * byy + ayz * bzy,
        ayx * bxz + ayy * byz + ayz * bzz,
        azx * bxx + azy * byx + azz * bzx,
        azx * bxy + azy * byy + azz * bzy,
        azx * bxz + azy * byz + azz * bzz,
    )


# The constructors below test each field inline and call _require_finite only
# to raise: they run for every intermediate value of the arithmetic, where a
# call per construction is most of the cost.


class _Value:
    """Immutable value behaviour of every value and record class.  A subclass
    names its own fields in ``__slots__``; on its creation, ``_field_names``
    gets the fields over its MRO, base classes first, ``_setters`` the
    ``__set__`` of each one's member descriptor, and ``_fields``, the field
    tuple in that order, is read by one C-level ``attrgetter``."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = tuple(
            name for base in reversed(cls.__mro__) for name in vars(base).get("__slots__", ())
        )
        cls._field_names = names
        cls._setters = tuple(getattr(cls, name).__set__ for name in names)
        if len(names) > 1:
            cls._fields = property(attrgetter(*names))
        else:
            cls._fields = property(lambda self: tuple([getattr(self, n) for n in names]))

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _store(self, *values) -> None:
        """Store the fields in ``_field_names`` order, past the frozen
        ``__setattr__``: the constructors of records built off the hot paths
        end with this."""
        for set_field, value in zip(self._setters, values):
            set_field(self, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields == other._fields
        return NotImplemented

    def __hash__(self):
        return hash(self._fields)

    def __repr__(self):
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self._field_names, self._fields))
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        # Copies and unpickled values go through the constructor and its check.
        return self.__class__, self._fields


class Vec3(_Value):
    """Free vector with components in the fixed global basis."""

    __slots__ = ("x", "y", "z")

    def __init__(self, x: float, y: float, z: float):
        if not (isfinite(x) and isfinite(y) and isfinite(z)):
            _require_finite("Vec3", x, y, z)
        _set_vec3_x(self, x)
        _set_vec3_y(self, y)
        _set_vec3_z(self, z)

    def __add__(self, other: "Vec3") -> "Vec3":
        if other.__class__ is not Vec3:
            return NotImplemented
        return Vec3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Vec3") -> "Vec3":
        if other.__class__ is not Vec3:
            return NotImplemented
        return Vec3(self.x - other.x, self.y - other.y, self.z - other.z)

    def __neg__(self) -> "Vec3":
        return Vec3(-self.x, -self.y, -self.z)

    def __mul__(self, k: float) -> "Vec3":
        return Vec3(self.x * k, self.y * k, self.z * k)

    __rmul__ = __mul__

    def __truediv__(self, k: float) -> "Vec3":
        return Vec3(self.x / k, self.y / k, self.z / k)

    def dot(self, other: "Vec3") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def cross(self, other: "Vec3") -> "Vec3":
        return Vec3(
            self.y * other.z - self.z * other.y,
            self.z * other.x - self.x * other.z,
            self.x * other.y - self.y * other.x,
        )

    def norm(self) -> float:
        return _norm(self.x, self.y, self.z)

    def normalized(self) -> "Vec3":
        if self.is_zero():
            raise ValueError("cannot normalize the zero vector")
        _, x, y, z = _unit(self.x, self.y, self.z)
        return Vec3(x, y, z)

    def is_zero(self) -> bool:
        return _is_zero(self.x, self.y, self.z)

    def isclose(self, other: "Vec3", rel: float = 1e-12, abs_: float = 1e-12) -> bool:
        return all(
            math.isclose(a, b, rel_tol=rel, abs_tol=abs_)
            for a, b in zip(self.components(), other.components())
        )

    def components(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)

    @staticmethod
    def zero() -> "Vec3":
        return Vec3(0.0, 0.0, 0.0)


_set_vec3_x, _set_vec3_y, _set_vec3_z = Vec3._setters


class Point(_Value):
    """Location in affine space, held as coordinates relative to the global origin."""

    __slots__ = ("x", "y", "z")

    def __init__(self, x: float, y: float, z: float):
        if not (isfinite(x) and isfinite(y) and isfinite(z)):
            _require_finite("Point", x, y, z)
        _set_point_x(self, x)
        _set_point_y(self, y)
        _set_point_z(self, z)

    def __sub__(self, other: "Point") -> Vec3:
        if not isinstance(other, Point):
            return NotImplemented
        return Vec3(self.x - other.x, self.y - other.y, self.z - other.z)

    def __add__(self, d: Vec3) -> "Point":
        if not isinstance(d, Vec3):
            return NotImplemented
        return Point(self.x + d.x, self.y + d.y, self.z + d.z)

    def to_vec(self) -> Vec3:
        """Displacement from the global origin to this point."""
        return Vec3(self.x, self.y, self.z)

    def isclose(self, other: "Point", rel: float = 1e-12, abs_: float = 1e-12) -> bool:
        return (self - other).norm() <= max(
            abs_, rel * max(self.to_vec().norm(), other.to_vec().norm())
        )

    def components(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)


_set_point_x, _set_point_y, _set_point_z = Point._setters

ORIGIN = Point(0.0, 0.0, 0.0)


class Mat3(_Value):
    """Row-major 3x3 matrix of floats."""

    __slots__ = ("xx", "xy", "xz", "yx", "yy", "yz", "zx", "zy", "zz")

    def __init__(
        self,
        xx: float, xy: float, xz: float,
        yx: float, yy: float, yz: float,
        zx: float, zy: float, zz: float,
    ):
        if not (
            isfinite(xx) and isfinite(xy) and isfinite(xz)
            and isfinite(yx) and isfinite(yy) and isfinite(yz)
            and isfinite(zx) and isfinite(zy) and isfinite(zz)
        ):
            _require_finite("Mat3", xx, xy, xz, yx, yy, yz, zx, zy, zz)
        _set_xx(self, xx)
        _set_xy(self, xy)
        _set_xz(self, xz)
        _set_yx(self, yx)
        _set_yy(self, yy)
        _set_yz(self, yz)
        _set_zx(self, zx)
        _set_zy(self, zy)
        _set_zz(self, zz)

    @staticmethod
    def identity() -> "Mat3":
        return Mat3(1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)

    @staticmethod
    def zero() -> "Mat3":
        return Mat3(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    @staticmethod
    def from_rows(r0: Vec3, r1: Vec3, r2: Vec3) -> "Mat3":
        return Mat3(r0.x, r0.y, r0.z, r1.x, r1.y, r1.z, r2.x, r2.y, r2.z)

    @staticmethod
    def from_columns(c0: Vec3, c1: Vec3, c2: Vec3) -> "Mat3":
        return Mat3(c0.x, c1.x, c2.x, c0.y, c1.y, c2.y, c0.z, c1.z, c2.z)

    @staticmethod
    def outer(u: Vec3, v: Vec3) -> "Mat3":
        return Mat3(
            u.x * v.x, u.x * v.y, u.x * v.z,
            u.y * v.x, u.y * v.y, u.y * v.z,
            u.z * v.x, u.z * v.y, u.z * v.z,
        )

    @staticmethod
    def cross_matrix(v: Vec3) -> "Mat3":
        """Matrix C with C @ u == v x u."""
        return Mat3(0.0, -v.z, v.y, v.z, 0.0, -v.x, -v.y, v.x, 0.0)

    def row(self, i: int) -> Vec3:
        f = self.flat()
        return Vec3(f[3 * i], f[3 * i + 1], f[3 * i + 2])

    def column(self, j: int) -> Vec3:
        f = self.flat()
        return Vec3(f[j], f[3 + j], f[6 + j])

    def flat(self) -> tuple[float, ...]:
        return (
            self.xx, self.xy, self.xz,
            self.yx, self.yy, self.yz,
            self.zx, self.zy, self.zz,
        )

    def __add__(self, o: "Mat3") -> "Mat3":
        a, b = self, o
        return Mat3(
            a.xx + b.xx, a.xy + b.xy, a.xz + b.xz,
            a.yx + b.yx, a.yy + b.yy, a.yz + b.yz,
            a.zx + b.zx, a.zy + b.zy, a.zz + b.zz,
        )

    def __sub__(self, o: "Mat3") -> "Mat3":
        a, b = self, o
        return Mat3(
            a.xx - b.xx, a.xy - b.xy, a.xz - b.xz,
            a.yx - b.yx, a.yy - b.yy, a.yz - b.yz,
            a.zx - b.zx, a.zy - b.zy, a.zz - b.zz,
        )

    def __mul__(self, k: float) -> "Mat3":
        return Mat3(
            self.xx * k, self.xy * k, self.xz * k,
            self.yx * k, self.yy * k, self.yz * k,
            self.zx * k, self.zy * k, self.zz * k,
        )

    __rmul__ = __mul__

    def matvec(self, v: Vec3) -> Vec3:
        return Vec3(
            self.xx * v.x + self.xy * v.y + self.xz * v.z,
            self.yx * v.x + self.yy * v.y + self.yz * v.z,
            self.zx * v.x + self.zy * v.y + self.zz * v.z,
        )

    def matmul(self, o: "Mat3") -> "Mat3":
        return Mat3(*_matmul(self.flat(), o.flat()))

    def transpose(self) -> "Mat3":
        return Mat3(
            self.xx, self.yx, self.zx,
            self.xy, self.yy, self.zy,
            self.xz, self.yz, self.zz,
        )

    def trace(self) -> float:
        return self.xx + self.yy + self.zz

    def det(self) -> float:
        return _det(self.flat())

    def max_abs(self) -> float:
        return max(
            abs(self.xx), abs(self.xy), abs(self.xz),
            abs(self.yx), abs(self.yy), abs(self.yz),
            abs(self.zx), abs(self.zy), abs(self.zz),
        )

    def isclose(self, o: "Mat3", rel: float = 1e-12, abs_: float = 1e-12) -> bool:
        return all(
            math.isclose(a, b, rel_tol=rel, abs_tol=abs_)
            for a, b in zip(self.flat(), o.flat())
        )

    def orthonormality_defect(self) -> float:
        """max |R^T R - I|, zero for an exact rotation."""
        return _orthonormality_defect(self.flat())

    def is_orthonormal(self, tol: float) -> bool:
        """Whether ``orthonormality_defect()`` is within ``tol``, an entry
        beyond 2 refused first (``_is_orthonormal``)."""
        return _is_orthonormal(self.flat(), tol)


(_set_xx, _set_xy, _set_xz, _set_yx, _set_yy, _set_yz,
 _set_zx, _set_zy, _set_zz) = Mat3._setters
