"""Small fixed-size linear algebra used everywhere else, and ``_Value``, the
immutable base of every value and record class of the library.

Vectors, points and 3x3 matrices are immutable value objects built on plain
floats, and so is every factorization of the package, each a small
pure-Python solve: the inertia inverse's cyclic Jacobi eigensolve
(``sim._jacobi_eigen``), and the one-sided Jacobi SVD
``dynamics._jacobi_svd``, behind the reciprocal subspace's Householder QR
(``dynamics._null_space``) and as the polar projection U V^T
(``sim._renormalize``).  The package does not use numpy.

A ``Point`` is a location, a ``Vec3`` a displacement: Point - Point = Vec3,
Point + Vec3 = Point, and any other sum or difference of them is a TypeError.

Composite operations on the algebra's hot paths are fused (``Screw.value_at``,
``from_motor``, ``lie.commutator``, ``lie.from_frame``, ``rigid.rodrigues``):
one value, built entry by entry through the checking constructor with the
float operations of the composed expression in its order.  It rounds as that
expression does, to the bit, and raises ``NonFiniteError`` on the same
inputs.  Float cores build no value at all but keep those operations, and
refuse where their composed form does with one test per chain of values
(``sim._stream``); the value API wraps them and the phases of the sim step
kernel (``sim._read``, ``_advance`` and ``_diagnose``) share them:
``_norm``, the 3x3 product ``_matmul`` (whose callers check it) and
``_orthonormality_defect`` here, ``rigid._rodrigues``,
``sim._world_inertia`` and ``sim._angular_velocity``.

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


def _norm(x: float, y: float, z: float) -> float:
    """|(x, y, z)|, the one definition, which ``Vec3.norm`` and the sim step
    kernel share."""
    d = x * x + y * y + z * z
    if _MIN_NORMAL <= d < math.inf:
        return math.sqrt(d)
    # The sum of squares overflowed, or fell to 0.0 or into the subnormals
    # where it loses digits; hypot scales before squaring.
    return math.hypot(x, y, z)


def _orthonormality_defect(r: tuple[float, ...]) -> float:
    """max |R^T R - I| for the row-major 9-tuple R, the one definition, which
    ``Mat3.orthonormality_defect`` and the sim kernel's drift test share.
    R^T R is symmetric to the bit, and it is checked finite as the ``Mat3``
    it forms when the sum of the entries of R^T R - I is not.  R^T R - I
    needs no check of its own: it shares R^T R's off-diagonal entries, and a
    finite diagonal entry minus 1.0 is finite."""
    xx, xy, xz, yx, yy, yz, zx, zy, zz = r
    dxy = xx * xy + yx * yy + zx * zy
    dxz = xx * xz + yx * yz + zx * zz
    dyz = xy * xz + yy * yz + zy * zz
    dxx = (xx * xx + yx * yx + zx * zx) - 1.0
    dyy = (xy * xy + yy * yy + zy * zy) - 1.0
    dzz = (xz * xz + yz * yz + zz * zz) - 1.0
    if not isfinite(dxx + dxy + dxz + dyy + dyz + dzz):
        sxx = xx * xx + yx * yx + zx * zx
        syy = xy * xy + yy * yy + zy * zy
        szz = xz * xz + yz * yz + zz * zz
        _require_finite("Mat3", sxx, dxy, dxz, dxy, syy, dyz, dxz, dyz, szz)
    return max(abs(dxx), abs(dxy), abs(dxz), abs(dyy), abs(dyz), abs(dzz))


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
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return self / n

    def is_zero(self) -> bool:
        return self.x == 0.0 and self.y == 0.0 and self.z == 0.0

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
        return self.row(0).dot(self.row(1).cross(self.row(2)))

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
        """Whether ``orthonormality_defect()`` is within ``tol``.  No entry of
        an orthonormal matrix exceeds 1, and one beyond 2 could overflow the
        squares of R^T R, so such a matrix is refused before forming it."""
        return self.max_abs() <= 2.0 and self.orthonormality_defect() <= tol


(_set_xx, _set_xy, _set_xz, _set_yx, _set_yy, _set_yz,
 _set_zx, _set_zy, _set_zz) = Mat3._setters
