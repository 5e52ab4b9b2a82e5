"""Algebraic structure on the six-dimensional space of screws.

Screws close under a commutator (they are the infinitesimal rigid motions)
and carry a distinguished symmetric pairing.  Everything here is defined
without coordinates first; frames only enter for the matrix representations
``to_frame`` / ``ad`` and are property-tested to be a faithful change of
notation, never part of the meaning.

For a frame with origin Q and right-handed orthonormal basis (e1, e2, e3)
the six basis screws are

    f_i = vector e_i applied along the line through Q   (zero pitch)
    m_i = constant field e_i                            (free screw)

ordered (f1, f2, f3, m1, m2, m3).  In that basis the pairing has the block
form [[0, I], [I, 0]], i.e. <s, s'> = a.b' + b.a' where
s = sum a_i f_i + b_i m_i.  The commutation relations are

    [m_i, m_j] = 0
    [f_i, m_j] = -sum_k eps_ijk m_k
    [f_i, f_j] = -sum_k eps_ijk f_k
"""

from __future__ import annotations

from math import isfinite

from .errors import NonFiniteError
from .screw import Screw
from .vecmath import Mat3, Point, Vec3, _require_finite, _Value

__all__ = [
    "Frame",
    "Screw6",
    "Dual6",
    "klein_product",
    "commutator",
    "basis_screws",
    "to_frame",
    "from_frame",
    "to_dual",
    "pairing",
    "ad",
    "killing_form",
]

_FRAME_TOL = 1e-12


class Frame(_Value):
    """Affine frame: origin plus right-handed orthonormal basis."""

    __slots__ = ("origin", "e1", "e2", "e3")

    def __init__(self, origin: Point, e1: Vec3, e2: Vec3, e3: Vec3):
        basis = Mat3.from_columns(e1, e2, e3)
        if not basis.is_orthonormal(_FRAME_TOL):
            raise ValueError("frame basis is not orthonormal")
        if e1.cross(e2).dot(e3) < 0.0:
            raise ValueError("frame basis is not right-handed")
        self._store(origin, e1, e2, e3)

    @staticmethod
    def standard() -> "Frame":
        return Frame(
            Point(0.0, 0.0, 0.0),
            Vec3(1.0, 0.0, 0.0),
            Vec3(0.0, 1.0, 0.0),
            Vec3(0.0, 0.0, 1.0),
        )

    def basis(self) -> tuple[Vec3, Vec3, Vec3]:
        return (self.e1, self.e2, self.e3)


class Screw6(_Value):
    """Coordinates of a screw in a frame: a = resultant components,
    b = components of the field value at the frame origin."""

    __slots__ = ("a", "b")

    def __init__(self, a: tuple[float, float, float], b: tuple[float, float, float]):
        _set_a(self, a)
        _set_b(self, b)


_set_a, _set_b = Screw6._setters


class Dual6(_Value):
    """Coordinates of a linear functional on screws in the basis dual to a
    frame's basis screws.  Kept distinct from Screw6 on purpose: the two
    transform differently under frame changes, and only the pairing of a
    Dual6 with a Screw6 is frame-invariant."""

    __slots__ = ("c", "d")

    def __init__(self, c: tuple[float, float, float], d: tuple[float, float, float]):
        _set_c(self, c)
        _set_d(self, d)


_set_c, _set_d = Dual6._setters


def klein_product(s1: Screw, s2: Screw) -> float:
    """Symmetric invariant pairing: s1.resultant . s2(P) + s2.resultant . s1(P).

    Independent of the evaluation point (the cross terms cancel), bilinear,
    non-degenerate, and invariant under the commutator action.  Twist paired
    with wrench gives power; half the self-pairing of a screw is its scalar
    invariant.
    """
    return s1.resultant.dot(s2.moment_at_origin) + s2.resultant.dot(
        s1.moment_at_origin
    )


def commutator(s1: Screw, s2: Screw) -> Screw:
    """Lie bracket of the two fields, itself a screw:

        [s1, s2](P) = s2.resultant x s1(P) - s1.resultant x s2(P)

    with resultant -(s1.resultant x s2.resultant).  Bilinear, antisymmetric,
    satisfies the Jacobi identity.
    """
    # Fused (see vecmath): Screw(-w1.cross(w2), w2.cross(m1) - w1.cross(m2)).
    w1, w2 = s1.resultant, s2.resultant
    m1, m2 = s1.moment_at_origin, s2.moment_at_origin
    try:
        return Screw(
            Vec3(
                -(w1.y * w2.z - w1.z * w2.y),
                -(w1.z * w2.x - w1.x * w2.z),
                -(w1.x * w2.y - w1.y * w2.x),
            ),
            Vec3(
                (w2.y * m1.z - w2.z * m1.y) - (w1.y * m2.z - w1.z * m2.y),
                (w2.z * m1.x - w2.x * m1.z) - (w1.z * m2.x - w1.x * m2.z),
                (w2.x * m1.y - w2.y * m1.x) - (w1.x * m2.y - w1.y * m2.x),
            ),
        )
    except NonFiniteError as err:
        refusal = err
    # The composed form refuses w1 x w2, w2 x m1 and w1 x m2, in this order,
    # before the difference.
    _require_finite("Vec3", w1.y * w2.z - w1.z * w2.y, w1.z * w2.x - w1.x * w2.z, w1.x * w2.y - w1.y * w2.x)
    _require_finite("Vec3", w2.y * m1.z - w2.z * m1.y, w2.z * m1.x - w2.x * m1.z, w2.x * m1.y - w2.y * m1.x)
    _require_finite("Vec3", w1.y * m2.z - w1.z * m2.y, w1.z * m2.x - w1.x * m2.z, w1.x * m2.y - w1.y * m2.x)
    raise refusal


def basis_screws(frame: Frame) -> tuple[Screw, ...]:
    """Six basis screws (f1, f2, f3, m1, m2, m3) of a frame."""
    q = frame.origin
    f = tuple(Screw.from_applied_vector(q, e) for e in frame.basis())
    m = tuple(Screw.from_free_vector(e) for e in frame.basis())
    return f + m


def _frame_floats(frame: Frame) -> tuple[float, ...]:
    """The frame's origin Q and basis e1, e2, e3 as twelve floats, which the
    change-of-frame cores ``_dual_coords`` and ``_screw_from_coords`` read.
    An origin that is not a ``Point`` is refused as ``Screw.value_at``, which
    reads it first in the composed form of ``to_frame``, refuses it."""
    q, e1, e2, e3 = frame.origin, frame.e1, frame.e2, frame.e3
    if not isinstance(q, Point):
        raise TypeError(f"value_at takes a Point, got {q.__class__.__name__}")
    return q.x, q.y, q.z, e1.x, e1.y, e1.z, e2.x, e2.y, e2.z, e3.x, e3.y, e3.z


def _dual_coords(s: Screw, f: tuple[float, ...]) -> tuple[float, ...]:
    """The coordinates of the functional <s, .> in the dual basis of the
    frame f (``_frame_floats``) as six floats: s(Q) . e_i, then
    resultant . e_i.  The one change of frame to coordinates, which
    ``to_frame``, ``to_dual`` and ``dynamics.reciprocal_subspace`` share,
    with the float operations of ``s.value_at(Q)`` and ``Vec3.dot`` in their
    order.  s(Q) is tested once and refused as ``value_at`` refuses it; the
    dot products may overflow, as ``Vec3.dot`` may."""
    qx, qy, qz, e1x, e1y, e1z, e2x, e2y, e2z, e3x, e3y, e3z = f
    w = s.resultant
    m = s.moment_at_origin
    wx = w.x
    wy = w.y
    wz = w.z
    # s(Q) = s(O) + w x (Q - O), and Q - O is q exactly.
    cx = wy * qz - wz * qy
    cy = wz * qx - wx * qz
    cz = wx * qy - wy * qx
    vx = m.x + cx
    vy = m.y + cy
    vz = m.z + cz
    if not isfinite(vx + vy + vz):
        _require_finite("Vec3", cx, cy, cz)
        _require_finite("Vec3", vx, vy, vz)
    return (
        vx * e1x + vy * e1y + vz * e1z,
        vx * e2x + vy * e2y + vz * e2z,
        vx * e3x + vy * e3y + vz * e3z,
        wx * e1x + wy * e1y + wz * e1z,
        wx * e2x + wy * e2y + wz * e2z,
        wx * e3x + wy * e3y + wz * e3z,
    )


def _screw_from_coords(
    f: tuple[float, ...], a1: float, a2: float, a3: float, b1: float, b2: float, b3: float
) -> Screw:
    """The screw sum a_i f_i + sum b_i m_i in the frame f (``_frame_floats``)
    as one ``Screw`` of two ``Vec3``s.  The one change of frame from
    coordinates, which ``from_frame`` and ``dynamics.reciprocal_subspace``
    share: the resultant e1 * a1 + e2 * a2 + e3 * a3, the value at Q summed
    alike from b, and ``Screw.from_motor``'s transport to the origin, with
    the float operations of that ``Vec3`` expression in their order.  The
    two ``Vec3``s are its one finiteness test; a screw that fails it is
    recomputed in the composed form, which refuses on the same inputs, with
    the components of its first product, partial sum, cross product or sum
    that overflows."""
    qx, qy, qz, e1x, e1y, e1z, e2x, e2y, e2z, e3x, e3y, e3z = f
    rx = e1x * a1 + e2x * a2 + e3x * a3
    ry = e1y * a1 + e2y * a2 + e3y * a3
    rz = e1z * a1 + e2z * a2 + e3z * a3
    vx = e1x * b1 + e2x * b2 + e3x * b3
    vy = e1y * b1 + e2y * b2 + e3y * b3
    vz = e1z * b1 + e2z * b2 + e3z * b3
    # O - Q is 0.0 - q.x, as from_motor forms it.
    dx = 0.0 - qx
    dy = 0.0 - qy
    dz = 0.0 - qz
    try:
        return Screw(
            Vec3(rx, ry, rz),
            Vec3(vx + (ry * dz - rz * dy), vy + (rz * dx - rx * dz), vz + (rx * dy - ry * dx)),
        )
    except NonFiniteError:
        pass
    e1, e2, e3 = Vec3(e1x, e1y, e1z), Vec3(e2x, e2y, e2z), Vec3(e3x, e3y, e3z)
    return Screw.from_motor(Point(qx, qy, qz), e1 * a1 + e2 * a2 + e3 * a3, e1 * b1 + e2 * b2 + e3 * b3)


def to_frame(s: Screw, frame: Frame) -> Screw6:
    """Coordinates of s in the frame's basis screws (``_dual_coords``, the
    two triples swapped)."""
    b1, b2, b3, a1, a2, a3 = _dual_coords(s, _frame_floats(frame))
    return Screw6((a1, a2, a3), (b1, b2, b3))


def from_frame(coords: Screw6, frame: Frame) -> Screw:
    """Reassemble the screw sum a_i f_i + sum b_i m_i
    (``_screw_from_coords``)."""
    a1, a2, a3 = coords.a
    b1, b2, b3 = coords.b
    if not isinstance(frame.origin, Point):
        # The composed form, which refuses the origin in from_motor, after its sums.
        e1, e2, e3 = frame.basis()
        return Screw.from_motor(frame.origin, e1 * a1 + e2 * a2 + e3 * a3, e1 * b1 + e2 * b2 + e3 * b3)
    return _screw_from_coords(_frame_floats(frame), a1, a2, a3, b1, b2, b3)


def to_dual(s: Screw, frame: Frame) -> Dual6:
    """Coordinates of the functional <s, .> in the dual basis: the pairing
    swaps the two triples, (c, d) = (b, a)."""
    c1, c2, c3, d1, d2, d3 = _dual_coords(s, _frame_floats(frame))
    return Dual6((c1, c2, c3), (d1, d2, d3))


def pairing(dual: Dual6, coords: Screw6) -> float:
    """Apply a dual element to screw coordinates (plain 6-dot)."""
    return sum(x * y for x, y in zip(dual.c + dual.d, coords.a + coords.b))


def ad(s: Screw, frame: Frame) -> tuple[tuple[float, ...], ...]:
    """Matrix of the map x -> [s, x] on frame coordinates, as six rows of
    six floats tied to the given frame:

        [[ -W,     0  ]
         [ -M,    -W  ]]

    where W is the cross matrix of the resultant's components and M that of
    the field value at the frame origin.
    """
    coords = to_frame(s, frame)
    w = (Mat3.cross_matrix(Vec3(*coords.a)) * -1.0).flat()
    m = (Mat3.cross_matrix(Vec3(*coords.b)) * -1.0).flat()
    top = tuple(w[i : i + 3] + (0.0, 0.0, 0.0) for i in (0, 3, 6))
    bottom = tuple(m[i : i + 3] + w[i : i + 3] for i in (0, 3, 6))
    return top + bottom


def killing_form(s1: Screw, s2: Screw) -> float:
    """Trace form of the adjoint action.  Closed form: -4 (w1 . w2) where the
    w are the resultants; the trace itself is kept for test oracles."""
    return -4.0 * s1.resultant.dot(s2.resultant)
