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


def to_frame(s: Screw, frame: Frame) -> Screw6:
    """Coordinates of s in the frame's basis screws."""
    e1, e2, e3 = frame.e1, frame.e2, frame.e3
    w = s.resultant
    at_origin = s.value_at(frame.origin)
    return Screw6(
        (w.dot(e1), w.dot(e2), w.dot(e3)),
        (at_origin.dot(e1), at_origin.dot(e2), at_origin.dot(e3)),
    )


def from_frame(coords: Screw6, frame: Frame) -> Screw:
    """Reassemble the screw sum a_i f_i + sum b_i m_i.  Each sum is fused
    (see ``vecmath``): one ``Vec3`` with the float operations of
    e1 * a1 + e2 * a2 + e3 * a3 in their order.  A sum that refuses is
    recomputed in the composed form, which refuses on the same inputs, with
    the components of its first product or partial sum that overflows."""
    e1, e2, e3 = frame.e1, frame.e2, frame.e3
    a1, a2, a3 = coords.a
    b1, b2, b3 = coords.b
    try:
        resultant = Vec3(
            e1.x * a1 + e2.x * a2 + e3.x * a3,
            e1.y * a1 + e2.y * a2 + e3.y * a3,
            e1.z * a1 + e2.z * a2 + e3.z * a3,
        )
        at_origin = Vec3(
            e1.x * b1 + e2.x * b2 + e3.x * b3,
            e1.y * b1 + e2.y * b2 + e3.y * b3,
            e1.z * b1 + e2.z * b2 + e3.z * b3,
        )
    except NonFiniteError:
        resultant = e1 * a1 + e2 * a2 + e3 * a3
        at_origin = e1 * b1 + e2 * b2 + e3 * b3
    return Screw.from_motor(frame.origin, resultant, at_origin)


def to_dual(s: Screw, frame: Frame) -> Dual6:
    """Coordinates of the functional <s, .> in the dual basis: the pairing
    swaps the two triples, (c, d) = (b, a)."""
    coords = to_frame(s, frame)
    return Dual6(coords.b, coords.a)


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
