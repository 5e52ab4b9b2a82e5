"""Screw-valued rigid-body dynamics.

Three screws carry the whole of Newtonian rigid-body mechanics:

* the twist k: angular velocity + velocity field,
* the wrench d: total force + moment field,
* the momentum screw l: total linear momentum + angular momentum field.

The balance law is the pair of cardinal equations, which in screw form read
"the fixed-pole time derivative of l equals d".  Following poles that move
with the body instead costs a commutator correction: the body-relative
derivative of l is d + [k, l].  Kinetic energy and power are half-pairings:
T = <k, l> / 2 and P = <k, d>.

The inertia of a distribution of point masses enters as the linear map from
angular velocity to angular momentum about the center of mass, transported
to other poles by the parallel-axis rule.
"""

from __future__ import annotations

import math
import sys

from .errors import EmptyDistributionError
from .kinematics import Twist
from .lie import (
    Frame,
    _dual_coords,
    _frame_floats,
    _screw_from_coords,
    basis_screws,
    commutator,
    klein_product,
)
from .screw import Screw, _screw_sum, _ScrewRole
from .vecmath import _MIN_NORMAL, Mat3, Point, Vec3, _scaled, _Value

__all__ = [
    "Wrench",
    "MomentumScrew",
    "ForceSystem",
    "Particle",
    "MassDistribution",
    "InertiaOperator",
    "wrench_of",
    "momentum_screw",
    "inertia_of",
    "momentum_from_twist",
    "kinetic_energy",
    "power",
    "reciprocal_subspace",
    "cardinal_residual",
    "moving_frame_derivative",
]

# Singular values this far below the largest one count as zero when ranking
# the pairing matrix of a reciprocal-subspace computation.
_NULLSPACE_RTOL = 1e-10
_EPS = sys.float_info.epsilon
_SVD_SWEEPS = 30
# A Householder column whose norm is below _SAFE_MIN = 2**-969, the safe
# minimum of LAPACK's dlarfg, is scaled up first.
_SAFE_MIN = 2.0**-969
_UNIT = [(0.0,) * j + (1.0,) + (0.0,) * (5 - j) for j in range(6)]


class Wrench(_ScrewRole):
    """Force screw: resultant force plus moment field."""

    __slots__ = ()

    force = _ScrewRole._resultant
    moment_at = _ScrewRole._value_at
    from_force = classmethod(_ScrewRole._from_applied_vector)


class MomentumScrew(_ScrewRole):
    """Momentum screw: total linear momentum plus angular momentum field."""

    __slots__ = ()

    linear_momentum = _ScrewRole._resultant
    angular_momentum_at = _ScrewRole._value_at


class ForceSystem(_Value):
    """Forces applied at points, as (point, force) pairs."""

    __slots__ = ("forces",)

    def __init__(self, forces: tuple[tuple[Point, Vec3], ...]):
        self._store(forces)


class Particle(_Value):
    __slots__ = ("mass", "position", "velocity")

    def __init__(self, mass: float, position: Point, velocity: Vec3 | None = None):
        if not mass > 0.0:
            raise ValueError("particle mass must be positive")
        self._store(mass, position, velocity)


class MassDistribution(_Value):
    """Finite set of point masses (continua are approximated by sampling)."""

    __slots__ = ("particles",)

    def __init__(self, particles: tuple[Particle, ...]):
        self._store(particles)

    def total_mass(self) -> float:
        return sum(p.mass for p in self.particles)

    def center_of_mass(self) -> Point:
        if not self.particles:
            raise EmptyDistributionError("no particles")
        m = self.total_mass()
        acc = Vec3.zero()
        for p in self.particles:
            acc = acc + p.position.to_vec() * p.mass
        return Point(acc.x / m, acc.y / m, acc.z / m)


class InertiaOperator(_Value):
    """Inertia about the center of mass: eta -> moment_matrix @ eta, together
    with the data needed to transport it to any other pole."""

    __slots__ = ("total_mass", "center", "moment_matrix")

    def __init__(self, total_mass: float, center: Point, moment_matrix: Mat3):
        self._store(total_mass, center, moment_matrix)

    def apply(self, eta: Vec3) -> Vec3:
        """Angular momentum about the center for angular velocity eta (body
        at rest translationally)."""
        return self.moment_matrix.matvec(eta)

    def apply_at(self, pole: Point, eta: Vec3) -> Vec3:
        """Parallel-axis transport: I_Q(eta) = I_C(eta) + M c x (eta x c)
        with c the offset of the center from the pole."""
        c = self.center - pole
        return self.apply(eta) + self.total_mass * c.cross(eta.cross(c))


def wrench_of(system: ForceSystem) -> Wrench:
    """Total force and moment field of a system of applied forces."""
    return Wrench(_screw_sum(system.forces))


def momentum_screw(dist: MassDistribution) -> MomentumScrew:
    """Sum of particle momenta: resultant sum m_i v_i, angular part
    sum (r_i - pole) x m_i v_i.  Needs every particle's velocity.

    Each particle's term is the applied vector m v at its position, whose
    moment at the origin m v x (O - r) is r x m v to the bit but for the sign
    of a zero, which a sum that starts at 0.0 never shows."""
    if not dist.particles:
        raise EmptyDistributionError("no particles")
    return MomentumScrew(_screw_sum(dist.particles, Particle))


def inertia_of(dist: MassDistribution) -> InertiaOperator:
    """Inertia operator of a mass distribution about its center of mass:
    I_C(eta) = sum m_i d_i x (eta x d_i) = sum m_i (|d_i|^2 I - d_i d_i^T) eta."""
    if not dist.particles:
        raise EmptyDistributionError("no particles")
    c = dist.center_of_mass()
    m = Mat3.zero()
    for p in dist.particles:
        d = p.position - c
        m = m + p.mass * (d.dot(d) * Mat3.identity() - Mat3.outer(d, d))
    return InertiaOperator(dist.total_mass(), c, m)


def momentum_from_twist(inertia: InertiaOperator, twist: Twist) -> MomentumScrew:
    """Momentum screw of a rigid body moving with the given twist: linear part
    M v(C), angular part at the center I_C(omega).  Linear in the twist."""
    c = inertia.center
    linear = twist.velocity_at(c) * inertia.total_mass
    angular_at_c = inertia.apply(twist.angular_velocity)
    return MomentumScrew.from_motor(c, linear, angular_at_c)


def kinetic_energy(twist: Twist, momentum: MomentumScrew) -> float:
    """T = <k, l> / 2, equal to the per-particle sum of m |v|^2 / 2."""
    return 0.5 * klein_product(twist.screw, momentum.screw)


def power(twist: Twist, wrench: Wrench) -> float:
    """P = <k, d>, equal to the per-force sum F_i . v(P_i)."""
    return klein_product(twist.screw, wrench.screw)


def reciprocal_subspace(wrenches: list[Screw], frame: Frame) -> list[Screw]:
    """Basis of the twists producing zero power against every given wrench,
    { z : <z, w> = 0 for all w }.

    Row k of the pairing matrix is the functional <., w_k> in the frame's
    dual basis: w_k's moment coordinates, then its resultant's.  The span of
    the result is frame-independent (only the basis representatives depend on
    the frame), and its dimension is 6 minus the rank of the wrench system.

    The rank does not depend on the length unit.  A change of unit scales the
    moment columns apart from the resultant columns, so each block is scaled
    by the exact power of two that brings its largest entry into [0.5, 1)
    (both by the same one when a block is zero): a power-of-two change of unit
    leaves the balanced matrix unchanged to the bit, and with it the rank.
    ``_null_space`` then ranks the balanced matrix by the rule
    #{sigma > _NULLSPACE_RTOL * sigma_max} over its singular values and
    returns its null vectors, which map back through the same diagonal
    scaling: the twist's resultant part pairs with the moment columns, so it
    takes their scale relative to the other part.  The vectors are
    orthonormal when the two blocks share their binary exponent, as in the
    unit cases, and a basis of the same span otherwise.

    A float kernel, with the float operations of the composed form in their
    order, so every result is that form's to the bit: each row is
    ``lie._dual_coords`` of its wrench (s(Q) . e_i, then resultant . e_i,
    s(Q) refused as ``value_at`` refuses it), the Householder QR, the
    full-rank bound and the back-reflection run on float locals, and each
    basis screw is ``lie._screw_from_coords`` of its null vector, one
    ``Screw`` of two ``Vec3``s, whose check refuses one that is not finite.
    A row whose dot product overflows, which
    the composed form does not refuse either, spoils the same null vectors.
    ``tests/test_null_space.py`` keeps the composed form as the bit oracle.
    """
    if not wrenches:
        return list(basis_screws(frame))
    f = _frame_floats(frame)
    n = len(wrenches)
    m1, m2, m3, r1, r2, r3 = zip(*[_dual_coords(w, f) for w in wrenches])
    em, m = _scaled(m1 + m2 + m3)
    er, r = _scaled(r1 + r2 + r3)
    # A zero block, which scaling leaves as it is, takes the other block's scale.
    if not any(m):
        em = er
    elif not any(r):
        er = em
    balanced = list(zip(m[:n], m[n:2 * n], m[2 * n:], r[:n], r[n:2 * n], r[2 * n:]))
    # The null vector y of the balanced matrix gives diag(2^k, 1) y, k = er - em,
    # scaled here so that neither part grows.
    k = er - em
    ldexp = math.ldexp
    out = []
    for a1, a2, a3, b1, b2, b3 in _null_space(balanced):
        if k > 0:
            b1, b2, b3 = ldexp(b1, -k), ldexp(b2, -k), ldexp(b3, -k)
        elif k < 0:
            a1, a2, a3 = ldexp(a1, k), ldexp(a2, k), ldexp(a3, k)
        out.append(_screw_from_coords(f, a1, a2, a3, b1, b2, b3))
    return out


def _null_space(a: list[tuple[float, ...]]) -> list[tuple[float, ...]]:
    """Null vectors of the n x 6 matrix ``a`` (a list of 6-tuple rows,
    entries at most 1 in magnitude), ranked by the rule rank = #{sigma >
    _NULLSPACE_RTOL * sigma_max} over its singular values sigma, as
    orthonormal 6-tuples.

    Householder QR of a^T = Q T (``_householder``) leaves T, m = min(n, 6)
    rows, with the singular values of a, and its leading square block R, of
    order m, upper triangular: T is R for n <= 6, and [R S] for n > 6, whose
    smallest singular value is at least R's, as T T^T = R R^T + S S^T.  When

        ||T||_F ||R^-1||_F c m < 1 / _NULLSPACE_RTOL,  c = 2,

    the rank is m and no iteration runs: the null space is spanned by the
    trailing 6 - n columns of Q (none when n >= 6).  Proof: back
    substitution gives each column x_j of the computed inverse X as the
    exact solution of (R + D_j) x_j = e_j with |D_j| <= g |R|, g = m u / (1 -
    m u) (Higham, Accuracy and Stability of Numerical Algorithms, Thm 8.5),
    so R X = I - E with ||E||_2 <= g ||R||_F ||X||_F, and 1 / sigma_min(R) =
    ||R^-1||_2 <= G / (1 - g F G) for F = ||T||_F, G = ||X||_F, while
    sigma_max(T) <= F.  ``math.hypot`` is within one ulp, so when the test
    passes, F G < 1.0001 / (c m rtol) and g F G < 1e-5: sigma_min > 1.99 m
    rtol sigma_max for T.  T is the exact factor of a + dA with ||dA||_F =
    O(m u ||a||_F) (Thm 19.4), so the singular values of a itself, and those
    any backward stable SVD computes, keep sigma_min > rtol sigma_max with a
    margin of nearly 2m: the rule gives rank m.

    Otherwise the same rule ranks the singular values of the one-sided
    Jacobi SVD of T^T (``_jacobi_svd``), and its right singular vectors y
    below the cutoff give the null vectors Q (y, 0), in decreasing order of
    their singular value, followed by Q's trailing columns.  A full-rank
    answer is Q's trailing columns either way.

    Q y is the reflectors of ``_householder`` applied last to first, each
    written out on six float locals as (I - tau v v^T) y, with the float
    operations of the six-term dot product and update in their order."""
    n = len(a)
    m = min(n, 6)
    cols = list(a)
    reflectors = _householder(cols)
    null = []
    if not _proves_full_rank(cols, m):
        w, right, _ = _jacobi_svd([[col[i] for col in cols] for i in range(m)])
        sigma = [math.hypot(*col) for col in w]
        cutoff = _NULLSPACE_RTOL * max(sigma)
        below = sorted((i for i in range(m) if not sigma[i] > cutoff), key=lambda i: -sigma[i])
        null = [tuple(right[i]) + (0.0,) * (6 - m) for i in below]
    out = []
    reflectors.reverse()
    for y0, y1, y2, y3, y4, y5 in null + _UNIT[n:]:
        for v0, v1, v2, v3, v4, v5, tau in reflectors:
            s = tau * (v0 * y0 + v1 * y1 + v2 * y2 + v3 * y3 + v4 * y4 + v5 * y5)
            y0 = y0 - s * v0
            y1 = y1 - s * v1
            y2 = y2 - s * v2
            y3 = y3 - s * v3
            y4 = y4 - s * v4
            y5 = y5 - s * v5
        out.append((y0, y1, y2, y3, y4, y5))
    return out


def _householder(cols: list[tuple[float, ...]]) -> list[list[float]]:
    """Householder QR, in place, of the 6 x n matrix whose columns are the
    6-tuples ``cols``: column j ends as column j of T = Q^T (cols), zero
    below row j, and Q is the product of the returned reflectors I - tau v
    v^T, each given as the list v0, ..., v5, tau, v zero above its row k and
    1 at it.  As LAPACK's dlarfg: a column whose entries below row k are all
    zero takes no reflector, and beta = -sign(alpha) ||x|| with sign(+0.0) =
    +1, so a system of coordinate screws gets signed coordinate vectors.
    Each reflection of a later column is written out on six float locals,
    with the float operations of the six-term dot product and update in
    their order."""
    reflectors = []
    hypot = math.hypot
    n = len(cols)
    for k in range(min(n, 5)):
        col = cols[k]
        tail = col[k + 1:]
        xnorm = hypot(*tail)
        if xnorm == 0.0:
            continue
        alpha = col[k]
        norm = hypot(alpha, xnorm)
        if norm < _SAFE_MIN:
            # Scaled up by an exact power of two, a column near the subnormal
            # range gives a reflector that keeps its digits, so Q stays
            # orthogonal; the reflector does not depend on the scale.
            e, (alpha, *tail) = _scaled((alpha, *tail))
            norm = hypot(alpha, hypot(*tail))
            beta = -math.copysign(norm, alpha)
            diagonal = math.ldexp(beta, e)
        else:
            beta = diagonal = -math.copysign(norm, alpha)
        pivot = alpha - beta
        tau = (beta - alpha) / beta
        v = [0.0] * k
        v.append(1.0)
        for x in tail:
            v.append(x / pivot)
        v0, v1, v2, v3, v4, v5 = v
        v.append(tau)
        reflectors.append(v)
        cols[k] = col[:k] + (diagonal,) + (0.0,) * (5 - k)
        for j in range(k + 1, n):
            a0, a1, a2, a3, a4, a5 = cols[j]
            s = tau * (v0 * a0 + v1 * a1 + v2 * a2 + v3 * a3 + v4 * a4 + v5 * a5)
            cols[j] = (a0 - s * v0, a1 - s * v1, a2 - s * v2, a3 - s * v3, a4 - s * v4, a5 - s * v5)
    return reflectors


def _proves_full_rank(cols: list[tuple[float, ...]], m: int) -> bool:
    """Whether ||T||_F ||R^-1||_F c m < 1 / _NULLSPACE_RTOL (c = 2) for the
    columns ``cols`` of T and its leading upper triangular block R of order
    m: the bound of ``_null_space``.  A zero pivot, or an inverse beyond the
    float range, fails it."""
    inv = []  # R^-1 by back substitution, one column at a time
    for j in range(m):
        pivot = cols[j][j]
        if pivot == 0.0:
            return False
        x = [0.0] * j
        x.append(1.0 / pivot)
        for i in range(j - 1, -1, -1):
            s = 0.0
            for l in range(i + 1, j + 1):
                s -= cols[l][i] * x[l]
            x[i] = s / cols[i][i]
        inv += x
    norm = math.hypot(*[x for col in cols for x in col])
    return norm * math.hypot(*inv) * (2 * m) < 1.0 / _NULLSPACE_RTOL


def _jacobi_svd(mat: list[list[float]]) -> tuple[list[list[float]], list[list[float]], int]:
    """The rotated columns W = mat V, the columns of V and the sweeps taken
    for the matrix whose m columns are ``mat``: one-sided Jacobi (Hestenes
    1958; Drmac and Veselic 2008), which rotates pairs of columns to mutual
    orthogonality and the columns of V with them, so that W = U Sigma, with
    each singular value sigma the norm of its column of W.

    A pair is rotated while |cos| > p eps between its two columns, p their
    length, the cosine taken from the columns divided by their norms, so
    that entries whose squares underflow still count: columns that are
    already orthogonal take no rotation and keep V = I.  A column with a
    subnormal norm counts as zero: its cosine has too few digits to fall
    below p eps, so it would rotate in every sweep.  The sweeps stop when
    one rotates nothing, and at ``_SVD_SWEEPS`` at most."""
    m = len(mat)
    w = [list(col) for col in mat]
    v = [[1.0 if i == j else 0.0 for i in range(m)] for j in range(m)]
    tol = len(w[0]) * _EPS
    for sweep in range(_SVD_SWEEPS):
        rotated = False
        for p in range(m - 1):
            for q in range(p + 1, m):
                x, y = w[p], w[q]
                nx, ny = math.hypot(*x), math.hypot(*y)
                if nx < _MIN_NORMAL or ny < _MIN_NORMAL:
                    continue
                rho = sum((a / nx) * (b / ny) for a, b in zip(x, y))
                if abs(rho) <= tol:
                    continue
                rotated = True
                # tan of the rotation that makes the pair orthogonal, from
                # zeta = (ny^2 - nx^2) / (2 x.y) without forming a square.
                ratio = min(nx, ny) / max(nx, ny)
                d = 1.0 - ratio * ratio
                t = 2.0 * rho * ratio / (d + math.hypot(2.0 * rho * ratio, d))
                if nx > ny:
                    t = -t
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = c * t
                for f, g in ((x, y), (v[p], v[q])):
                    for i, (fi, gi) in enumerate(zip(f, g)):
                        f[i] = c * fi - s * gi
                        g[i] = s * fi + c * gi
        if not rotated:
            return w, v, sweep
    return w, v, _SVD_SWEEPS


def cardinal_residual(
    l_before: MomentumScrew, l_after: MomentumScrew, h: float, wrench: Wrench
) -> Screw:
    """Finite-difference check of the balance law at fixed poles: returns
    (l(t+h) - l(t)) / h - d, which tends to the zero screw as h -> 0 along a
    true trajectory.  Both samples must use the same (fixed) poles, which the
    shared canonical origin guarantees."""
    diff = (l_after.screw - l_before.screw) * (1.0 / h)
    return diff - wrench.screw


def moving_frame_derivative(
    momentum: MomentumScrew, twist: Twist, wrench: Wrench
) -> Screw:
    """Body-relative rate of change of the momentum screw:

        d + [k, l]

    whose resultant is F - omega x P.  This is the value of the balance law
    as seen by poles dragged along by the body, and unlike the pole-following
    total derivative it is again a screw.
    """
    return wrench.screw + commutator(twist.screw, momentum.screw)
