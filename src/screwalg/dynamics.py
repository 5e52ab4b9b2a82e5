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

from .errors import EmptyDistributionError, MissingVelocitiesError
from .kinematics import Twist
from .lie import (
    Frame,
    Screw6,
    basis_screws,
    commutator,
    from_frame,
    klein_product,
    to_dual,
)
from .screw import Screw
from .vecmath import Mat3, Point, Vec3, _Value

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


class Wrench(_Value):
    """Force screw: resultant force plus moment field."""

    __slots__ = ("screw",)

    def __init__(self, screw: Screw):
        _set_wrench_screw(self, screw)

    @property
    def force(self) -> Vec3:
        return self.screw.resultant

    def moment_at(self, p: Point) -> Vec3:
        return self.screw.value_at(p)

    @staticmethod
    def zero() -> "Wrench":
        return Wrench(Screw.zero())

    @staticmethod
    def from_force(point: Point, force: Vec3) -> "Wrench":
        return Wrench(Screw.from_applied_vector(point, force))

    @staticmethod
    def from_motor(point: Point, force: Vec3, moment_at_point: Vec3) -> "Wrench":
        return Wrench(Screw.from_motor(point, force, moment_at_point))

    def __add__(self, other: "Wrench") -> "Wrench":
        return Wrench(self.screw + other.screw)


(_set_wrench_screw,) = Wrench._setters


class MomentumScrew(_Value):
    """Momentum screw: total linear momentum plus angular momentum field."""

    __slots__ = ("screw",)

    def __init__(self, screw: Screw):
        _set_momentum_screw(self, screw)

    @property
    def linear_momentum(self) -> Vec3:
        return self.screw.resultant

    def angular_momentum_at(self, p: Point) -> Vec3:
        return self.screw.value_at(p)

    @staticmethod
    def from_motor(point: Point, linear: Vec3, angular_at_point: Vec3) -> "MomentumScrew":
        return MomentumScrew(Screw.from_motor(point, linear, angular_at_point))


(_set_momentum_screw,) = MomentumScrew._setters


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
    total = Screw.zero()
    for point, force in system.forces:
        total = total + Screw.from_applied_vector(point, force)
    return Wrench(total)


def momentum_screw(dist: MassDistribution) -> MomentumScrew:
    """Sum of particle momenta: resultant sum m_i v_i, angular part
    sum (r_i - pole) x m_i v_i.  Needs every particle's velocity."""
    if not dist.particles:
        raise EmptyDistributionError("no particles")
    linear = Vec3.zero()
    angular_at_origin = Vec3.zero()
    for p in dist.particles:
        if p.velocity is None:
            raise MissingVelocitiesError("momentum needs velocities on all particles")
        mv = p.velocity * p.mass
        linear = linear + mv
        angular_at_origin = angular_at_origin + p.position.to_vec().cross(mv)
    return MomentumScrew(Screw(linear, angular_at_origin))


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

    The pairing matrix is formed in the given frame and its null space
    extracted by SVD; the span of the result is frame-independent (only the
    basis representatives depend on the frame).  Dimension is 6 minus the
    rank of the wrench system.
    """
    import numpy as np

    if not wrenches:
        return list(basis_screws(frame))
    # Row k is the functional <., w_k> in the dual basis.
    duals = [to_dual(w, frame) for w in wrenches]
    a = np.array([d.c + d.d for d in duals], dtype=float)
    # An exact power-of-two scale bringing the largest entry into [0.5, 1)
    # keeps the singular values finite; it leaves the null space unchanged.
    a = np.ldexp(a, -math.frexp(float(np.abs(a).max()))[1])
    _, sing, vt = np.linalg.svd(a)
    cutoff = _NULLSPACE_RTOL * (sing[0] if sing.size else 0.0)
    rank = int(np.sum(sing > cutoff))
    out = []
    for row in vt[rank:]:
        a1, a2, a3, b1, b2, b3 = (float(x) for x in row)
        out.append(from_frame(Screw6((a1, a2, a3), (b1, b2, b3)), frame))
    return out


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
