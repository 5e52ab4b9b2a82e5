"""Rigid-body velocity fields (twists) and their composition.

The velocity field of a rigid motion is a screw: angular velocity as the
resultant, point velocities as the field.  Relative twists of a kinematic
chain, all expressed in one ground frame at one instant, compose by plain
screw addition, so the result does not depend on the order of the links.
"""

from __future__ import annotations

from dataclasses import dataclass

from .screw import Screw
from .vecmath import Point, Vec3

__all__ = ["Twist", "MotionChain", "compose_chain"]


@dataclass(frozen=True, slots=True)
class Twist:
    """Velocity screw of a rigid motion at one instant."""

    screw: Screw

    @property
    def angular_velocity(self) -> Vec3:
        return self.screw.resultant

    def velocity_at(self, p: Point) -> Vec3:
        return self.screw.value_at(p)

    @staticmethod
    def pure_rotation(point_on_axis: Point, omega: Vec3) -> "Twist":
        return Twist(Screw.from_applied_vector(point_on_axis, omega))

    @staticmethod
    def pure_translation(velocity: Vec3) -> "Twist":
        return Twist(Screw.from_free_vector(velocity))

    @staticmethod
    def from_motor(point: Point, omega: Vec3, velocity_at_point: Vec3) -> "Twist":
        return Twist(Screw.from_motor(point, omega, velocity_at_point))

    def __add__(self, other: "Twist") -> "Twist":
        return Twist(self.screw + other.screw)


@dataclass(frozen=True, slots=True)
class MotionChain:
    """Relative twists of consecutive links, already expressed in the ground
    frame at the instant under study."""

    relative_twists: tuple[Twist, ...]

    def __post_init__(self):
        if not self.relative_twists:
            raise ValueError("a motion chain needs at least one twist")


def compose_chain(chain: MotionChain) -> Twist:
    """Twist of the last link relative to ground: the screw sum of the
    relative twists (commutative, hence order-independent)."""
    total = Screw.zero()
    for tw in chain.relative_twists:
        total = total + tw.screw
    return Twist(total)
