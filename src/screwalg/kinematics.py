"""Rigid-body velocity fields (twists) and their composition.

The velocity field of a rigid motion is a screw: angular velocity as the
resultant, point velocities as the field.  Relative twists of a kinematic
chain, all expressed in one ground frame at one instant, compose by plain
screw addition, so the result does not depend on the order of the links.
"""

from __future__ import annotations

from .screw import Screw, _screw_sum, _ScrewRole
from .vecmath import Vec3, _Value

__all__ = ["Twist", "MotionChain", "compose_chain"]


class Twist(_ScrewRole):
    """Velocity screw of a rigid motion at one instant."""

    __slots__ = ()

    angular_velocity = _ScrewRole._resultant
    velocity_at = _ScrewRole._value_at
    pure_rotation = classmethod(_ScrewRole._from_applied_vector)

    @staticmethod
    def pure_translation(velocity: Vec3) -> "Twist":
        return Twist(Screw.from_free_vector(velocity))


class MotionChain(_Value):
    """Relative twists of consecutive links, already expressed in the ground
    frame at the instant under study."""

    __slots__ = ("relative_twists",)

    def __init__(self, relative_twists: tuple[Twist, ...]):
        if not relative_twists:
            raise ValueError("a motion chain needs at least one twist")
        self._store(relative_twists)


def compose_chain(chain: MotionChain) -> Twist:
    """Twist of the last link relative to ground: the screw sum of the
    relative twists (commutative, hence order-independent)."""
    return Twist(_screw_sum(chain.relative_twists, _ScrewRole))
