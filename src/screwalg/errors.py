"""Exception types raised by the library.

Every domain failure maps to one of these so callers (and the CLI) can
distinguish bad geometry from bad input files.
"""

__all__ = [
    "ScrewAlgError",
    "ZeroScrewError",
    "InvalidRotationError",
    "MissingVelocitiesError",
    "EmptyDistributionError",
    "SingularInertiaError",
    "NonFiniteError",
    "SceneError",
]


class ScrewAlgError(Exception):
    """Base class for all library errors."""


class ZeroScrewError(ScrewAlgError):
    """An operation that needs a nonzero screw received the zero screw."""


class InvalidRotationError(ScrewAlgError):
    """A 3x3 block failed the orthonormality / determinant check."""


class MissingVelocitiesError(ScrewAlgError):
    """A mass distribution without velocities was asked for its momentum."""


class EmptyDistributionError(ScrewAlgError):
    """A mass distribution with no particles has no center or inertia."""


class SingularInertiaError(ScrewAlgError):
    """An inertia operator is (numerically) singular and cannot be inverted."""


class NonFiniteError(ScrewAlgError, ValueError):
    """A vector or matrix component is NaN or infinite, typically after an
    arithmetic overflow."""


class SceneError(ScrewAlgError):
    """A scene file is structurally malformed.

    ``where`` names the offending JSON path, e.g. ``forces[1].vector``.
    """

    def __init__(self, where: str, message: str):
        self.where = where
        self.message = message
        super().__init__(f"{where}: {message}")
