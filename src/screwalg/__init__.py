"""Coordinate-free screw algebra for kinematics, statics and rigid-body
dynamics: screws, their invariants and axes, the commutator and invariant
pairing, the exponential correspondence with rigid maps, momentum and inertia
operators, a momentum-based simulator, and reduction of force systems.

The package publishes the names each library module lists in its
``__all__``; the command-line front end, ``screwalg.cli``, is not loaded."""

from .errors import *
from .vecmath import *
from .screw import *
from .lie import *
from .rigid import *
from .kinematics import *
from .dynamics import *
from .sim import *
from .reduction import *
from .scene import *

__version__ = "0.1.0"
