"""Coordinate-free screw algebra for kinematics, statics and rigid-body
dynamics: screws, their invariants and axes, the commutator and invariant
pairing, the exponential correspondence with rigid maps, momentum and inertia
operators, a momentum-based simulator, and reduction of force systems."""

from .errors import (
    EmptyDistributionError,
    InvalidRotationError,
    MissingVelocitiesError,
    NonFiniteError,
    SceneError,
    ScrewAlgError,
    SingularInertiaError,
    ZeroScrewError,
)
from .vecmath import ORIGIN, Mat3, Point, Vec3
from .screw import (
    DegenerateAxis,
    FinitePitch,
    InfinitePitch,
    LineAxis,
    Pitch,
    Screw,
    ScrewAxis,
    ZeroScrewPitch,
)
from .lie import (
    Dual6,
    Frame,
    Screw6,
    ad,
    basis_screws,
    commutator,
    from_frame,
    killing_form,
    klein_product,
    pairing,
    to_dual,
    to_frame,
)
from .rigid import ChaslesDecomposition, RigidMap, chasles, exp_screw, rodrigues
from .kinematics import MotionChain, Twist, compose_chain
from .dynamics import (
    ForceSystem,
    InertiaOperator,
    MassDistribution,
    MomentumScrew,
    Particle,
    Wrench,
    cardinal_residual,
    inertia_of,
    kinetic_energy,
    momentum_from_twist,
    momentum_screw,
    moving_frame_derivative,
    power,
    reciprocal_subspace,
    wrench_of,
)
from .sim import (
    INTEGRATORS,
    BodyState,
    SimConfig,
    StepDiagnostics,
    Trajectory,
    run,
    state_kinetic_energy,
    state_momentum,
    state_twist,
    step,
    world_inertia_matrix,
)
from .reduction import (
    AppliedVectorPair,
    CentralAxisReport,
    central_axis_report,
    decompose_two_applied,
)
from .scene import Scene, parse_scene, scene_from_dict

__version__ = "0.1.0"
