"""Momentum-based rigid-body time stepping with screw diagnostics.

The state carries momenta rather than velocities: the linear momentum and the
angular momentum about the (moving) center of mass.  Both obey exact update
rules under a constant wrench, because the moment about the center is the
only thing that drives the angular momentum there; all integration error
lives in the orientation and center updates.  With a zero wrench the momenta
are therefore conserved to the last bit.

Each step also evaluates a set of screw-level diagnostics on the trajectory:
kinetic energy, power, a symmetric finite-difference estimate of
omega . (dI_C/dt)(omega) (identically zero along exact motion), and the
residual of the body-relative balance law d + [k, l] against a direct
finite-difference derivative of the momentum screw at body-dragged poles.
"""

from __future__ import annotations

import logging
import math
from functools import lru_cache
from typing import Iterator, NamedTuple

from .dynamics import (
    InertiaOperator,
    MomentumScrew,
    Wrench,
    kinetic_energy,
    moving_frame_derivative,
    power,
)
from .errors import NonFiniteError, SingularInertiaError
from .kinematics import Twist
from .rigid import rodrigues
from .vecmath import Mat3, Point, Vec3, _Value

__all__ = [
    "INTEGRATORS",
    "BodyState",
    "SimConfig",
    "StepDiagnostics",
    "Trajectory",
    "step",
    "run",
    "state_twist",
    "state_momentum",
    "state_kinetic_energy",
    "world_inertia_matrix",
]

log = logging.getLogger(__name__)

INTEGRATORS = ("midpoint", "euler")

_SINGULAR_RTOL = 1e-12
_ORTHO_DRIFT_TOL = 1e-8
# Fixed body-frame marker used by the balance-law diagnostic; any point off
# the center works, the residual is evaluated at both.
_MARKER_OFFSET = Vec3(1.0, 0.0, 0.0)


class BodyState(_Value):
    """Instantaneous state of one rigid body.

    ``orientation`` maps body axes to world axes; ``body`` is the inertia
    operator in body axes (its ``center`` field is ignored here, the world
    center of mass is ``center``).  ``angular_momentum_at_c`` is the world
    angular momentum about the center of mass.
    """

    __slots__ = ("orientation", "center", "linear_momentum", "angular_momentum_at_c", "body")

    def __init__(
        self,
        orientation: Mat3,
        center: Point,
        linear_momentum: Vec3,
        angular_momentum_at_c: Vec3,
        body: InertiaOperator,
    ):
        _set_orientation(self, orientation)
        _set_center(self, center)
        _set_linear_momentum(self, linear_momentum)
        _set_angular_momentum_at_c(self, angular_momentum_at_c)
        _set_body(self, body)


(_set_orientation, _set_center, _set_linear_momentum, _set_angular_momentum_at_c,
 _set_body) = BodyState._setters


def _check_step(dt: float, integrator: str) -> None:
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    if integrator not in INTEGRATORS:
        raise ValueError(f"integrator must be {' or '.join(map(repr, INTEGRATORS))}")


class SimConfig(_Value):
    __slots__ = ("dt", "steps", "integrator", "wrench")

    def __init__(
        self, dt: float, steps: int, integrator: str = "midpoint", wrench: Wrench | None = None
    ):
        _check_step(dt, integrator)
        if steps < 1:
            raise ValueError("steps must be at least 1")
        self._store(dt, steps, integrator, wrench)


class StepDiagnostics(_Value):
    __slots__ = ("time", "kinetic_energy", "power", "omega_idot_omega", "balance_residual")

    def __init__(
        self,
        time: float,
        kinetic_energy: float,
        power: float,
        omega_idot_omega: float,
        balance_residual: float,
    ):
        _set_time(self, time)
        _set_kinetic_energy(self, kinetic_energy)
        _set_power(self, power)
        _set_omega_idot_omega(self, omega_idot_omega)
        _set_balance_residual(self, balance_residual)


(_set_time, _set_kinetic_energy, _set_power, _set_omega_idot_omega,
 _set_balance_residual) = StepDiagnostics._setters


class Trajectory(_Value):
    __slots__ = ("states", "diagnostics", "renormalizations")

    def __init__(
        self,
        states: tuple[BodyState, ...],
        diagnostics: tuple[StepDiagnostics, ...],
        renormalizations: int,
    ):
        self._store(states, diagnostics, renormalizations)


@lru_cache(maxsize=16)
def _inverse_moment(body: InertiaOperator) -> Mat3:
    """Inverse of the body moment matrix via symmetric eigendecomposition,
    rejecting (near-)singular inertias.

    The matrix is first scaled by the exact power of two 2**-e that brings
    its largest entry into [0.5, 1), so the principal moments are ranked and
    inverted at the same size whatever the units, and their ratio cannot
    underflow; the inverse is scaled back by 2**-e."""
    import numpy as np

    moments = body.moment_matrix
    e = math.frexp(moments.max_abs())[1]
    m = np.ldexp(np.array(moments.flat(), dtype=float).reshape(3, 3), -e)
    evals, evecs = np.linalg.eigh(m)
    if evals[0] < _SINGULAR_RTOL * max(evals[-1], 0.0) or evals[-1] <= 0.0:
        raise SingularInertiaError(
            f"inertia principal values {_scaled_values(evals, e)} are not invertible"
        )
    inv = evecs @ np.diag(1.0 / evals) @ evecs.T
    try:
        return Mat3(*(math.ldexp(float(x), -e) for x in inv.ravel()))
    except OverflowError:
        raise NonFiniteError(
            f"inertia principal values {_scaled_values(evals, e)} have no finite inverse"
        ) from None


def _scaled_values(evals, e: int) -> str:
    """The principal moments evals * 2**e as plain floats; a moment up to 1.5
    times the largest matrix entry may lie beyond the float range, and is then
    written as the scaled tuple times 2**e."""
    scaled = tuple(float(x) for x in evals)
    try:
        return str(tuple(math.ldexp(x, e) for x in scaled))
    except OverflowError:
        return f"{scaled} * 2**{e}"


def world_inertia_matrix(state: BodyState) -> Mat3:
    """Moment matrix about the center in world axes: R I_body R^T."""
    r = state.orientation
    return r.matmul(state.body.moment_matrix).matmul_transpose(r)


def _angular_velocity(state: BodyState, inv_moment: Mat3) -> Vec3:
    r = state.orientation
    body_l = r.transpose_matvec(state.angular_momentum_at_c)
    return r.matvec(inv_moment.matvec(body_l))


def _twist(state: BodyState, omega: Vec3) -> Twist:
    return Twist.from_motor(
        state.center, omega, state.linear_momentum / state.body.total_mass
    )


def state_twist(state: BodyState) -> Twist:
    return _twist(state, _angular_velocity(state, _inverse_moment(state.body)))


def state_momentum(state: BodyState) -> MomentumScrew:
    return MomentumScrew.from_motor(
        state.center, state.linear_momentum, state.angular_momentum_at_c
    )


def state_kinetic_energy(state: BodyState) -> float:
    return kinetic_energy(state_twist(state), state_momentum(state))


class _Screws(NamedTuple):
    """What the step and the diagnostics read of one state, which ``_stream``
    builds once: its twist, momentum screw and world inertia matrix, its two
    poles (the center and the body-fixed marker center + R (1, 0, 0)) and the
    momentum field at each pole.  The step leaving the state takes its
    angular velocity, and the diagnostics of the steps on both sides of it
    take the rest."""

    twist: Twist
    momentum: MomentumScrew
    inertia: Mat3
    poles: tuple[Point, Point]
    fields: tuple[Vec3, Vec3]


def _screws(state: BodyState, inv_moment: Mat3) -> _Screws:
    twist = _twist(state, _angular_velocity(state, inv_moment))
    momentum = state_momentum(state)
    inertia = world_inertia_matrix(state)
    center = state.center
    marker = center + state.orientation.matvec(_MARKER_OFFSET)
    fields = (momentum.angular_momentum_at(center), momentum.angular_momentum_at(marker))
    return _Screws(twist, momentum, inertia, (center, marker), fields)


def _rotate(orientation: Mat3, omega: Vec3, dt: float) -> Mat3:
    speed = omega.norm()
    if speed == 0.0:
        return orientation
    return rodrigues(omega / speed, speed * dt).matmul(orientation)


def _advance(
    state: BodyState, rates: BodyState, omega: Vec3, wrench: Wrench, dt: float
) -> BodyState:
    """``state`` advanced by ``dt`` at the angular velocity ``omega`` and at
    the rates read from ``rates``: the center velocity p / M and the
    wrench's moment about the center.  ``rates`` is ``state`` itself for an
    Euler step and a midpoint half step, and the half state for the full
    midpoint step."""
    moment_at_c = wrench.moment_at(rates.center)
    v = rates.linear_momentum / rates.body.total_mass
    return BodyState(
        orientation=_rotate(state.orientation, omega, dt),
        center=state.center + v * dt,
        linear_momentum=state.linear_momentum + wrench.force * dt,
        angular_momentum_at_c=state.angular_momentum_at_c + moment_at_c * dt,
        body=state.body,
    )


def _renormalize(r: Mat3) -> Mat3:
    import numpy as np

    arr = np.array(r.flat(), dtype=float).reshape(3, 3)
    u, _, vt = np.linalg.svd(arr)
    return Mat3(*(float(x) for x in (u @ vt).ravel()))


def _step_impl(
    state: BodyState,
    omega: Vec3,
    wrench: Wrench,
    dt: float,
    integrator: str,
    inv_moment: Mat3,
) -> tuple[BodyState, bool]:
    """One step from ``state``, whose angular velocity is ``omega``;
    ``inv_moment`` is the inverse body moment matrix.  Also returns whether
    the orientation was projected back onto SO(3), which the caller logs."""
    if integrator == "euler":
        new = _advance(state, state, omega, wrench, dt)
    else:
        half = _advance(state, state, omega, wrench, dt / 2.0)
        new = _advance(state, half, _angular_velocity(half, inv_moment), wrench, dt)

    renormalized = False
    if new.orientation.orthonormality_defect() > _ORTHO_DRIFT_TOL:
        new = BodyState(_renormalize(new.orientation), new.center, new.linear_momentum,
                        new.angular_momentum_at_c, new.body)
        renormalized = True
    return new, renormalized


def step(
    state: BodyState,
    wrench: Wrench | None,
    dt: float,
    integrator: str = "midpoint",
) -> BodyState:
    """Advance one step of ``dt`` under ``wrench`` (None means unforced) with
    the chosen integrator: explicit midpoint by default, explicit Euler on
    request."""
    _check_step(dt, integrator)
    applied = wrench if wrench is not None else Wrench.zero()
    inv_moment = _inverse_moment(state.body)
    omega = _angular_velocity(state, inv_moment)
    new, renormalized = _step_impl(state, omega, applied, dt, integrator, inv_moment)
    if renormalized:
        log.warning("orientation drifted off SO(3); applying polar projection")
    return new


def _diagnostics(s0: _Screws, s1: _Screws, t: float, dt: float, wrench: Wrench) -> StepDiagnostics:
    """Diagnostics of the step between the states whose screws are ``s0``
    and ``s1``."""
    k0, l0 = s0.twist, s0.momentum
    k1, l1 = s1.twist, s1.momentum

    # Symmetric estimate of omega . (dI_C/dt) (omega) across the step; the
    # lemma makes the exact value zero, so this should vanish at O(dt^2).
    omega_mid = 0.5 * (k0.angular_velocity + k1.angular_velocity)
    di = s1.inertia - s0.inertia
    omega_idot = omega_mid.dot(di.matvec(omega_mid)) / dt

    # Residual of the body-relative balance law d + [k, l] against a forward
    # difference of the momentum field taken at body-dragged poles (the
    # center and one marker point), O(dt) along an exact trajectory.
    rhs = moving_frame_derivative(l0, k0, wrench)
    omega0 = k0.angular_velocity
    res_lin = (
        (l1.linear_momentum - l0.linear_momentum) / dt
        - omega0.cross(l0.linear_momentum)
        - rhs.resultant
    )
    residual = res_lin.norm()
    for p0, h0, h1 in zip(s0.poles, s0.fields, s1.fields):
        res = (h1 - h0) / dt - omega0.cross(h0) - rhs.value_at(p0)
        residual = max(residual, res.norm())

    return StepDiagnostics(
        time=t,
        kinetic_energy=kinetic_energy(k0, l0),
        power=power(k0, wrench),
        omega_idot_omega=omega_idot,
        balance_residual=residual,
    )


def _stream(
    config: SimConfig, initial: BodyState
) -> Iterator[tuple[BodyState, StepDiagnostics, bool]]:
    """Advance ``initial`` by config.steps steps, yielding each new state with
    the diagnostics of the step that made it and whether that step projected
    the orientation back onto SO(3), which is logged here.  ``run`` collects
    every item; a caller that keeps only what it needs holds no history."""
    wrench = config.wrench if config.wrench is not None else Wrench.zero()
    dt = config.dt
    # The integrator never changes the body, so one inverse serves the run.
    inv_moment = _inverse_moment(initial.body)
    state, screws = initial, _screws(initial, inv_moment)
    for n in range(config.steps):
        new, renormed = _step_impl(
            state, screws.twist.angular_velocity, wrench, dt, config.integrator, inv_moment
        )
        if renormed:
            log.warning("step %d: orientation drifted off SO(3); applying polar projection", n)
        new_screws = _screws(new, inv_moment)
        yield new, _diagnostics(screws, new_screws, n * dt, dt, wrench), renormed
        state, screws = new, new_screws


def run(config: SimConfig, initial: BodyState) -> Trajectory:
    """Integrate for config.steps steps.  Returns the full state sequence
    (steps + 1 entries) plus per-step diagnostics.  Bitwise deterministic for
    identical inputs, and state for state equal to ``step`` applied
    repeatedly."""
    states = [initial]
    diags = []
    renorms = 0
    for state, diag, renormed in _stream(config, initial):
        states.append(state)
        diags.append(diag)
        renorms += renormed
    return Trajectory(tuple(states), tuple(diags), renorms)
