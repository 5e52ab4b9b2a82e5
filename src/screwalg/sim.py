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

The step kernel, the generator ``_stream``, runs on plain floats in three
phases: ``_read`` reads a state's screws, world inertia, marker and momentum
field values, ``_advance`` advances the state, and ``_diagnose`` diagnoses a
step from what was read on both sides of it.  A state and what is read of it
travel as one tuple, so each state is read once, and what the diagnostics read
before a step is what the step read.  Each phase tests its values finite once
per group of them and refuses a group that is not finite with one
``NonFiniteError`` that names it (``_stream``), where the composed vector form
refuses too.  The kernel yields each new state and its step's
diagnostics as floats; ``run`` and ``step`` build their records from them, and
the ``simulate`` command renders its rows from the floats.  The public
``state_twist``, ``state_momentum`` and ``world_inertia_matrix`` read a
``BodyState`` with the value types; the kernel shares its float cores with
them and with the vector types (``_angular_velocity``, ``_world_inertia``,
``vecmath._norm``, ``_matmul`` and ``_orthonormality_defect``,
``rigid._rodrigues``), so each formula has one definition.

Both factorizations of the kernel are the one-sided Jacobi SVD that also
ranks the reciprocal subspace (``dynamics._jacobi_svd``), so no step loads
numpy.  The inverse body inertia, which omega = R I^-1 R^T L needs, reads its
eigenpairs from the SVD of the symmetric moment matrix once per run
(``_inverse_moment``), and the polar projection (``_renormalize``), which runs
only when the orientation drifts off SO(3), is U V^T.  Both refuse a
numerically singular matrix by one rule, a smallest eigen- or singular value
below ``_SINGULAR_RTOL`` times the largest.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from functools import lru_cache
from math import isfinite

from .dynamics import InertiaOperator, MomentumScrew, Wrench, _jacobi_svd, kinetic_energy
from .errors import InvalidRotationError, NonFiniteError, SingularInertiaError
from .kinematics import Twist
from .rigid import _rodrigues
from .vecmath import (
    Mat3, Point, Vec3, _det, _matmul, _norm, _orthonormality_defect, _refuse, _Value,
)

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

INTEGRATORS = ("midpoint", "euler")  # the first is the default

_SINGULAR_RTOL = 1e-12
_ORTHO_DRIFT_TOL = 1e-8


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
        self._store(orientation, center, linear_momentum, angular_momentum_at_c, body)


class SimConfig(_Value):
    __slots__ = ("dt", "steps", "integrator", "wrench")

    def __init__(
        self, dt: float, steps: int, integrator: str = INTEGRATORS[0], wrench: Wrench | None = None
    ):
        if not dt > 0.0:
            raise ValueError("dt must be positive")
        if dt == math.inf:
            raise ValueError("dt must be finite")
        if integrator not in INTEGRATORS:
            raise ValueError(f"integrator must be {' or '.join(map(repr, INTEGRATORS))}")
        if isinstance(steps, bool) or not isinstance(steps, int):
            raise TypeError(f"steps must be an integer, got {steps!r}")
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
        self._store(time, kinetic_energy, power, omega_idot_omega, balance_residual)


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
    underflow; the inverse V diag(1/lambda) V^T is scaled back by 2**-e.  The
    eigenpairs come from the one-sided Jacobi SVD ``dynamics._jacobi_svd`` of
    the symmetric matrix J that the lower triangle defines, as numpy's
    ``eigh`` reads it: each rotated column w = J v is lambda v, so |lambda| =
    |w| and the columns of V are the eigenvectors.  A positive moment has
    w.v = |w|; a negative one, or a mix of moments +mu and -mu that the SVD
    cannot tell apart (their trace is below mu / 2 times their number), has
    w.v < |w| / 2 on some column, which is given the negative sign and so
    refused.  No call loads numpy, and a diagonal moment matrix takes no
    rotation and inverts to exactly diag(1/d_i).  A refusal's message signs
    the moments by the trace and determinant of J (``_signed_moments``)."""
    moments = body.moment_matrix
    e = math.frexp(moments.max_abs())[1]
    m0, _, _, m3, m4, _, m6, m7, m8 = (math.ldexp(x, -e) for x in moments.flat())
    cols, evecs, _ = _jacobi_svd([[m0, m3, m6], [m3, m4, m7], [m6, m7, m8]])
    evals = []
    for col, vec in zip(cols, evecs):
        size = math.hypot(*col)
        evals.append(math.copysign(size, sum(x * y for x, y in zip(col, vec)) - size / 2.0))
    order = sorted(range(3), key=evals.__getitem__)
    evals = [evals[k] for k in order]
    if evals[0] < _SINGULAR_RTOL * max(evals[-1], 0.0) or evals[-1] <= 0.0:
        j = (m0, m3, m6, m3, m4, m7, m6, m7, m8)
        raise SingularInertiaError(
            f"inertia principal values {_scaled_values(_signed_moments(evals, j), e)} are not invertible"
        )
    u, v, w = (evecs[k] for k in order)
    a, b, c = evals
    # u[i] * u[j] is u[j] * u[i], so the inverse is exactly symmetric.
    inv = (u[i] * u[j] / a + v[i] * v[j] / b + w[i] * w[j] / c for i in range(3) for j in range(3))
    try:
        return Mat3(*(math.ldexp(x, -e) for x in inv))
    except OverflowError:
        raise NonFiniteError(
            f"inertia principal values {_scaled_values(evals, e)} have no finite inverse"
        ) from None


def _signed_moments(evals: list[float], j: tuple[float, ...]) -> list[float]:
    """The moments |evals|, signed by the one of the 8 sign patterns whose
    sum and product are nearest the trace and determinant of the symmetric
    9-tuple J, and sorted; of equally near patterns, that of ``evals``.  For
    moments +mu and -mu of one size the SVD's columns mix their eigenvectors,
    so w.v gives no moment its true sign, but the invariants do."""
    trace, det = j[0] + j[4] + j[8], _det(j)

    def miss(x: list[float]) -> float:
        return abs(x[0] + x[1] + x[2] - trace) + abs(x[0] * x[1] * x[2] - det)

    best = evals
    for signs in ((a, b, c) for a in (1.0, -1.0) for b in (1.0, -1.0) for c in (1.0, -1.0)):
        signed = [math.copysign(x, sign) for x, sign in zip(evals, signs)]
        if miss(signed) < miss(best):
            best = signed
    return sorted(best)


def _scaled_values(evals: list[float], e: int) -> str:
    """The principal moments evals * 2**e as plain floats; a moment up to 1.5
    times the largest matrix entry may lie beyond the float range, and is then
    written as the scaled tuple times 2**e."""
    scaled = tuple(evals)
    try:
        return str(tuple(math.ldexp(x, e) for x in scaled))
    except OverflowError:
        return f"{scaled} * 2**{e}"


def world_inertia_matrix(state: BodyState) -> Mat3:
    """Moment matrix about the center in world axes: R I_body R^T."""
    return Mat3(*_world_inertia(state.orientation.flat(), state.body.moment_matrix.flat()))


def _world_inertia(r: tuple[float, ...], j: tuple[float, ...]) -> tuple[float, ...]:
    """R J R^T for the orientation R and the body moment matrix J, each a
    row-major 9-tuple: the one definition, which ``world_inertia_matrix`` and
    the step kernel share.  ``vecmath._matmul`` forms R J, then (R J) R^T
    with R^T built from R's entries (a slice costs more); both products are
    one group (``_stream``)."""
    rxx, rxy, rxz, ryx, ryy, ryz, rzx, rzy, rzz = r
    a = _matmul(r, j)
    world = _matmul(a, (rxx, ryx, rzx, rxy, ryy, rzy, rxz, ryz, rzz))
    if not isfinite(sum(world)):
        _refuse("world inertia R J R^T", *world)
    return world


def _angular_velocity(
    r: tuple[float, ...], inv: tuple[float, ...], lx: float, ly: float, lz: float
) -> tuple[float, float, float]:
    """omega = R I^-1 R^T L for the orientation R and the inverse body moment
    matrix I^-1, each a row-major 9-tuple, and the angular momentum L about
    the center: the one definition, which ``state_twist`` and the step kernel
    share.  R^T L, I^-1 R^T L and omega are one group (``_stream``)."""
    rxx, rxy, rxz, ryx, ryy, ryz, rzx, rzy, rzz = r
    ax = rxx * lx + ryx * ly + rzx * lz
    ay = rxy * lx + ryy * ly + rzy * lz
    az = rxz * lx + ryz * ly + rzz * lz
    ixx, ixy, ixz, iyx, iyy, iyz, izx, izy, izz = inv
    bx = ixx * ax + ixy * ay + ixz * az
    by = iyx * ax + iyy * ay + iyz * az
    bz = izx * ax + izy * ay + izz * az
    wx = rxx * bx + rxy * by + rxz * bz
    wy = ryx * bx + ryy * by + ryz * bz
    wz = rzx * bx + rzy * by + rzz * bz
    if not isfinite(wx + wy + wz):
        _refuse("angular velocity", wx, wy, wz)
    return wx, wy, wz


def state_twist(state: BodyState) -> Twist:
    omega = Vec3(*_angular_velocity(
        state.orientation.flat(),
        _inverse_moment(state.body).flat(),
        *state.angular_momentum_at_c.components(),
    ))
    return Twist.from_motor(state.center, omega, state.linear_momentum / state.body.total_mass)


def state_momentum(state: BodyState) -> MomentumScrew:
    return MomentumScrew.from_motor(
        state.center, state.linear_momentum, state.angular_momentum_at_c
    )


def state_kinetic_energy(state: BodyState) -> float:
    return kinetic_energy(state_twist(state), state_momentum(state))


def _renormalize(r: tuple[float, ...]) -> tuple[float, ...]:
    """The polar factor U V^T of the row-major 3x3 matrix ``r`` = U Sigma V^T:
    the nearest orthogonal matrix, a rotation when det r > 0 (Higham, SIAM
    J. Sci. Stat. Comput., 1986).

    ``r`` is scaled by the exact power of two that brings its largest entry
    into [0.5, 1), so that no column norm leaves the float range and the
    factor does not depend on the scale.  The one-sided Jacobi SVD
    ``dynamics._jacobi_svd`` then rotates its columns to mutual
    orthogonality, r V = U Sigma, with sigma each rotated column's norm.  A
    matrix with sigma_min < _SINGULAR_RTOL sigma_max, the rule
    ``_inverse_moment`` applies to the principal moments, or with sigma_max
    = 0, is numerically singular and refused with ``InvalidRotationError``.
    Orthogonal columns take no rotation, so (1 + d) I projects to exactly
    I."""
    e = math.frexp(max(map(abs, r)))[1]
    a, b, c, d, f, g, h, i, j = [math.ldexp(x, -e) for x in r]
    w, v, _ = _jacobi_svd([[a, d, h], [b, f, i], [c, g, j]])
    sigma = [math.hypot(*col) for col in w]
    if min(sigma) < _SINGULAR_RTOL * max(sigma) or max(sigma) == 0.0:
        raise InvalidRotationError(f"orientation {r} is numerically singular: it has no polar factor")
    u0, u1, u2 = ([x / s for x in col] for col, s in zip(w, sigma))
    v0, v1, v2 = v
    return tuple(u0[row] * v0[col] + u1[row] * v1[col] + u2[row] * v2[col]
                 for row in range(3) for col in range(3))


def step(
    state: BodyState,
    wrench: Wrench | None,
    dt: float,
    integrator: str = INTEGRATORS[0],
) -> BodyState:
    """Advance one step of ``dt`` under ``wrench`` (None means unforced) with
    the chosen integrator: explicit midpoint by default, explicit Euler on
    request.  The state is the first a one-step ``_stream`` yields, so
    ``run`` and ``step`` take one step path, and a call also computes the
    starting state's screws and the step's diagnostics, throws them away, and
    raises where they overflow: it costs nearly two ``run`` steps, and a loop
    should call ``run``."""
    new, _, _ = next(_stream(SimConfig(dt, 1, integrator, wrench), state))
    return _body_state(new, state.body)


def _body_state(state: tuple, body: InertiaOperator) -> BodyState:
    """The ``BodyState`` of ``body`` in the state (R, c, p, L) of floats."""
    r, cx, cy, cz, px, py, pz, lx, ly, lz = state
    return BodyState(Mat3(*r), Point(cx, cy, cz), Vec3(px, py, pz), Vec3(lx, ly, lz), body)


def _stream(config: SimConfig, initial: BodyState) -> Iterator[tuple]:
    """Advance ``initial`` by config.steps steps, yielding each step as
    ``(state, diagnostics, renormed)``: the new state (R, c, p, L) as
    ``_advance`` returns it, the step's diagnostics in ``StepDiagnostics``
    field order as ``_diagnose`` returns them, and whether the step projected
    the orientation back onto SO(3), which is logged here.  A caller that
    keeps only what it needs holds no history and builds no value.

    This is the step kernel, a loop over three phases on floats: ``_read``
    reads a state once, ``_advance`` steps from what was read, and
    ``_diagnose`` diagnoses the step from what was read on both sides of it.
    Each phase computes each quantity with the float operations of its
    composed ``Vec3``/``Mat3`` form in their order (``tests/test_sim.py``
    keeps those forms as the bit oracle) and refuses where that form does.
    The checks go by groups, chains of values joined only by +, -, * and
    division by the positive finite M or dt, so a non-finite link reaches
    the group's end (0 * inf and inf - inf are NaN).  The sum of the end's
    components is tested once, and only if it is not finite does
    ``vecmath._refuse`` test the end's values and refuse the group by name.
    A group closes before ``_rodrigues``, which raises its own message,
    before a shared float core returns, before ``_norm`` or ``max`` reads a
    value (``max(0.0, nan)`` is 0.0) and before the next group's test.  A
    ``NonFiniteError`` raised in the loop names its step n and time n dt.
    The transports are written out in the phases, where a call would cost
    more than its arithmetic."""
    dt = config.dt
    wrench = config.wrench if config.wrench is not None else Wrench.zero()
    d = (*wrench.screw.resultant.components(), *wrench.screw.moment_at_origin.components())
    # (h, whether the advance by h ends at the midpoint's half state)
    if config.integrator == "midpoint":
        advances = ((dt / 2.0, True), (dt, False))
    else:
        advances = ((dt, False),)
    body = initial.body
    mass = body.total_mass
    j = body.moment_matrix.flat()
    # The integrator never changes the body, so one inverse serves the run.
    inv = _inverse_moment(body).flat()
    state = (initial.orientation.flat(), *initial.center.components(),
             *initial.linear_momentum.components(), *initial.angular_momentum_at_c.components())
    before = _read(state, mass, j, inv)
    for n in range(config.steps):
        try:
            state, renormed = _advance(before, advances, mass, inv, d)
            if renormed:
                # logging is loaded at the first warning, not with the package.
                import logging

                logging.getLogger(__name__).warning(
                    "step %d: orientation drifted off SO(3); applying polar projection", n
                )
            after = _read(state, mass, j, inv)
            diagnostics = _diagnose(before, after, n * dt, dt, d)
        except NonFiniteError as err:
            raise NonFiniteError(f"step {n} (t = {n * dt:g}): {err}") from None
        yield state, diagnostics, renormed
        before = after


def _read(state: tuple, mass: float, j: tuple[float, ...], inv: tuple[float, ...]) -> tuple:
    """The state (R, c, p, L) and what the step leaving it and the
    diagnostics on both sides of it read of it, as one tuple: omega and k(O)
    of the twist k, with k(c) = p / M; l(O) of the momentum screw l, with
    l(c) = L; R J R^T; the marker q; and the momentum field at c and at q.
    The marker c + R (1, 0, 0) is c plus R's first column, which differs from
    c + R.matvec((1, 0, 0)) at most in the sign of a zero, and a residual's
    norm cannot see that."""
    r, cx, cy, cz, px, py, pz, lx, ly, lz = state
    wx, wy, wz = _angular_velocity(r, inv, lx, ly, lz)
    # O - c is 0.0 - c, not -c, which would flip the sign of a zero.
    ox = 0.0 - cx
    oy = 0.0 - cy
    oz = 0.0 - cz
    kox = px / mass + (wy * oz - wz * oy)
    koy = py / mass + (wz * ox - wx * oz)
    koz = pz / mass + (wx * oy - wy * ox)
    lox = lx + (py * oz - pz * oy)
    loy = ly + (pz * ox - px * oz)
    loz = lz + (px * oy - py * ox)
    if not isfinite(kox + koy + koz + lox + loy + loz):
        _refuse("twist or momentum at the origin", kox, koy, koz, lox, loy, loz)
    world = _world_inertia(r, j)
    qx = cx + r[0]
    qy = cy + r[3]
    qz = cz + r[6]
    hcx = lox + (py * cz - pz * cy)
    hcy = loy + (pz * cx - px * cz)
    hcz = loz + (px * cy - py * cx)
    hqx = lox + (py * qz - pz * qy)
    hqy = loy + (pz * qx - px * qz)
    hqz = loz + (px * qy - py * qx)
    if not isfinite(hcx + hcy + hcz + hqx + hqy + hqz):
        _refuse("momentum field at the center or the marker", hcx, hcy, hcz, hqx, hqy, hqz)
    return (r, cx, cy, cz, px, py, pz, lx, ly, lz, wx, wy, wz, kox, koy, koz, lox, loy, loz,
            world, qx, qy, qz, hcx, hcy, hcz, hqx, hqy, hqz)


def _advance(
    before: tuple, advances: tuple, mass: float, inv: tuple[float, ...], d: tuple[float, ...]
) -> tuple[tuple, bool]:
    """The state (R, c, p, L) one step on from the one read as ``before``,
    under the wrench d = (f, d(O)), and whether R was projected back onto
    SO(3).  Each advance by h in ``advances`` goes from the state, at the
    angular velocity and the rates (p / M and the wrench's moment about the
    center) read from the state for Euler, and from the half state of an
    advance by dt / 2 for midpoint's full step.  The unit axis omega / |omega|
    and its Rodrigues entries cannot leave the float range: they go
    unchecked."""
    fx, fy, fz, dox, doy, doz = d
    r, cx, cy, cz, px, py, pz, lx, ly, lz, swx, swy, swz = before[:13]
    scx, scy, scz = cx, cy, cz
    spx, spy, spz = px, py, pz
    for h, half in advances:
        ax = dox + (fy * scz - fz * scy)
        ay = doy + (fz * scx - fx * scz)
        az = doz + (fx * scy - fy * scx)
        vx = spx / mass
        vy = spy / mass
        vz = spz / mass
        if not isfinite(ax + ay + az + vx + vy + vz):
            _refuse("moment about the center or velocity of the center", ax, ay, az, vx, vy, vz)
        speed = _norm(swx, swy, swz)
        if speed == 0.0:
            nr = r
        else:
            nr = _matmul(_rodrigues(swx / speed, swy / speed, swz / speed, speed * h), r)
            if not isfinite(sum(nr)):
                _refuse("rotated orientation", *nr)
        ncx = cx + vx * h
        ncy = cy + vy * h
        ncz = cz + vz * h
        npx = px + fx * h
        npy = py + fy * h
        npz = pz + fz * h
        nlx = lx + ax * h
        nly = ly + ay * h
        nlz = lz + az * h
        if not isfinite(ncx + ncy + ncz + npx + npy + npz + nlx + nly + nlz):
            _refuse("center or momentum after the advance", ncx, ncy, ncz, npx, npy, npz, nlx, nly, nlz)
        if half:
            scx, scy, scz = ncx, ncy, ncz
            spx, spy, spz = npx, npy, npz
            swx, swy, swz = _angular_velocity(nr, inv, nlx, nly, nlz)
    # Project R back onto SO(3) when max |R^T R - I| exceeds the drift
    # tolerance.
    renormed = _orthonormality_defect(nr) > _ORTHO_DRIFT_TOL
    if renormed:
        nr = _renormalize(nr)
    return (nr, ncx, ncy, ncz, npx, npy, npz, nlx, nly, nlz), renormed


def _diagnose(before: tuple, after: tuple, t: float, dt: float, d: tuple[float, ...]) -> tuple:
    """The time t, T, P, omega . (dI_C/dt)(omega) and the balance residual of
    the step of ``dt`` under d from the state read as ``before`` at t to the
    one read as ``after``; a name ending in 1 is read after the step.  Half a
    finite sum cannot leave the float range: it goes unchecked."""
    fx, fy, fz, dox, doy, doz = d
    (_, cx, cy, cz, px, py, pz, _, _, _, wx, wy, wz, kox, koy, koz, lox, loy, loz,
     world, qx, qy, qz, hcx, hcy, hcz, hqx, hqy, hqz) = before
    (_, _, _, _, px1, py1, pz1, _, _, _, wx1, wy1, wz1, _, _, _, _, _, _,
     world1, _, _, _, hcx1, hcy1, hcz1, hqx1, hqy1, hqz1) = after
    # Symmetric estimate of omega . (dI_C/dt) (omega) across the step; the
    # lemma makes the exact value zero, so this should vanish at O(dt^2).
    mx = (wx + wx1) * 0.5
    my = (wy + wy1) * 0.5
    mz = (wz + wz1) * 0.5
    bxx, bxy, bxz, byx, byy, byz, bzx, bzy, bzz = world
    axx, axy, axz, ayx, ayy, ayz, azx, azy, azz = world1
    # (I1 - I0) m
    ux = (axx - bxx) * mx + (axy - bxy) * my + (axz - bxz) * mz
    uy = (ayx - byx) * mx + (ayy - byy) * my + (ayz - byz) * mz
    uz = (azx - bzx) * mx + (azy - bzy) * my + (azz - bzz) * mz
    if not isfinite(ux + uy + uz):
        _refuse("inertia change times the mean angular velocity", ux, uy, uz)
    omega_idot = (mx * ux + my * uy + mz * uz) / dt

    # Residual of the body-relative balance law d + [k, l] against a forward
    # difference of the momentum field taken at body-dragged poles (the
    # center and the marker), O(dt) along an exact trajectory.  [k, l] has
    # the resultant -(omega x p), which is also the negated omega x p the
    # linear residual subtracts.
    nx = -(wy * pz - wz * py)
    ny = -(wz * px - wx * pz)
    nz = -(wx * py - wy * px)
    bx = (py * koz - pz * koy) - (wy * loz - wz * loy)
    by = (pz * kox - px * koz) - (wz * lox - wx * loz)
    bz = (px * koy - py * kox) - (wx * loy - wy * lox)
    rrx = fx + nx
    rry = fy + ny
    rrz = fz + nz
    rox = dox + bx
    roy = doy + by
    roz = doz + bz
    # (p1 - p0) / dt minus omega x p, which is n to the bit, minus r
    ex = ((px1 - px) / dt + nx) - rrx
    ey = ((py1 - py) / dt + ny) - rry
    ez = ((pz1 - pz) / dt + nz) - rrz
    if not isfinite(rox + roy + roz + ex + ey + ez):
        _refuse("d + [k, l] or the linear balance residual", rox, roy, roz, ex, ey, ez)
    residual = _norm(ex, ey, ez)
    for pole, ax, ay, az, hx, hy, hz, h1x, h1y, h1z in (
        ("center", cx, cy, cz, hcx, hcy, hcz, hcx1, hcy1, hcz1),
        ("marker", qx, qy, qz, hqx, hqy, hqz, hqx1, hqy1, hqz1),
    ):
        # (h1 - h) / dt - omega x h - (d + [k, l])(a) at the pole a, with the
        # field value h there before the step and h1 after it.
        ex = (h1x - hx) / dt - (wy * hz - wz * hy) - (rox + (rry * az - rrz * ay))
        ey = (h1y - hy) / dt - (wz * hx - wx * hz) - (roy + (rrz * ax - rrx * az))
        ez = (h1z - hz) / dt - (wx * hy - wy * hx) - (roz + (rrx * ay - rry * ax))
        if not isfinite(ex + ey + ez):
            _refuse("balance residual at the " + pole, ex, ey, ez)
        residual = max(residual, _norm(ex, ey, ez))
    # T = <k, l> / 2 and P = <k, d>, as klein_product pairs them.
    return (
        t,
        0.5 * ((wx * lox + wy * loy + wz * loz) + (px * kox + py * koy + pz * koz)),
        (wx * dox + wy * doy + wz * doz) + (fx * kox + fy * koy + fz * koz),
        omega_idot,
        residual,
    )


def run(config: SimConfig, initial: BodyState) -> Trajectory:
    """Integrate for config.steps steps.  Returns the full state sequence
    (steps + 1 entries) plus per-step diagnostics.  Bitwise deterministic for
    identical inputs, and state for state equal to ``step`` applied
    repeatedly."""
    states = [initial]
    diags = []
    renorms = 0
    for state, diagnostics, renormed in _stream(config, initial):
        states.append(_body_state(state, initial.body))
        diags.append(StepDiagnostics(*diagnostics))
        renorms += renormed
    return Trajectory(tuple(states), tuple(diags), renorms)
