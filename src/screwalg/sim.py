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

One kernel, the generator ``_stream``, does the stepping and the diagnostics
on plain floats: the state's 18 numbers and everything derived from them stay
local variables from one step to the next.  The kernel yields each new state
and its step's diagnostics as floats; ``_records`` builds the ``BodyState``
and ``StepDiagnostics`` of an item for ``run`` and ``step``, and the
``simulate`` command renders its rows from the floats.  The public
``state_twist``, ``state_momentum`` and ``world_inertia_matrix`` read a
``BodyState`` with the value types; the kernel shares its float cores with
them and with the vector types (``_angular_velocity``, ``_world_inertia``,
``vecmath._norm`` and ``_orthonormality_defect``, ``rigid._rodrigues``), so
each formula has one definition.

The inverse body inertia, which omega = R I^-1 R^T L needs, comes from a
pure-Python cyclic Jacobi eigensolve (``_jacobi_eigen``), once per run.
numpy is loaded only by the polar projection (``_renormalize``), an SVD that
runs only when the orientation drifts off SO(3).
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from math import isfinite
from typing import Iterator

from .dynamics import InertiaOperator, MomentumScrew, Wrench, kinetic_energy
from .errors import NonFiniteError, SingularInertiaError
from .kinematics import Twist
from .rigid import _rodrigues
from .vecmath import Mat3, Point, Vec3, _norm, _orthonormality_defect, _require_finite, _Value

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

INTEGRATORS = ("midpoint", "euler")

_SINGULAR_RTOL = 1e-12
_EPS = sys.float_info.epsilon
_JACOBI_SWEEPS = 16
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
        _set_orientation(self, orientation)
        _set_center(self, center)
        _set_linear_momentum(self, linear_momentum)
        _set_angular_momentum_at_c(self, angular_momentum_at_c)
        _set_body(self, body)


(_set_orientation, _set_center, _set_linear_momentum, _set_angular_momentum_at_c,
 _set_body) = BodyState._setters


class SimConfig(_Value):
    __slots__ = ("dt", "steps", "integrator", "wrench")

    def __init__(
        self, dt: float, steps: int, integrator: str = "midpoint", wrench: Wrench | None = None
    ):
        if not dt > 0.0:
            raise ValueError("dt must be positive")
        if integrator not in INTEGRATORS:
            raise ValueError(f"integrator must be {' or '.join(map(repr, INTEGRATORS))}")
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
    underflow; the inverse V diag(1/lambda) V^T is scaled back by 2**-e.  The
    eigendecomposition is the pure-Python Jacobi solve ``_jacobi_eigen``, so
    no call loads numpy, and a diagonal moment matrix inverts to exactly
    diag(1/d_i)."""
    moments = body.moment_matrix
    e = math.frexp(moments.max_abs())[1]
    evals, evecs, _ = _jacobi_eigen(tuple(math.ldexp(x, -e) for x in moments.flat()))
    order = sorted(range(3), key=evals.__getitem__)
    evals = [evals[k] for k in order]
    if evals[0] < _SINGULAR_RTOL * max(evals[-1], 0.0) or evals[-1] <= 0.0:
        raise SingularInertiaError(
            f"inertia principal values {_scaled_values(evals, e)} are not invertible"
        )
    u, v, w = ([row[k] for row in evecs] for k in order)
    a, b, c = evals
    # u[i] * u[j] is u[j] * u[i], so the inverse is exactly symmetric.
    inv = (u[i] * u[j] / a + v[i] * v[j] / b + w[i] * w[j] / c for i in range(3) for j in range(3))
    try:
        return Mat3(*(math.ldexp(x, -e) for x in inv))
    except OverflowError:
        raise NonFiniteError(
            f"inertia principal values {_scaled_values(evals, e)} have no finite inverse"
        ) from None


def _jacobi_eigen(m: tuple[float, ...]) -> tuple[list[float], list[list[float]], int]:
    """Eigenvalues, eigenvectors (the columns of V) and the sweeps taken for
    the symmetric 3x3 matrix whose lower triangle is that of the row-major
    9-tuple ``m``, as numpy's ``eigh`` reads it: cyclic Jacobi
    (Rutishauser 1966), at least as accurate as a QR solve (Demmel and
    Veselic 1992).

    A pair (p, q) is rotated away only while |a_pq| > eps sqrt(|a_pp a_qq|),
    the relative stopping rule, which an exact zero always meets: a diagonal
    matrix takes no rotation and keeps V = I.  The sweeps stop when one
    rotates nothing, and at ``_JACOBI_SWEEPS`` at most."""
    d = [m[0], m[4], m[8]]
    # off[r] is the entry of the pair (p, q) that leaves out index r.
    off = [m[7], m[6], m[3]]
    v = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    for sweep in range(_JACOBI_SWEEPS):
        rotated = False
        for p, q, r in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
            apq = off[r]
            if abs(apq) <= _EPS * math.sqrt(abs(d[p] * d[q])):
                continue
            rotated = True
            # The smaller rotation angle, tan = t, that zeroes a_pq; hypot
            # keeps theta^2 from overflowing, and t is 0 if theta is infinite.
            theta = (d[q] - d[p]) / (2.0 * apq)
            t = math.copysign(1.0 / (abs(theta) + math.hypot(theta, 1.0)), theta)
            c = 1.0 / math.sqrt(t * t + 1.0)
            s = t * c
            tau = s / (1.0 + c)
            d[p] -= t * apq
            d[q] += t * apq
            off[r] = 0.0
            g, h = off[q], off[p]
            off[q] = g - s * (h + g * tau)
            off[p] = h + s * (g - h * tau)
            for row in v:
                g, h = row[p], row[q]
                row[p] = g - s * (h + g * tau)
                row[q] = h + s * (g - h * tau)
        if not rotated:
            return d, v, sweep
    return d, v, _JACOBI_SWEEPS


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
    the step kernel share.  R J is formed as ``Mat3.matmul`` forms it, and
    its rows are then dotted with the rows of R; each product is checked
    finite as the ``Mat3`` it forms."""
    rxx, rxy, rxz, ryx, ryy, ryz, rzx, rzy, rzz = r
    jxx, jxy, jxz, jyx, jyy, jyz, jzx, jzy, jzz = j
    axx = rxx * jxx + rxy * jyx + rxz * jzx
    axy = rxx * jxy + rxy * jyy + rxz * jzy
    axz = rxx * jxz + rxy * jyz + rxz * jzz
    ayx = ryx * jxx + ryy * jyx + ryz * jzx
    ayy = ryx * jxy + ryy * jyy + ryz * jzy
    ayz = ryx * jxz + ryy * jyz + ryz * jzz
    azx = rzx * jxx + rzy * jyx + rzz * jzx
    azy = rzx * jxy + rzy * jyy + rzz * jzy
    azz = rzx * jxz + rzy * jyz + rzz * jzz
    if not isfinite(axx + axy + axz + ayx + ayy + ayz + azx + azy + azz):
        _require_finite("Mat3", axx, axy, axz, ayx, ayy, ayz, azx, azy, azz)
    world = (
        axx * rxx + axy * rxy + axz * rxz,
        axx * ryx + axy * ryy + axz * ryz,
        axx * rzx + axy * rzy + axz * rzz,
        ayx * rxx + ayy * rxy + ayz * rxz,
        ayx * ryx + ayy * ryy + ayz * ryz,
        ayx * rzx + ayy * rzy + ayz * rzz,
        azx * rxx + azy * rxy + azz * rxz,
        azx * ryx + azy * ryy + azz * ryz,
        azx * rzx + azy * rzy + azz * rzz,
    )
    if not isfinite(sum(world)):
        _require_finite("Mat3", *world)
    return world


def _angular_velocity(
    r: tuple[float, ...], inv: tuple[float, ...], lx: float, ly: float, lz: float
) -> tuple[float, float, float]:
    """omega = R I^-1 R^T L for the orientation R and the inverse body moment
    matrix I^-1, each a row-major 9-tuple, and the angular momentum L about
    the center: the one definition, which ``state_twist`` and the step kernel
    share.  R^T L, I^-1 R^T L and omega are each checked finite."""
    rxx, rxy, rxz, ryx, ryy, ryz, rzx, rzy, rzz = r
    ax = rxx * lx + ryx * ly + rzx * lz
    ay = rxy * lx + ryy * ly + rzy * lz
    az = rxz * lx + ryz * ly + rzz * lz
    if not isfinite(ax + ay + az):
        _require_finite("Vec3", ax, ay, az)
    ixx, ixy, ixz, iyx, iyy, iyz, izx, izy, izz = inv
    bx = ixx * ax + ixy * ay + ixz * az
    by = iyx * ax + iyy * ay + iyz * az
    bz = izx * ax + izy * ay + izz * az
    if not isfinite(bx + by + bz):
        _require_finite("Vec3", bx, by, bz)
    wx = rxx * bx + rxy * by + rxz * bz
    wy = ryx * bx + ryy * by + ryz * bz
    wz = rzx * bx + rzy * by + rzz * bz
    if not isfinite(wx + wy + wz):
        _require_finite("Vec3", wx, wy, wz)
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
    """The polar factor of the row-major 3x3 matrix ``r``: the nearest
    rotation, whose entries lie in [-1, 1]."""
    import numpy as np

    u, _, vt = np.linalg.svd(np.array(r, dtype=float).reshape(3, 3))
    return tuple((u @ vt).ravel().tolist())


def step(
    state: BodyState,
    wrench: Wrench | None,
    dt: float,
    integrator: str = "midpoint",
) -> BodyState:
    """Advance one step of ``dt`` under ``wrench`` (None means unforced) with
    the chosen integrator: explicit midpoint by default, explicit Euler on
    request.  The state is the first a one-step ``_stream`` yields, so
    ``run`` and ``step`` take one step path, and a call also computes the
    starting state's screws and the step's diagnostics, throws them away, and
    raises where they overflow: it costs nearly two ``run`` steps, and a loop
    should call ``run``."""
    return _records(next(_stream(SimConfig(dt, 1, integrator, wrench), state)), state.body)[0]


def _records(item: tuple, body: InertiaOperator) -> tuple[BodyState, StepDiagnostics]:
    """The state of ``body`` and the diagnostics in a ``_stream`` item."""
    r, cx, cy, cz, px, py, pz, lx, ly, lz, t, ke, pw, wdw, res, _ = item
    state = BodyState(Mat3(*r), Point(cx, cy, cz), Vec3(px, py, pz), Vec3(lx, ly, lz), body)
    return state, StepDiagnostics(t, ke, pw, wdw, res)


def _stream(config: SimConfig, initial: BodyState) -> Iterator[tuple]:
    """Advance ``initial`` by config.steps steps, yielding each new state with
    the diagnostics of the step that made it and whether that step projected
    the orientation back onto SO(3), which is logged here.  An item is flat
    floats: R as a row-major 9-tuple, then the components of c, p and L, the
    five diagnostics in ``StepDiagnostics`` field order, and the projection
    flag.  ``run`` and ``step`` build records from it (``_records``); a caller
    that keeps only what it needs holds no history and builds no value.

    This is the step kernel.  The state (R, c, p, L) and everything the step
    and its diagnostics derive from it are float locals.  The float cores give
    omega, R J R^T, the drift test, the norms and the rotation; the rest, the
    screw transport v + w x d too, is inline, where a call would cost more
    than its arithmetic.  Each quantity is computed with the float operations
    of its composed ``Vec3``/``Mat3`` form in their order
    (``tests/test_sim.py`` keeps those forms as the bit oracle), and each that
    the composed form built through a checking constructor is checked finite
    before it is used, in the same order and with the same ``NonFiniteError``
    message.  A check tests the sum of the components, which is non-finite
    whenever one of them is, and only then calls ``_require_finite``, which
    raises if one is and returns if the sum merely overflowed; a transport
    v + w x d, and the bracket [k, l], then checks each cross product first,
    as the composed form builds it.  Values that
    cannot leave the float range go unchecked: the unit axis omega / |omega|,
    its Rodrigues entries and half a finite sum.  The marker c + R (1, 0, 0)
    is c plus R's first column, which differs from c + R.matvec((1, 0, 0)) at
    most in the sign of a zero, and a residual's norm cannot see that."""
    dt = config.dt
    last = config.steps - 1
    wrench = config.wrench if config.wrench is not None else Wrench.zero()
    fx, fy, fz = wrench.screw.resultant.components()
    dox, doy, doz = wrench.screw.moment_at_origin.components()
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
    r = initial.orientation.flat()
    cx, cy, cz = initial.center.components()
    px, py, pz = initial.linear_momentum.components()
    lx, ly, lz = initial.angular_momentum_at_c.components()
    renormed = False
    n = -1
    while True:
        # -- What the step leaving the state and the diagnostics on both sides
        # read of it: the twist k = (omega, k(O)) with k(c) = p / M, the
        # momentum screw l = (p, l(O)) with l(c) = L, the world inertia
        # R J R^T, the marker and the momentum field at the center and there.
        wx, wy, wz = _angular_velocity(r, inv, lx, ly, lz)
        vx = px / mass
        vy = py / mass
        vz = pz / mass
        if not isfinite(vx + vy + vz):
            _require_finite("Vec3", vx, vy, vz)
        # O - c is 0.0 - c, not -c, which would flip the sign of a zero.
        ox = 0.0 - cx
        oy = 0.0 - cy
        oz = 0.0 - cz
        kox = vx + (wy * oz - wz * oy)
        koy = vy + (wz * ox - wx * oz)
        koz = vz + (wx * oy - wy * ox)
        if not isfinite(kox + koy + koz):
            _require_finite("Vec3", wy * oz - wz * oy, wz * ox - wx * oz, wx * oy - wy * ox)
            _require_finite("Vec3", kox, koy, koz)
        lox = lx + (py * oz - pz * oy)
        loy = ly + (pz * ox - px * oz)
        loz = lz + (px * oy - py * ox)
        if not isfinite(lox + loy + loz):
            _require_finite("Vec3", py * oz - pz * oy, pz * ox - px * oz, px * oy - py * ox)
            _require_finite("Vec3", lox, loy, loz)
        world = _world_inertia(r, j)
        rxx, rxy, rxz, ryx, ryy, ryz, rzx, rzy, rzz = r
        qx = cx + rxx
        qy = cy + ryx
        qz = cz + rzx
        if not isfinite(qx + qy + qz):
            _require_finite("Point", qx, qy, qz)
        hcx = lox + (py * cz - pz * cy)
        hcy = loy + (pz * cx - px * cz)
        hcz = loz + (px * cy - py * cx)
        # p x c is -(p x (O - c)), which l(O) checked.
        if not isfinite(hcx + hcy + hcz):
            _require_finite("Vec3", hcx, hcy, hcz)
        hqx = lox + (py * qz - pz * qy)
        hqy = loy + (pz * qx - px * qz)
        hqz = loz + (px * qy - py * qx)
        if not isfinite(hqx + hqy + hqz):
            _require_finite("Vec3", py * qz - pz * qy, pz * qx - px * qz, px * qy - py * qx)
            _require_finite("Vec3", hqx, hqy, hqz)

        if n >= 0:
            # -- Diagnostics of the step from the state marked 0 to this one.
            # Symmetric estimate of omega . (dI_C/dt) (omega) across the
            # step; the lemma makes the exact value zero, so this should
            # vanish at O(dt^2).
            sx = wx0 + wx
            sy = wy0 + wy
            sz = wz0 + wz
            if not isfinite(sx + sy + sz):
                _require_finite("Vec3", sx, sy, sz)
            sx = sx * 0.5
            sy = sy * 0.5
            sz = sz * 0.5
            bxx, bxy, bxz, byx, byy, byz, bzx, bzy, bzz = world0
            axx, axy, axz, ayx, ayy, ayz, azx, azy, azz = world
            axx = axx - bxx
            axy = axy - bxy
            axz = axz - bxz
            ayx = ayx - byx
            ayy = ayy - byy
            ayz = ayz - byz
            azx = azx - bzx
            azy = azy - bzy
            azz = azz - bzz
            if not isfinite(axx + axy + axz + ayx + ayy + ayz + azx + azy + azz):
                _require_finite("Mat3", axx, axy, axz, ayx, ayy, ayz, azx, azy, azz)
            ux = axx * sx + axy * sy + axz * sz
            uy = ayx * sx + ayy * sy + ayz * sz
            uz = azx * sx + azy * sy + azz * sz
            if not isfinite(ux + uy + uz):
                _require_finite("Vec3", ux, uy, uz)
            omega_idot = (sx * ux + sy * uy + sz * uz) / dt

            # Residual of the body-relative balance law d + [k, l] against a
            # forward difference of the momentum field taken at body-dragged
            # poles (the center and the marker), O(dt) along an exact
            # trajectory.  [k, l] has the resultant -(omega x p), which is
            # also the negated omega x p the linear residual subtracts.
            nx = -(wy0 * pz0 - wz0 * py0)
            ny = -(wz0 * px0 - wx0 * pz0)
            nz = -(wx0 * py0 - wy0 * px0)
            if not isfinite(nx + ny + nz):
                # omega x p, which the composed form checks before negating
                _require_finite("Vec3", -nx, -ny, -nz)
            bx = (py0 * koz0 - pz0 * koy0) - (wy0 * loz0 - wz0 * loy0)
            by = (pz0 * kox0 - px0 * koz0) - (wz0 * lox0 - wx0 * loz0)
            bz = (px0 * koy0 - py0 * kox0) - (wx0 * loy0 - wy0 * lox0)
            if not isfinite(bx + by + bz):
                _require_finite("Vec3", py0 * koz0 - pz0 * koy0, pz0 * kox0 - px0 * koz0, px0 * koy0 - py0 * kox0)
                _require_finite("Vec3", wy0 * loz0 - wz0 * loy0, wz0 * lox0 - wx0 * loz0, wx0 * loy0 - wy0 * lox0)
                _require_finite("Vec3", bx, by, bz)
            rrx = fx + nx
            rry = fy + ny
            rrz = fz + nz
            if not isfinite(rrx + rry + rrz):
                _require_finite("Vec3", rrx, rry, rrz)
            rox = dox + bx
            roy = doy + by
            roz = doz + bz
            if not isfinite(rox + roy + roz):
                _require_finite("Vec3", rox, roy, roz)
            ux = px - px0
            uy = py - py0
            uz = pz - pz0
            if not isfinite(ux + uy + uz):
                _require_finite("Vec3", ux, uy, uz)
            ux = ux / dt
            uy = uy / dt
            uz = uz / dt
            if not isfinite(ux + uy + uz):
                _require_finite("Vec3", ux, uy, uz)
            # minus omega x p, which is n to the bit
            ux = ux + nx
            uy = uy + ny
            uz = uz + nz
            if not isfinite(ux + uy + uz):
                _require_finite("Vec3", ux, uy, uz)
            ux = ux - rrx
            uy = uy - rry
            uz = uz - rrz
            if not isfinite(ux + uy + uz):
                _require_finite("Vec3", ux, uy, uz)
            residual = _norm(ux, uy, uz)
            for ax, ay, az, bx, by, bz, hx, hy, hz in (
                (cx0, cy0, cz0, hcx0, hcy0, hcz0, hcx, hcy, hcz),
                (qx0, qy0, qz0, hqx0, hqy0, hqz0, hqx, hqy, hqz),
            ):
                # (h1 - h0) / dt - omega0 x h0 - (d + [k, l])(a0) at the
                # pole a0, field value h0 there before and h1 after.
                ux = hx - bx
                uy = hy - by
                uz = hz - bz
                if not isfinite(ux + uy + uz):
                    _require_finite("Vec3", ux, uy, uz)
                ux = ux / dt
                uy = uy / dt
                uz = uz / dt
                if not isfinite(ux + uy + uz):
                    _require_finite("Vec3", ux, uy, uz)
                hx = wy0 * bz - wz0 * by
                hy = wz0 * bx - wx0 * bz
                hz = wx0 * by - wy0 * bx
                if not isfinite(hx + hy + hz):
                    _require_finite("Vec3", hx, hy, hz)
                ux = ux - hx
                uy = uy - hy
                uz = uz - hz
                if not isfinite(ux + uy + uz):
                    _require_finite("Vec3", ux, uy, uz)
                hx = rox + (rry * az - rrz * ay)
                hy = roy + (rrz * ax - rrx * az)
                hz = roz + (rrx * ay - rry * ax)
                if not isfinite(hx + hy + hz):
                    _require_finite("Vec3", rry * az - rrz * ay, rrz * ax - rrx * az, rrx * ay - rry * ax)
                    _require_finite("Vec3", hx, hy, hz)
                ux = ux - hx
                uy = uy - hy
                uz = uz - hz
                if not isfinite(ux + uy + uz):
                    _require_finite("Vec3", ux, uy, uz)
                residual = max(residual, _norm(ux, uy, uz))

            # T = <k, l> / 2 and P = <k, d>, as klein_product pairs them.
            yield (
                r, cx, cy, cz, px, py, pz, lx, ly, lz,
                n * dt,
                0.5 * ((wx0 * lox0 + wy0 * loy0 + wz0 * loz0)
                       + (px0 * kox0 + py0 * koy0 + pz0 * koz0)),
                (wx0 * dox + wy0 * doy + wz0 * doz) + (fx * kox0 + fy * koy0 + fz * koz0),
                omega_idot,
                residual,
                renormed,
            )
            if n == last:
                return

        wx0, wy0, wz0 = wx, wy, wz
        kox0, koy0, koz0 = kox, koy, koz
        lox0, loy0, loz0 = lox, loy, loz
        world0 = world
        cx0, cy0, cz0 = cx, cy, cz
        px0, py0, pz0 = px, py, pz
        qx0, qy0, qz0 = qx, qy, qz
        hcx0, hcy0, hcz0 = hcx, hcy, hcz
        hqx0, hqy0, hqz0 = hqx, hqy, hqz
        n += 1

        # -- The step.  Each advance goes from the state, at an angular
        # velocity and at the rates read at a center and a momentum: the
        # center velocity p / M and the wrench's moment about the center.
        # Euler takes them from the state; midpoint advances by dt / 2 to the
        # half state and then by dt at the half state's rates.
        scx, scy, scz = cx, cy, cz
        spx, spy, spz = px, py, pz
        swx, swy, swz = wx, wy, wz
        for h, half in advances:
            ax = dox + (fy * scz - fz * scy)
            ay = doy + (fz * scx - fx * scz)
            az = doz + (fx * scy - fy * scx)
            if not isfinite(ax + ay + az):
                _require_finite("Vec3", fy * scz - fz * scy, fz * scx - fx * scz, fx * scy - fy * scx)
                _require_finite("Vec3", ax, ay, az)
            vx = spx / mass
            vy = spy / mass
            vz = spz / mass
            if not isfinite(vx + vy + vz):
                _require_finite("Vec3", vx, vy, vz)
            speed = _norm(swx, swy, swz)
            if speed == 0.0:
                nr = r
            else:
                qxx, qxy, qxz, qyx, qyy, qyz, qzx, qzy, qzz = _rodrigues(
                    swx / speed, swy / speed, swz / speed, speed * h
                )
                nr = (
                    qxx * rxx + qxy * ryx + qxz * rzx,
                    qxx * rxy + qxy * ryy + qxz * rzy,
                    qxx * rxz + qxy * ryz + qxz * rzz,
                    qyx * rxx + qyy * ryx + qyz * rzx,
                    qyx * rxy + qyy * ryy + qyz * rzy,
                    qyx * rxz + qyy * ryz + qyz * rzz,
                    qzx * rxx + qzy * ryx + qzz * rzx,
                    qzx * rxy + qzy * ryy + qzz * rzy,
                    qzx * rxz + qzy * ryz + qzz * rzz,
                )
                if not isfinite(sum(nr)):
                    _require_finite("Mat3", *nr)
            ux = vx * h
            uy = vy * h
            uz = vz * h
            if not isfinite(ux + uy + uz):
                _require_finite("Vec3", ux, uy, uz)
            ncx = cx + ux
            ncy = cy + uy
            ncz = cz + uz
            if not isfinite(ncx + ncy + ncz):
                _require_finite("Point", ncx, ncy, ncz)
            ux = fx * h
            uy = fy * h
            uz = fz * h
            if not isfinite(ux + uy + uz):
                _require_finite("Vec3", ux, uy, uz)
            npx = px + ux
            npy = py + uy
            npz = pz + uz
            if not isfinite(npx + npy + npz):
                _require_finite("Vec3", npx, npy, npz)
            ux = ax * h
            uy = ay * h
            uz = az * h
            if not isfinite(ux + uy + uz):
                _require_finite("Vec3", ux, uy, uz)
            nlx = lx + ux
            nly = ly + uy
            nlz = lz + uz
            if not isfinite(nlx + nly + nlz):
                _require_finite("Vec3", nlx, nly, nlz)
            if half:
                scx, scy, scz = ncx, ncy, ncz
                spx, spy, spz = npx, npy, npz
                swx, swy, swz = _angular_velocity(nr, inv, nlx, nly, nlz)
        r = nr
        cx, cy, cz = ncx, ncy, ncz
        px, py, pz = npx, npy, npz
        lx, ly, lz = nlx, nly, nlz

        # Project R back onto SO(3) when max |R^T R - I| exceeds the drift
        # tolerance.
        renormed = _orthonormality_defect(r) > _ORTHO_DRIFT_TOL
        if renormed:
            r = _renormalize(r)
            # logging is loaded at the first warning, not with the package.
            import logging

            logging.getLogger(__name__).warning(
                "step %d: orientation drifted off SO(3); applying polar projection", n
            )


def run(config: SimConfig, initial: BodyState) -> Trajectory:
    """Integrate for config.steps steps.  Returns the full state sequence
    (steps + 1 entries) plus per-step diagnostics.  Bitwise deterministic for
    identical inputs, and state for state equal to ``step`` applied
    repeatedly."""
    states = [initial]
    diags = []
    renorms = 0
    for item in _stream(config, initial):
        state, diag = _records(item, initial.body)
        states.append(state)
        diags.append(diag)
        renorms += item[-1]
    return Trajectory(tuple(states), tuple(diags), renorms)
