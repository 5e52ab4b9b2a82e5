"""Momentum-based rigid-body time stepping with screw diagnostics.

The state carries momenta rather than velocities: the linear momentum and the
angular momentum about the (moving) center of mass.  Both obey exact update
rules under a constant wrench, because the moment about the center is the
only thing that drives the angular momentum there; all integration error
lives in the orientation and center updates.  With a zero wrench the momenta
are therefore conserved to the last bit.

Each step also evaluates a set of screw-level diagnostics on the trajectory:
kinetic energy, power, a symmetric finite-difference estimate of
omega . (dI_C/dt)(omega) (identically zero along exact motion), evaluated in
body axes, and the residual of the body-relative balance law d + [k, l]
against a direct finite-difference derivative of the momentum screw at
body-dragged poles.  The screws are paired, and the balance law formed,
about the center c, where the twist is (omega, v = p / M) and the momentum
screw (p, L): T = (omega . L + p . v) / 2, P = omega . d(c) + f . v, and
[k, l] has the resultant -(omega x p) and the moment -(omega x L).  No
screw is moved to the world origin, so the diagnostics of an unforced step
do not depend on where c lies.

The step kernel, the generator ``_stream``, runs on plain floats in three
phases: ``_read`` reads a state's angular velocity, the rates of its center
and the momentum field at its marker, ``_advance`` advances the state, and
``_diagnose`` diagnoses a step from
what was read on both sides of it.  A state and what is read of it travel as
one tuple, so each state is read once, and what the diagnostics read before
a step is what the step read.  Each phase tests its values finite once per
group of them and refuses a group that is not finite with one
``NonFiniteError`` that names it (``_stream``), where the composed vector
form refuses too.  The SO(3) drift test runs once per proven budget of steps
(``_stream``).  The kernel yields each new state and its step's diagnostics
as floats; ``run`` and ``step`` build their records from them, and the
``simulate`` command renders its rows from the floats.  The public
``state_twist``, ``state_momentum`` and ``world_inertia_matrix`` read a
``BodyState`` with the value types; the kernel shares its float cores with
them and with the vector types (``_angular_velocity``, ``vecmath._norm``,
``_matmul`` and ``_orthonormality_defect``, ``rigid._rodrigues``), so each
formula has one definition.

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
# delta, a step's allowance of SO(3) drift: at least 10 times the proven
# bound on one advance's growth of the computed defect (``_stream``).
_DRIFT_PER_STEP = 1e-12


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
    """Moment matrix about the center in world axes: R I_body R^T, with R J
    formed first."""
    r = state.orientation
    return r.matmul(state.body.moment_matrix).matmul(r.transpose())


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
    reads a state once, about its center, ``_advance`` steps from what was
    read, and ``_diagnose`` diagnoses the step from what was read on both
    sides of it.  The state's read is the last of a step, so a refusal of
    the new state's rates names the step that made it, and one of the
    initial state's read names no step.
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
    The transports left, of the wrench's moment to the center and of the
    momentum field and d + [k, l] to the marker, are written out in the
    phases, where a call would cost more than its arithmetic.

    The SO(3) drift test runs on a proven budget.  When it measures the
    defect d^ = ``_orthonormality_defect`` of a step's new R at most tol =
    ``_ORTHO_DRIFT_TOL``, the next floor((tol - d^) / delta) steps skip it,
    and the "rotated orientation" group with it; the first step of a stream
    and the step after a projection test in full.  delta =
    ``_DRIFT_PER_STEP`` is more than 10 times a bound B on how far one
    advance R' = fl(Q R), with Q = ``_rodrigues(u^, theta)`` of the
    computed axis and angle, can raise d^ from an R with d^(R) <= tol.  So each
    skipped step n has d^(R_n) <= d^ + n B <= d^ + (tol - d^) (1 + u)^2 / 10
    < tol (u = 2**-53; the floor is taken of a float quotient), and the test
    would have passed there: every projection, its step and its log line are
    those of a kernel that tests every step.  Q's entries are at most 3 and
    R's at most 1 + tol in size, so Q R is finite there too.

    The bound B, with sin, cos and hypot within one ulp (as glibc's and
    CPython's are) and each constant rounded up to first order in u:

    (a) Rounding of the defect.  Each column of R has norm at most 1 + tol,
        so each dot product of R^T R errs by at most 3.01u, and a diagonal
        one, in [0.5, 2], loses nothing to the subtraction of 1.0 (Sterbenz):
        d^ is the exact defect d within 3.01u.
    (b) The axis u^ = fl(w / |w|^), |w|^ from ``_norm``: |u^|^2 = 1 + eta.
        A normal |w|^ is |w| within 4.1u (the sum of squares within 6.1u,
        then its square root) or 2u (hypot), so |eta| <= 11u.  Below
        2**-1022, hypot is within 2**-1074 of |w|, and theta = fl(|w|^ h) <
        |w|^ 2**1024, so |w|^'s relative error e has theta |e| <= 8.01u.
        Then |e| <= 2**-10 and |eta| <= 2.01 |e| + 3.01u, or theta <
        2**-38 and |u^| < 2.01.
    (c) The exact Rodrigues matrix P = I + s K + c K^2 of the computed
        values, K = [u^]x, s = fl(sin theta), c = fl(1 - fl(cos theta)) in
        [0, 2].  As K^3 = -|u^|^2 K, P^T P - I and P P^T - I are both
        (2c - s^2 - c^2 |u^|^2) K^2, whose entries are at most |u^|^2.  Here
        2c - s^2 - c^2 = 1 - s^2 - (1 - c)^2 is within 12.1u of 1 - sin^2 -
        cos^2 = 0 (s is sin theta within 2u, 1 - c is cos theta within 4u),
        and c^2 |eta| <= 44.5u: 4 * 11u, or for a subnormal |w|^ with
        |e| <= 2**-10, c <= min(2, theta^2 / 2 + 2u) and theta |e| <= 8.01u
        give at most 32.2u + 12.1u.  So P's defect is at most 57u.  In the
        last case of (b), s < 2**-38, c <= u and the defect is at most 9u.
    (d) The entries of Q.  Each entry of ``_rodrigues`` is P's within 7.1u
        (at most five roundings, of values at most 2.01 in size; 1.01u in
        the last case), so Q^T Q - I and Q Q^T - I are P's within
        2 sqrt(3) 7.1u + O(u^2) < 24.7u: Q's defect is at most 81.7u.
    (e) The product.  fl(Q R) = Q R + E with |E_ij| <= 3.01u |row i of Q|
        |column j of R| <= 3.01u, and R'^T R' - I is R^T R - I plus
        R^T (Q^T Q - I) R, (Q R)^T E, E^T (Q R) and E^T E, at most
        3 (1 + tol) 81.7u, 5.22u, 5.22u and 28u^2 in size: the exact defect
        grows by at most 256u.

    With (a) at both ends, B <= 256u + 2 * 3.01u < 263u < 3e-14, and delta
    is 34 times that.  Over 20000 random steps
    (``tests/test_drift_budget.py``) the computed defect grew by at most 14u,
    and a Rodrigues matrix's own defect was at most 16u."""
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
    # omega . (dI/dt) omega reads only J's symmetric part J_s = (J + J^T) / 2,
    # and takes half of it, J / 4 + J^T / 4, which no sum overflows: J / 2
    # to the bit for a symmetric J with no nonzero entry below 2**-1020 in
    # size.
    j = body.moment_matrix.flat()
    jh = tuple(a * 0.25 + b * 0.25 for a, b in zip(j, j[0::3] + j[1::3] + j[2::3]))
    # The integrator never changes the body, so one inverse serves the run.
    inv = _inverse_moment(body).flat()
    state = (initial.orientation.flat(), *initial.center.components(),
             *initial.linear_momentum.components(), *initial.angular_momentum_at_c.components())
    before = _read(state, mass, inv, d)
    budget = 0
    for n in range(config.steps):
        try:
            state, renormed, budget = _advance(before, advances, mass, inv, d, budget)
            if renormed:
                # logging is loaded at the first warning, not with the package.
                import logging

                logging.getLogger(__name__).warning(
                    "step %d: orientation drifted off SO(3); applying polar projection", n
                )
            after = _read(state, mass, inv, d)
            diagnostics = _diagnose(before, after, n * dt, dt, jh, d)
        except NonFiniteError as err:
            raise NonFiniteError(f"step {n} (t = {n * dt:g}): {err}") from None
        yield state, diagnostics, renormed
        before = after


def _read(state: tuple, mass: float, inv: tuple[float, ...], d: tuple[float, ...]) -> tuple:
    """The state (R, c, p, L) and what the step leaving it and the
    diagnostics on both sides of it read of it, about the center c, as one
    tuple: the state itself, then omega; the velocity v = p / M of the center
    and the moment d(c) = d(O) + f x c of the wrench d = (f, d(O)) about it,
    which the step's first advance reads too; and the momentum field at the
    marker c + b, L + p x b, with b = R (1, 0, 0), R's first column.  Only
    d(c) reads c, so an unforced state reads the same wherever c lies."""
    r, cx, cy, cz, px, py, pz, lx, ly, lz = state
    wx, wy, wz = _angular_velocity(r, inv, lx, ly, lz)
    fx, fy, fz, dox, doy, doz = d
    vx = px / mass
    vy = py / mass
    vz = pz / mass
    ax = dox + (fy * cz - fz * cy)
    ay = doy + (fz * cx - fx * cz)
    az = doz + (fx * cy - fy * cx)
    if not isfinite(vx + vy + vz + ax + ay + az):
        _refuse("moment about the center or velocity of the center", vx, vy, vz, ax, ay, az)
    bx = r[0]
    by = r[3]
    bz = r[6]
    hx = lx + (py * bz - pz * by)
    hy = ly + (pz * bx - px * bz)
    hz = lz + (px * by - py * bx)
    if not isfinite(hx + hy + hz):
        _refuse("momentum field at the marker", hx, hy, hz)
    return (state, wx, wy, wz, vx, vy, vz, ax, ay, az, hx, hy, hz)


def _advance(
    before: tuple, advances: tuple, mass: float, inv: tuple[float, ...], d: tuple[float, ...],
    budget: int,
) -> tuple[tuple, bool, int]:
    """The state (R, c, p, L) one step on from the one read as ``before``,
    under the wrench d = (f, d(O)), whether R was projected back onto SO(3),
    and the budget of steps after it that may skip the drift test (``_stream``);
    a step with ``budget`` left skips it, and the "rotated orientation"
    group.  Each advance by h in ``advances`` goes from the state, at the
    angular velocity and the rates (v = p / M and the wrench's moment d(c)
    about the center) that ``_read`` read from the state for Euler, and from
    the half state of an advance by dt / 2 for midpoint's full step.  The
    unit axis omega / |omega| and its Rodrigues entries cannot leave the
    float range: they go unchecked."""
    fx, fy, fz, dox, doy, doz = d
    (r, cx, cy, cz, px, py, pz, lx, ly, lz), swx, swy, swz, vx, vy, vz, ax, ay, az = before[:10]
    for h, half in advances:
        speed = _norm(swx, swy, swz)
        if speed == 0.0:
            nr = r
        else:
            nr = _matmul(_rodrigues(swx / speed, swy / speed, swz / speed, speed * h), r)
            if not budget and not isfinite(sum(nr)):
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
            swx, swy, swz = _angular_velocity(nr, inv, nlx, nly, nlz)
            vx = npx / mass
            vy = npy / mass
            vz = npz / mass
            ax = dox + (fy * ncz - fz * ncy)
            ay = doy + (fz * ncx - fx * ncz)
            az = doz + (fx * ncy - fy * ncx)
            if not isfinite(vx + vy + vz + ax + ay + az):
                _refuse("moment about the center or velocity of the center", vx, vy, vz, ax, ay, az)
    renormed = False
    if budget:
        budget -= 1
    else:
        # Project R back onto SO(3) when max |R^T R - I| exceeds the drift
        # tolerance; below it, the steps its distance from the tolerance
        # allows skip the test.
        defect = _orthonormality_defect(nr)
        renormed = defect > _ORTHO_DRIFT_TOL
        if renormed:
            nr = _renormalize(nr)
        else:
            budget = int((_ORTHO_DRIFT_TOL - defect) / _DRIFT_PER_STEP)
    return (nr, ncx, ncy, ncz, npx, npy, npz, nlx, nly, nlz), renormed, budget


def _omega_idot(
    r0: tuple[float, ...], r1: tuple[float, ...], mx: float, my: float, mz: float,
    jh: tuple[float, ...], dt: float,
) -> float:
    """m . (R1 J R1^T - R0 J R0^T) m / dt for the orientations R0 and R1 of
    a step of ``dt``, the mean spin m and J_s / 2, half the symmetric part of
    J: in body axes, 2 (u . (J_s / 2) s) / dt with u = (R1 - R0)^T m and
    s = R0^T m + R1^T m, which forms no R J R^T.  R1 - R0 is formed entry by
    entry first, exactly (Sterbenz) where two entries lie within a factor of
    2, so u keeps the digits that R J R^T lost.  J_s s is about twice the
    angular momentum in body axes, so the group of m, u, s and (J_s / 2) s
    ends at u and (J_s / 2) s, which leaves the float range only with the
    momentum.  A function of its own, so that a traced allocation here
    finds its line near the top of a short code object."""
    axx, axy, axz, ayx, ayy, ayz, azx, azy, azz = r0
    bxx, bxy, bxz, byx, byy, byz, bzx, bzy, bzz = r1
    ux = (bxx - axx) * mx + (byx - ayx) * my + (bzx - azx) * mz
    uy = (bxy - axy) * mx + (byy - ayy) * my + (bzy - azy) * mz
    uz = (bxz - axz) * mx + (byz - ayz) * my + (bzz - azz) * mz
    sx = (axx * mx + ayx * my + azx * mz) + (bxx * mx + byx * my + bzx * mz)
    sy = (axy * mx + ayy * my + azy * mz) + (bxy * mx + byy * my + bzy * mz)
    sz = (axz * mx + ayz * my + azz * mz) + (bxz * mx + byz * my + bzz * mz)
    jxx, jxy, jxz, jyx, jyy, jyz, jzx, jzy, jzz = jh
    gx = jxx * sx + jxy * sy + jxz * sz
    gy = jyx * sx + jyy * sy + jyz * sz
    gz = jzx * sx + jzy * sy + jzz * sz
    if not isfinite(ux + uy + uz + gx + gy + gz):
        _refuse("inertia change times the mean angular velocity", ux, uy, uz, gx, gy, gz)
    return 2.0 * ((ux * gx + uy * gy + uz * gz) / dt)


def _diagnose(
    before: tuple, after: tuple, t: float, dt: float, jh: tuple[float, ...], d: tuple[float, ...]
) -> tuple:
    """The time t, T, P, omega . (dI_C/dt)(omega) and the balance residual of
    the step of ``dt`` under d from the state read as ``before`` at t to the
    one read as ``after``, with J_s / 2 half the symmetric part of the body
    moment matrix; a name ending in 1 is read after the step.  Every screw is
    paired, and the balance law formed, about the center c, so no value here
    reads c itself.  Half a finite sum cannot leave the float range: it goes
    unchecked."""
    fx, fy, fz, _, _, _ = d
    state, wx, wy, wz, vx, vy, vz, ax, ay, az, hx, hy, hz = before
    state1, wx1, wy1, wz1, _, _, _, _, _, _, hx1, hy1, hz1 = after
    r0, _, _, _, px, py, pz, lx, ly, lz = state
    r1, _, _, _, px1, py1, pz1, lx1, ly1, lz1 = state1
    # Symmetric estimate of omega . (dI_C/dt) (omega) across the step at the
    # mean spin; the lemma makes the exact value zero, so this should vanish
    # at O(dt^2).
    omega_idot = _omega_idot(r0, r1, (wx + wx1) * 0.5, (wy + wy1) * 0.5, (wz + wz1) * 0.5, jh, dt)

    # Residual of the body-relative balance law d + [k, l] against a forward
    # difference of the momentum field taken at body-dragged poles (the
    # center and the marker), O(dt) along an exact trajectory.  About c,
    # [k, l] has the resultant n = -(omega x p), which is also the negated
    # omega x p the linear residual subtracts, and the moment -(omega x L):
    # its p x p / M is zero.  g = omega x L is also omega x h at the center.
    nx = -(wy * pz - wz * py)
    ny = -(wz * px - wx * pz)
    nz = -(wx * py - wy * px)
    gx = wy * lz - wz * ly
    gy = wz * lx - wx * lz
    gz = wx * ly - wy * lx
    rrx = fx + nx
    rry = fy + ny
    rrz = fz + nz
    rox = ax - gx
    roy = ay - gy
    roz = az - gz
    # (p1 - p0) / dt minus omega x p, which is n to the bit, minus r
    ex = ((px1 - px) / dt + nx) - rrx
    ey = ((py1 - py) / dt + ny) - rry
    ez = ((pz1 - pz) / dt + nz) - rrz
    if not isfinite(rox + roy + roz + ex + ey + ez):
        _refuse("d + [k, l] or the linear balance residual", rox, roy, roz, ex, ey, ez)
    residual = _norm(ex, ey, ez)
    # (h1 - h) / dt - omega x h - (d + [k, l])(a) at each pole a, with the
    # field value h there before the step and h1 after it: at c, h is L.
    ex = (lx1 - lx) / dt - gx - rox
    ey = (ly1 - ly) / dt - gy - roy
    ez = (lz1 - lz) / dt - gz - roz
    if not isfinite(ex + ey + ez):
        _refuse("balance residual at the center", ex, ey, ez)
    residual = max(residual, _norm(ex, ey, ez))
    # At the marker c + b, (d + [k, l])(c) moves by r x b.
    bx = r0[0]
    by = r0[3]
    bz = r0[6]
    ex = (hx1 - hx) / dt - (wy * hz - wz * hy) - (rox + (rry * bz - rrz * by))
    ey = (hy1 - hy) / dt - (wz * hx - wx * hz) - (roy + (rrz * bx - rrx * bz))
    ez = (hz1 - hz) / dt - (wx * hy - wy * hx) - (roz + (rrx * by - rry * bx))
    if not isfinite(ex + ey + ez):
        _refuse("balance residual at the marker", ex, ey, ez)
    residual = max(residual, _norm(ex, ey, ez))
    # T = <k, l> / 2 and P = <k, d>, as klein_product pairs them, at c, where
    # k is (omega, v), l is (p, L) and d is (f, d(c)).
    return (
        t,
        0.5 * ((wx * lx + wy * ly + wz * lz) + (px * vx + py * vy + pz * vz)),
        (wx * ax + wy * ay + wz * az) + (fx * vx + fy * vy + fz * vz),
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
