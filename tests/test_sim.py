"""Integrator checks: exact conservation where the scheme guarantees it,
measured convergence order where it does not."""

import logging
import math
import sys
from typing import NamedTuple

import pytest
from hypothesis import given
from hypothesis import strategies as st

import test_trajectory_bits
from conftest import assert_screw_close, assert_vec_close
from screwalg import (
    INTEGRATORS,
    ORIGIN,
    BodyState,
    InertiaOperator,
    MassDistribution,
    Mat3,
    MomentumScrew,
    NonFiniteError,
    Particle,
    Point,
    SimConfig,
    SingularInertiaError,
    StepDiagnostics,
    Twist,
    Vec3,
    Wrench,
    inertia_of,
    kinetic_energy,
    momentum_from_twist,
    moving_frame_derivative,
    power,
    rodrigues,
    run,
    sim,
    state_kinetic_energy,
    state_momentum,
    state_twist,
    step,
    world_inertia_matrix,
)


def _lumpy_body() -> InertiaOperator:
    parts = (
        Particle(1.0, Point(1.0, 0.0, 0.0)),
        Particle(1.0, Point(-1.0, 0.0, 0.0)),
        Particle(2.0, Point(0.0, 1.5, 0.0)),
        Particle(1.5, Point(0.0, -0.5, 1.0)),
    )
    return inertia_of(MassDistribution(parts))


def _principal_body() -> InertiaOperator:
    return InertiaOperator(
        1.0, ORIGIN, Mat3(1.0, 0.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0, 3.0)
    )


def _state(
    body: InertiaOperator,
    omega: Vec3 = Vec3.zero(),
    linear_momentum: Vec3 = Vec3.zero(),
    center: Point = ORIGIN,
) -> BodyState:
    # identity orientation, so body axes are world axes and L_C = I_b(omega)
    return BodyState(
        orientation=Mat3.identity(),
        center=center,
        linear_momentum=linear_momentum,
        angular_momentum_at_c=body.moment_matrix.matvec(omega),
        body=body,
    )


def test_rest_state_stays_at_rest():
    s0 = _state(_lumpy_body(), center=Point(0.3, -0.2, 0.9))
    s1 = step(s0, None, 0.01)
    assert s1 == s0


def test_linear_momentum_accumulates_exactly():
    wrench = Wrench.from_force(ORIGIN, Vec3(2.0, 0.0, -4.0))
    s = _state(_lumpy_body())
    dt, n = 0.125, 10
    for _ in range(n):
        s = step(s, wrench, dt)
    # each increment F * dt is exact in binary, and the running sum stays exact
    assert s.linear_momentum == Vec3(2.0 * dt * n, 0.0, -4.0 * dt * n)


def test_runs_are_bitwise_deterministic():
    body = _lumpy_body()
    s0 = _state(body, omega=Vec3(0.3, -1.1, 0.7), linear_momentum=Vec3(1.0, 0.0, 0.5))
    wrench = Wrench.from_motor(Point(0.2, 0.0, 0.0), Vec3(0.1, 0.0, 0.0), Vec3(0.0, 0.2, 0.0))
    cfg = SimConfig(dt=1e-3, steps=200, wrench=wrench)
    t1 = run(cfg, s0)
    t2 = run(cfg, s0)
    assert t1 == t2


def test_trajectory_shapes_and_counters():
    cfg = SimConfig(dt=1e-3, steps=17)
    traj = run(cfg, _state(_lumpy_body(), omega=Vec3(0.5, 0.2, -0.3)))
    assert len(traj.states) == 18
    assert len(traj.diagnostics) == 17
    assert traj.renormalizations == 0
    times = [d.time for d in traj.diagnostics]
    assert times[0] == 0.0
    assert abs(times[-1] - 16e-3) <= 1e-15


def test_unforced_run_conserves_momenta():
    body = _lumpy_body()
    s0 = _state(
        body,
        omega=Vec3(0.8, -0.4, 1.2),
        linear_momentum=Vec3(2.0, 1.0, -0.5),
        center=Point(0.0, 1.0, 0.0),
    )
    traj = run(SimConfig(dt=1e-4, steps=1000), s0)
    sN = traj.states[-1]
    assert sN.linear_momentum == s0.linear_momentum
    assert sN.angular_momentum_at_c == s0.angular_momentum_at_c
    # angular momentum about the fixed origin: only float noise from the
    # drifting center enters, P x v being zero only up to rounding
    l0 = state_momentum(s0).angular_momentum_at(ORIGIN)
    lN = state_momentum(sN).angular_momentum_at(ORIGIN)
    assert (lN - l0).norm() <= 1e-8 * max(1.0, l0.norm())


def test_config_and_step_validation():
    with pytest.raises(ValueError):
        SimConfig(dt=0.0, steps=1)
    with pytest.raises(ValueError):
        SimConfig(dt=-1e-3, steps=1)
    with pytest.raises(ValueError):
        SimConfig(dt=1e-3, steps=0)
    with pytest.raises(ValueError):
        SimConfig(dt=1e-3, steps=10, integrator="rk4")
    s0 = _state(_lumpy_body())
    with pytest.raises(ValueError):
        step(s0, None, 0.0)
    with pytest.raises(ValueError):
        step(s0, None, 1e-3, integrator="verlet")


def test_flat_body_cannot_spin_up():
    """Collinear masses have a singular moment matrix: the angular velocity
    needed by the integrator does not exist."""
    rod = inertia_of(
        MassDistribution(
            (
                Particle(1.0, Point(1.0, 0.0, 0.0)),
                Particle(1.0, Point(-1.0, 0.0, 0.0)),
            )
        )
    )
    s0 = BodyState(
        orientation=Mat3.identity(),
        center=ORIGIN,
        linear_momentum=Vec3.zero(),
        angular_momentum_at_c=Vec3(0.0, 0.0, 1.0),
        body=rod,
    )
    with pytest.raises(SingularInertiaError):
        step(s0, None, 1e-3)


def test_state_twist_and_momentum_are_mutually_consistent():
    body = _lumpy_body()
    s = _state(
        body,
        omega=Vec3(0.4, 0.9, -0.6),
        linear_momentum=Vec3(1.0, -2.0, 0.3),
        center=Point(0.5, 0.0, -0.25),
    )
    world_op = InertiaOperator(body.total_mass, s.center, world_inertia_matrix(s))
    rebuilt = momentum_from_twist(world_op, state_twist(s))
    assert_screw_close(rebuilt.screw, state_momentum(s).screw, tol=1e-12)


def test_energy_rate_matches_power():
    body = _lumpy_body()
    wrench = Wrench.from_motor(ORIGIN, Vec3(0.5, -0.2, 0.1), Vec3(0.3, 0.4, -0.6))
    s0 = _state(body, omega=Vec3(0.6, -0.3, 0.8), linear_momentum=Vec3(0.5, 0.5, 0.0))
    dt = 1e-5
    traj = run(SimConfig(dt=dt, steps=2, wrench=wrench), s0)
    fd = (
        state_kinetic_energy(traj.states[1]) - state_kinetic_energy(traj.states[0])
    ) / dt
    claimed = traj.diagnostics[0].power
    assert abs(fd - claimed) <= 1e-3 * max(1.0, abs(claimed))


def _energy_drift(integrator: str, dt: float, steps: int) -> float:
    s0 = _state(_principal_body(), omega=Vec3(1.0, 1.0, 1.0).normalized())
    traj = run(SimConfig(dt=dt, steps=steps, integrator=integrator), s0)
    t0 = state_kinetic_energy(traj.states[0])
    tn = state_kinetic_energy(traj.states[-1])
    return abs(tn - t0)


def test_euler_energy_drift_is_first_order():
    coarse = _energy_drift("euler", 2e-3, 250)
    fine = _energy_drift("euler", 1e-3, 500)
    assert coarse / fine == pytest.approx(2.0, rel=0.5)


def test_midpoint_energy_drift_is_second_order():
    coarse = _energy_drift("midpoint", 2e-3, 250)
    fine = _energy_drift("midpoint", 1e-3, 500)
    assert coarse / fine == pytest.approx(4.0, rel=0.5)


def test_midpoint_beats_euler():
    assert _energy_drift("midpoint", 1e-3, 500) < _energy_drift("euler", 1e-3, 500) / 10.0


def test_default_integrator_is_midpoint():
    s0 = _state(_lumpy_body(), omega=Vec3(0.3, 0.1, -0.2))
    assert step(s0, None, 1e-3) == step(s0, None, 1e-3, integrator="midpoint")


def test_diagnostics_track_a_torque_free_tumble():
    traj = run(
        SimConfig(dt=1e-3, steps=100),
        _state(_principal_body(), omega=Vec3(0.7, 0.5, -0.4)),
    )
    for d in traj.diagnostics:
        assert d.power == 0.0
        assert abs(d.omega_idot_omega) <= 1e-4
        assert 0.0 <= d.balance_residual <= 1.0


# -- the Vec3 form of the step kernel -----------------------------------------
#
# sim._stream advances the state and computes each step's diagnostics on
# float locals.  The functions below are the same step and diagnostics
# composed from Vec3, Point and Mat3 operations, each value built through its
# checking constructor: the kernel must equal them to the bit, and refuse
# what they refuse with the same message.


def _vec3_angular_velocity(state: BodyState, inv_moment: Mat3) -> Vec3:
    r = state.orientation
    body_l = r.transpose_matvec(state.angular_momentum_at_c)
    return r.matvec(inv_moment.matvec(body_l))


def _vec3_twist(state: BodyState, omega: Vec3) -> Twist:
    return Twist.from_motor(state.center, omega, state.linear_momentum / state.body.total_mass)


class _Vec3Screws(NamedTuple):
    """What the step leaving a state and the diagnostics on both sides of it
    read of the state: its twist, momentum screw and world inertia, its two
    poles (the center and the body-fixed marker center + R (1, 0, 0)) and the
    momentum field at each."""

    twist: Twist
    momentum: MomentumScrew
    inertia: Mat3
    poles: tuple[Point, Point]
    fields: tuple[Vec3, Vec3]


def _vec3_screws(state: BodyState, inv_moment: Mat3) -> _Vec3Screws:
    twist = _vec3_twist(state, _vec3_angular_velocity(state, inv_moment))
    momentum = state_momentum(state)
    inertia = world_inertia_matrix(state)
    center = state.center
    marker = center + state.orientation.matvec(Vec3(1.0, 0.0, 0.0))
    fields = (momentum.angular_momentum_at(center), momentum.angular_momentum_at(marker))
    return _Vec3Screws(twist, momentum, inertia, (center, marker), fields)


def _vec3_rotate(orientation: Mat3, omega: Vec3, dt: float) -> Mat3:
    speed = omega.norm()
    if speed == 0.0:
        return orientation
    return rodrigues(omega / speed, speed * dt).matmul(orientation)


def _vec3_advance(
    state: BodyState, rates: BodyState, omega: Vec3, wrench: Wrench, dt: float
) -> BodyState:
    """``state`` advanced by ``dt`` at the angular velocity ``omega`` and at
    the rates read from ``rates`` (``state`` itself, or the midpoint's half
    state): the center velocity p / M and the wrench's moment about the
    center."""
    moment_at_c = wrench.moment_at(rates.center)
    v = rates.linear_momentum / rates.body.total_mass
    return BodyState(
        orientation=_vec3_rotate(state.orientation, omega, dt),
        center=state.center + v * dt,
        linear_momentum=state.linear_momentum + wrench.force * dt,
        angular_momentum_at_c=state.angular_momentum_at_c + moment_at_c * dt,
        body=state.body,
    )


def _vec3_step_impl(
    state: BodyState, omega: Vec3, wrench: Wrench, dt: float, integrator: str, inv_moment: Mat3
) -> tuple[BodyState, bool]:
    if integrator == "euler":
        new = _vec3_advance(state, state, omega, wrench, dt)
    else:
        half = _vec3_advance(state, state, omega, wrench, dt / 2.0)
        new = _vec3_advance(state, half, _vec3_angular_velocity(half, inv_moment), wrench, dt)
    if new.orientation.orthonormality_defect() <= sim._ORTHO_DRIFT_TOL:
        return new, False
    projected = Mat3(*sim._renormalize(new.orientation.flat()))
    return BodyState(projected, new.center, new.linear_momentum,
                     new.angular_momentum_at_c, new.body), True


def _vec3_step(state: BodyState, wrench: Wrench | None, dt: float, integrator: str) -> BodyState:
    applied = wrench if wrench is not None else Wrench.zero()
    inv_moment = sim._inverse_moment(state.body)
    omega = _vec3_angular_velocity(state, inv_moment)
    return _vec3_step_impl(state, omega, applied, dt, integrator, inv_moment)[0]


def _vec3_diagnostics(
    s0: _Vec3Screws, s1: _Vec3Screws, t: float, dt: float, wrench: Wrench
) -> StepDiagnostics:
    k0, l0 = s0.twist, s0.momentum
    k1, l1 = s1.twist, s1.momentum
    omega_mid = 0.5 * (k0.angular_velocity + k1.angular_velocity)
    di = s1.inertia - s0.inertia
    omega_idot = omega_mid.dot(di.matvec(omega_mid)) / dt
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


def _vec3_stream(config: SimConfig, initial: BodyState):
    """``sim._stream`` in the Vec3 form: each new state, the diagnostics of
    the step that made it and whether that step projected the orientation
    back onto SO(3)."""
    wrench = config.wrench if config.wrench is not None else Wrench.zero()
    inv_moment = sim._inverse_moment(initial.body)
    state, screws = initial, _vec3_screws(initial, inv_moment)
    for n in range(config.steps):
        new, renormed = _vec3_step_impl(
            state, screws.twist.angular_velocity, wrench, config.dt, config.integrator, inv_moment
        )
        new_screws = _vec3_screws(new, inv_moment)
        yield new, _vec3_diagnostics(screws, new_screws, n * config.dt, config.dt, wrench), renormed
        state, screws = new, new_screws


# -- run against the Vec3 form ------------------------------------------------
#
# The reference below recomputes every diagnostic from the state alone, and
# the Vec3 form of the step is applied once per state, so any value the kernel
# carries over wrongly from one step to the next (or takes before the SO(3)
# projection) shows up as a bit difference.


def _exact(x) -> str:
    # repr of a float round-trips its bits, signed zeros included
    return repr(x)


def _reference_diagnostics(before, after, t, dt, wrench) -> StepDiagnostics:
    inv_moment = sim._inverse_moment(before.body)
    k0 = _vec3_twist(before, _vec3_angular_velocity(before, inv_moment))
    k1 = _vec3_twist(after, _vec3_angular_velocity(after, inv_moment))
    l0, l1 = state_momentum(before), state_momentum(after)
    omega_mid = 0.5 * (k0.angular_velocity + k1.angular_velocity)
    di = world_inertia_matrix(after) - world_inertia_matrix(before)
    omega_idot = omega_mid.dot(di.matvec(omega_mid)) / dt
    rhs = moving_frame_derivative(l0, k0, wrench)
    omega0 = k0.angular_velocity
    res_lin = (
        (after.linear_momentum - before.linear_momentum) / dt
        - omega0.cross(before.linear_momentum)
        - rhs.resultant
    )
    residual = res_lin.norm()
    marker = Vec3(1.0, 0.0, 0.0)
    marker0 = before.center + before.orientation.matvec(marker)
    marker1 = after.center + after.orientation.matvec(marker)
    for p0, p1 in ((before.center, after.center), (marker0, marker1)):
        fd = (l1.angular_momentum_at(p1) - l0.angular_momentum_at(p0)) / dt
        res = fd - omega0.cross(l0.angular_momentum_at(p0)) - rhs.value_at(p0)
        residual = max(residual, res.norm())
    return StepDiagnostics(
        time=t,
        kinetic_energy=kinetic_energy(k0, l0),
        power=power(k0, wrench),
        omega_idot_omega=omega_idot,
        balance_residual=residual,
    )


def _assert_run_matches_reference(cfg: SimConfig, s0: BodyState) -> None:
    traj = run(cfg, s0)
    wrench = cfg.wrench if cfg.wrench is not None else Wrench.zero()
    assert len(traj.states) == cfg.steps + 1
    assert _exact(traj.states[0]) == _exact(s0)
    s = s0
    for n in range(cfg.steps):
        nxt = _vec3_step(s, cfg.wrench, cfg.dt, cfg.integrator)
        assert _exact(traj.states[n + 1]) == _exact(nxt), f"state {n + 1}"
        want = _reference_diagnostics(s, nxt, n * cfg.dt, cfg.dt, wrench)
        assert _exact(traj.diagnostics[n]) == _exact(want), f"diagnostics {n}"
        s = nxt


_FORCING = Wrench.from_motor(Point(0.2, -0.1, 0.4), Vec3(0.5, -1.0, 2.0), Vec3(0.1, 0.3, -0.2))


@pytest.mark.parametrize("integrator", ["midpoint", "euler"])
@pytest.mark.parametrize("wrench", [None, _FORCING], ids=["unforced", "forced"])
def test_run_equals_repeated_step_and_reference_diagnostics(integrator, wrench):
    s0 = _state(
        _lumpy_body(),
        omega=Vec3(0.9, -1.3, 0.6),
        linear_momentum=Vec3(0.7, -0.2, 1.1),
        center=Point(0.3, -0.5, 0.8),
    )
    cfg = SimConfig(dt=1e-2, steps=60, integrator=integrator, wrench=wrench)
    _assert_run_matches_reference(cfg, s0)


@pytest.mark.parametrize("integrator", ["midpoint", "euler"])
def test_renormalization_keeps_run_equal_to_the_reference(integrator, caplog):
    """An orientation slightly off SO(3) is projected back after the first
    step; the projected state is what the next step and the diagnostics see."""
    body = _lumpy_body()
    omega = Vec3(0.4, 1.1, -0.7)
    s0 = BodyState(
        orientation=Mat3.identity() * (1.0 + 1e-7),
        center=Point(0.1, 0.2, 0.3),
        linear_momentum=Vec3(0.5, 0.0, -0.25),
        angular_momentum_at_c=body.moment_matrix.matvec(omega),
        body=body,
    )
    cfg = SimConfig(dt=1e-2, steps=20, integrator=integrator, wrench=_FORCING)
    with caplog.at_level(logging.WARNING, logger="screwalg.sim"):
        traj = run(cfg, s0)
    assert traj.renormalizations >= 1
    messages = [r.getMessage() for r in caplog.records]
    assert len(messages) == traj.renormalizations
    assert messages[0] == "step 0: orientation drifted off SO(3); applying polar projection"
    assert traj.states[1].orientation.orthonormality_defect() <= 1e-12
    _assert_run_matches_reference(cfg, s0)


def _trajectory_bits_scenes() -> list[tuple[SimConfig, BodyState]]:
    """The (config, initial state) of each run pinned in
    test_trajectory_bits, taken from its scene functions."""
    scenes = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(test_trajectory_bits, "run", lambda config, s0: scenes.append((config, s0)))
        test_trajectory_bits._tumble()
        test_trajectory_bits._forced_euler()
    return scenes


def _values_built(config: SimConfig, s0: BodyState) -> int:
    """Vec3, Point and Mat3 constructions in run(config, s0), counted on the
    constructors' code objects."""
    codes = {cls.__init__.__code__ for cls in (Vec3, Point, Mat3)}
    count = 0

    def hook(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code in codes:
            count += 1

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        run(config, s0)
    finally:
        sys.setprofile(previous)
    return count


# Upper bound on the values one run step builds: the step and its diagnostics
# run on floats, and only the yielded state builds values, its orientation,
# center and two momenta.  Composed from Vec3 and Mat3 operations the steps
# took 96 and 79 values, with the fused forms 67 and 53, and with each
# state's screws built once 63 and 49.
@pytest.mark.parametrize("scene, most", [(0, 4), (1, 4)], ids=["midpoint-tumble", "forced-euler"])
def test_values_built_per_run_step(scene, most):
    """Counted as the difference between runs of 2n and n steps, so the
    initial state's screws and the forced run's first step (from rest, with
    a projection back onto SO(3)) are left out; a first run caches the
    body's inverse inertia for both."""
    config, s0 = _trajectory_bits_scenes()[scene]
    n = 40
    counts = [
        _values_built(SimConfig(config.dt, steps, config.integrator, config.wrench), s0)
        for steps in (n, n, 2 * n)
    ]
    assert (counts[2] - counts[1]) / n <= most


# -- the kernel against its Vec3 form, bit for bit ----------------------------


def _outcome(items) -> list:
    """The float.hex of every field of every item of a stream, ending with
    the type and message of the error that stopped it, if any."""
    out = []
    try:
        for state, diagnostics, renormed in items:
            fields = (*state.orientation.flat(), *state.center.components(),
                      *state.linear_momentum.components(),
                      *state.angular_momentum_at_c.components(), *diagnostics._fields)
            out.append((tuple(float.hex(x) for x in fields), renormed))
    except (NonFiniteError, SingularInertiaError) as err:
        out.append((type(err), str(err)))
    return out


_unit = st.floats(min_value=-1.0, max_value=1.0)
_axes = st.tuples(_unit, _unit, _unit).filter(lambda a: sum(x * x for x in a) > 1e-2)


@st.composite
def _scenes(draw, forced: bool, exponents=st.floats(-6.0, 6.0), independent: bool = False):
    """(dt, steps, wrench, initial state) of a short run: a rotated,
    non-diagonal inertia, a rotated orientation, slightly off SO(3) in some
    draws, and a drawn wrench when forced.  Each quantity is drawn at the
    scale of its units in 10**a m and 10**b kg, or, when ``independent``, at
    a scale 10**e of its own."""
    length, mass = 10.0 ** draw(exponents), 10.0 ** draw(exponents)

    def scale(kg: int, m: int) -> float:
        return 10.0 ** draw(exponents) if independent else mass**kg * length**m

    def vec(kg: int, m: int) -> Vec3:
        k = scale(kg, m)
        return Vec3(*(k * draw(_unit) for _ in range(3)))

    def rotation() -> Mat3:
        return rodrigues(Vec3(*draw(_axes)).normalized(), draw(st.floats(-3.0, 3.0)))

    q = rotation()
    k = scale(1, 2)
    diag = Mat3(*(draw(st.floats(0.5, 3.0)) * k if i % 4 == 0 else 0.0 for i in range(9)))
    body = InertiaOperator(draw(st.floats(0.5, 3.0)) * scale(1, 0), ORIGIN,
                           q.matmul(diag).matmul_transpose(q))
    orientation = rotation()
    if draw(st.booleans()):
        orientation = orientation * (1.0 + 1e-7)
    state = BodyState(
        orientation=orientation,
        center=Point(*vec(0, 1).components()),
        linear_momentum=vec(1, 1),
        angular_momentum_at_c=vec(1, 2),
        body=body,
    )
    wrench = None
    if forced:
        wrench = Wrench.from_motor(Point(*vec(0, 1).components()), vec(1, 1), vec(1, 2))
    dt = draw(st.floats(1e-3, 0.2)) * (scale(0, 0) if independent else 1.0)
    return dt, draw(st.integers(1, 4)), wrench, state


@pytest.mark.parametrize("integrator", INTEGRATORS)
@pytest.mark.parametrize("forced", [False, True], ids=["unforced", "forced"])
@given(data=st.data())
def test_kernel_equals_the_vec3_form_to_the_bit(integrator, forced, data):
    dt, steps, wrench, s0 = data.draw(_scenes(forced))
    config = SimConfig(dt, steps, integrator, wrench)
    want = _outcome(_vec3_stream(config, s0))
    assert _outcome(sim._stream(config, s0)) == want
    assert _exact(step(s0, wrench, dt, integrator)) == _exact(_vec3_step(s0, wrench, dt, integrator))
    inv_moment = sim._inverse_moment(s0.body)
    assert _exact(state_twist(s0)) == _exact(_vec3_twist(s0, _vec3_angular_velocity(s0, inv_moment)))


@pytest.mark.parametrize("integrator", INTEGRATORS)
@given(data=st.data())
def test_kernel_refuses_what_the_vec3_form_refuses(integrator, data):
    """With each quantity at its own scale from 1e-150 to 1e150, some product
    or quotient of most runs leaves the float range: the kernel raises where
    the Vec3 form does, with its message, or both run to the same bits."""
    scene = _scenes(data.draw(st.booleans()), st.floats(-150.0, 150.0), independent=True)
    dt, steps, wrench, s0 = data.draw(scene)
    config = SimConfig(dt, steps, integrator, wrench)
    assert _outcome(sim._stream(config, s0)) == _outcome(_vec3_stream(config, s0))


@pytest.mark.parametrize("integrator", INTEGRATORS)
@pytest.mark.parametrize("spin, dt, got", [
    (1e120, 1e-3, "(-inf, 0.0, 0.0)"),
    (1e109, 1e-110, "(-inf, 0.0, 4.995834721974223e+307)"),
], ids=["cross", "quotient"])
def test_a_non_finite_marker_residual_is_refused(integrator, spin, dt, got):
    """A spin about y carrying 1e200 kg m/s along y: omega is parallel to p,
    so [k, l] is zero and the linear and center residuals vanish, while at
    the marker omega0 x h0 overflows to -inf in x.  With the smaller spin
    and step, (h1 - h0) / dt overflows to -inf in x first; unchecked, the
    residual's x would be -inf - (-inf) = nan, its norm nan, and
    max(0.0, nan) is 0.0."""
    body = InertiaOperator(1.0, ORIGIN, Mat3(1.0, 0.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0, 3.0))
    s0 = BodyState(Mat3.identity(), ORIGIN, Vec3(0.0, 1e200, 0.0), Vec3(0.0, 2.0 * spin, 0.0), body)
    message = f"Vec3 components must be finite, got {got}"
    with pytest.raises(NonFiniteError) as raised:
        run(SimConfig(dt, 1, integrator), s0)
    assert str(raised.value) == message
    with pytest.raises(NonFiniteError) as raised:
        step(s0, None, dt, integrator)
    assert str(raised.value) == message


@pytest.mark.parametrize("integrator", INTEGRATORS)
def test_a_rotation_angle_beyond_the_float_range_is_refused(integrator):
    """|omega| dt = 1e300 * 1e10 overflows; sin(inf) would raise ValueError."""
    body = InertiaOperator(1.0, ORIGIN, Mat3(1.0, 0.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0, 3.0))
    s0 = BodyState(Mat3.identity(), ORIGIN, Vec3.zero(), Vec3(0.0, 2e300, 0.0), body)
    with pytest.raises(NonFiniteError, match="rotation angle must be finite, got inf"):
        step(s0, None, 1e10, integrator)
