"""Integrator checks: exact conservation where the scheme guarantees it,
measured convergence order where it does not."""

import json
import logging
import math
import sys
from typing import NamedTuple

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import test_trajectory_bits
from conftest import (
    assert_screw_close,
    assert_vec_close,
    bit_examples,
    bit_outcome,
    cli_status,
    edge_mat3s,
    refusal,
    values_built,
)
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
    Screw,
    ScrewAlgError,
    SimConfig,
    SingularInertiaError,
    StepDiagnostics,
    Twist,
    Vec3,
    Wrench,
    inertia_of,
    momentum_from_twist,
    momentum_screw,
    parse_scene,
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


def _vec3_product(a: Mat3, b: Mat3) -> Mat3:
    """A B entry by entry, row i of A dotted with column k of B and summed
    left to right, built through the checking ``Mat3`` constructor: written
    here, so that the oracle shares no code with ``vecmath._matmul``."""
    a, b = a.flat(), b.flat()
    return Mat3(*(
        a[3 * i] * b[k] + a[3 * i + 1] * b[3 + k] + a[3 * i + 2] * b[6 + k]
        for i in range(3)
        for k in range(3)
    ))


def _vec3_world_inertia(state: BodyState) -> Mat3:
    """R J R^T as the oracle's own two products, each checked as the Mat3 it
    forms."""
    r = state.orientation
    return _vec3_product(_vec3_product(r, state.body.moment_matrix), r.transpose())


@bit_examples
@given(edge_mat3s, edge_mat3s)
def test_world_inertia_matrix_is_the_composed_product_bit_for_bit(r, j):
    # R J R^T through Mat3.matmul, against the oracle's own products: both
    # refuse R J or R J R^T.
    s = BodyState(r, ORIGIN, Vec3.zero(), Vec3.zero(), InertiaOperator(1.0, ORIGIN, j))

    def composed():
        return _vec3_world_inertia(s)

    assert bit_outcome(world_inertia_matrix, s) == bit_outcome(composed)


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
# what they refuse with the same exception class.


def _vec3_angular_velocity(state: BodyState, inv_moment: Mat3) -> Vec3:
    r = state.orientation
    body_l = r.transpose().matvec(state.angular_momentum_at_c)
    return r.matvec(inv_moment.matvec(body_l))


def _vec3_twist(state: BodyState, omega: Vec3) -> Twist:
    return Twist.from_motor(state.center, omega, state.linear_momentum / state.body.total_mass)


class _Vec3Read(NamedTuple):
    """What the step leaving a state and the diagnostics on both sides of it
    read of the state, about its center: the angular velocity, the velocity
    p / M of the center, the wrench's moment about the center, and the
    momentum field at the body-fixed marker c + b, L + p x b, where the body
    offset b = R (1, 0, 0) is R's first column."""

    state: BodyState
    omega: Vec3
    velocity: Vec3
    moment: Vec3
    marker_field: Vec3


def _vec3_half_symmetric_part(moments: Mat3) -> Mat3:
    """J_s / 2 = (J + J^T) / 4, summed from quarters."""
    return moments * 0.25 + moments.transpose() * 0.25


def _vec3_omega_idot(r0: Mat3, r1: Mat3, omega_mid: Vec3, jh: Mat3, dt: float) -> float:
    """omega . (dI/dt) omega across a step from R0 to R1 at the mean spin m,
    in body axes: 2 ((R1 - R0)^T m . (J_s / 2) (R0^T m + R1^T m) / dt)."""
    change = (r1 - r0).transpose().matvec(omega_mid)
    total = r0.transpose().matvec(omega_mid) + r1.transpose().matvec(omega_mid)
    return 2.0 * (change.dot(jh.matvec(total)) / dt)


def _marker_offset(state: BodyState) -> Vec3:
    """b = R (1, 0, 0), the marker's offset from the center: R's first column."""
    return Vec3(*state.orientation.flat()[0::3])


def _vec3_rates(state: BodyState, wrench: Wrench) -> tuple[Vec3, Vec3]:
    """The velocity p / M of the center and the wrench's moment about it."""
    return state.linear_momentum / state.body.total_mass, wrench.moment_at(state.center)


def _vec3_read(state: BodyState, inv_moment: Mat3, wrench: Wrench) -> _Vec3Read:
    omega = _vec3_angular_velocity(state, inv_moment)
    velocity, moment = _vec3_rates(state, wrench)
    field = state.angular_momentum_at_c + state.linear_momentum.cross(_marker_offset(state))
    return _Vec3Read(state, omega, velocity, moment, field)


def _vec3_rotate(orientation: Mat3, omega: Vec3, dt: float) -> Mat3:
    speed = omega.norm()
    if speed == 0.0:
        return orientation
    return rodrigues(omega / speed, speed * dt).matmul(orientation)


def _vec3_advance(
    state: BodyState, rates: tuple[Vec3, Vec3], omega: Vec3, wrench: Wrench, dt: float
) -> BodyState:
    """``state`` advanced by ``dt`` at the angular velocity ``omega`` and at
    the ``rates`` read from ``state`` itself, or from the midpoint's half
    state: the center velocity p / M and the wrench's moment about the
    center."""
    velocity, moment_at_c = rates
    return BodyState(
        orientation=_vec3_rotate(state.orientation, omega, dt),
        center=state.center + velocity * dt,
        linear_momentum=state.linear_momentum + wrench.force * dt,
        angular_momentum_at_c=state.angular_momentum_at_c + moment_at_c * dt,
        body=state.body,
    )


def _vec3_step_impl(
    read: _Vec3Read, wrench: Wrench, dt: float, integrator: str, inv_moment: Mat3
) -> tuple[BodyState, bool]:
    state, rates = read.state, (read.velocity, read.moment)
    if integrator == "euler":
        new = _vec3_advance(state, rates, read.omega, wrench, dt)
    else:
        half = _vec3_advance(state, rates, read.omega, wrench, dt / 2.0)
        omega = _vec3_angular_velocity(half, inv_moment)
        new = _vec3_advance(state, _vec3_rates(half, wrench), omega, wrench, dt)
    if new.orientation.orthonormality_defect() <= sim._ORTHO_DRIFT_TOL:
        return new, False
    projected = Mat3(*sim._renormalize(new.orientation.flat()))
    return BodyState(projected, new.center, new.linear_momentum,
                     new.angular_momentum_at_c, new.body), True


def _vec3_step(state: BodyState, wrench: Wrench | None, dt: float, integrator: str) -> BodyState:
    applied = wrench if wrench is not None else Wrench.zero()
    inv_moment = sim._inverse_moment(state.body)
    return _vec3_step_impl(_vec3_read(state, inv_moment, applied), applied, dt, integrator, inv_moment)[0]


def _vec3_diagnostics(
    s0: _Vec3Read, s1: _Vec3Read, t: float, dt: float, wrench: Wrench, jh: Mat3
) -> StepDiagnostics:
    """The step's diagnostics about the center c: T = (omega . L + p . v) / 2,
    P = omega . d(c) + f . v, and the balance residual against d + [k, l],
    whose bracket has the resultant -(omega x p) and the moment -(omega x L)
    about c (its p x p / M is zero)."""
    before, after = s0.state, s1.state
    omega, p0, l0 = s0.omega, before.linear_momentum, before.angular_momentum_at_c
    omega_mid = 0.5 * (omega + s1.omega)
    omega_idot = _vec3_omega_idot(before.orientation, after.orientation, omega_mid, jh, dt)
    spin_p, spin_l = omega.cross(p0), omega.cross(l0)
    resultant = wrench.force - spin_p
    moment = s0.moment - spin_l
    res_lin = (after.linear_momentum - p0) / dt - spin_p - resultant
    res_center = (after.angular_momentum_at_c - l0) / dt - spin_l - moment
    h0, h1 = s0.marker_field, s1.marker_field
    res_marker = (h1 - h0) / dt - omega.cross(h0) - (moment + resultant.cross(_marker_offset(before)))
    return StepDiagnostics(
        time=t,
        kinetic_energy=0.5 * (omega.dot(l0) + p0.dot(s0.velocity)),
        power=omega.dot(s0.moment) + wrench.force.dot(s0.velocity),
        omega_idot_omega=omega_idot,
        balance_residual=max(res_lin.norm(), res_center.norm(), res_marker.norm()),
    )


def _vec3_stream(config: SimConfig, initial: BodyState):
    """``sim._stream`` in the Vec3 form: each new state, the diagnostics of
    the step that made it and whether that step projected the orientation
    back onto SO(3)."""
    wrench = config.wrench if config.wrench is not None else Wrench.zero()
    jh = _vec3_half_symmetric_part(initial.body.moment_matrix)
    inv_moment = sim._inverse_moment(initial.body)
    read = _vec3_read(initial, inv_moment, wrench)
    for n in range(config.steps):
        new, renormed = _vec3_step_impl(read, wrench, config.dt, config.integrator, inv_moment)
        new_read = _vec3_read(new, inv_moment, wrench)
        diagnostics = _vec3_diagnostics(read, new_read, n * config.dt, config.dt, wrench, jh)
        yield new, diagnostics, renormed
        read = new_read


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
    jh = _vec3_half_symmetric_part(before.body.moment_matrix)
    reads = (_vec3_read(state, inv_moment, wrench) for state in (before, after))
    return _vec3_diagnostics(*reads, t, dt, wrench, jh)


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


@pytest.mark.parametrize("integrator", INTEGRATORS)
def test_step_from_a_drifted_orientation_logs_the_projection_once(integrator, caplog):
    body = _lumpy_body()
    s0 = BodyState(
        orientation=Mat3.identity() * (1.0 + 1e-7),
        center=Point(0.1, 0.2, 0.3),
        linear_momentum=Vec3(0.5, 0.0, -0.25),
        angular_momentum_at_c=body.moment_matrix.matvec(Vec3(0.4, 1.1, -0.7)),
        body=body,
    )
    with caplog.at_level(logging.WARNING, logger="screwalg.sim"):
        new = step(s0, _FORCING, 1e-2, integrator)
    assert [(r.name, r.getMessage()) for r in caplog.records] == [
        ("screwalg.sim", "step 0: orientation drifted off SO(3); applying polar projection")
    ]
    assert new.orientation.orthonormality_defect() <= 1e-12


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
    """Vec3, Point and Mat3 constructions in run(config, s0)."""
    return values_built(run, config, s0)


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


def _finiteness_tests(config: SimConfig, s0: BodyState) -> int:
    """math.isfinite calls in the kernel's stream of config from s0, which
    builds no value (each value's constructor tests its components)."""
    count = 0

    def hook(frame, event, arg):
        nonlocal count
        if event == "c_call" and arg is math.isfinite:
            count += 1

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        for _ in sim._stream(config, s0):
            pass
    finally:
        sys.setprofile(previous)
    return count


# Upper bound on the finiteness tests one kernel step makes: the kernel tests
# each group of values once, at the group's end, and checks the group's
# values one by one only on refusal.  With one test per value the steps made
# 58 and 45, 18 and 13 with the world inertia's group and the SO(3) drift
# test and the rotated orientation's group on every step, and 14 and 10 with
# the twist and the momentum read at the origin.
@pytest.mark.parametrize("scene, most", [(0, 13), (1, 9)], ids=["midpoint-tumble", "forced-euler"])
def test_finiteness_tests_per_run_step(scene, most):
    """Counted as in test_values_built_per_run_step; the rotation angle
    (twice a midpoint step) counts too, and the drift test with the rotated
    orientation's group on the steps that test in full."""
    config, s0 = _trajectory_bits_scenes()[scene]
    n = 40
    counts = [
        _finiteness_tests(SimConfig(config.dt, steps, config.integrator, config.wrench), s0)
        for steps in (n, n, 2 * n)
    ]
    assert (counts[2] - counts[1]) / n <= most


# -- the kernel against its Vec3 form, bit for bit ----------------------------


def _floats(item) -> tuple:
    """A stream item, its state, diagnostics and projection flag, flattened:
    R as a 9-tuple, the components of c, p and L, the five diagnostics and
    the flag.  The kernel yields the state (R, c, p, L) and the diagnostics
    as floats, the Vec3 form a ``BodyState`` and a ``StepDiagnostics``."""
    state, diagnostics, renormed = item
    if isinstance(state, BodyState):
        state = (state.orientation.flat(), *state.center.components(),
                 *state.linear_momentum.components(), *state.angular_momentum_at_c.components())
        diagnostics = diagnostics._fields
    return (*state, *diagnostics, renormed)


def _outcome(items) -> list:
    """The float.hex of every float of every item of a stream, ending with
    the type of the error that stopped it, if any."""
    out = []
    try:
        for r, *fields, renormed in map(_floats, items):
            out.append((tuple(float.hex(x) for x in (*r, *fields)), renormed))
    except (NonFiniteError, SingularInertiaError) as err:
        out.append(type(err))
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
                           q.matmul(diag).matmul(q.transpose()))
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


# (dt, steps, wrench, state) with principal moments at the float maximum,
# read through an orientation 1e-7 off SO(3), which the drawn scenes almost
# never reach: J + J^T would overflow, but the half symmetric part J / 4 +
# J^T / 4 does not, and no value of the run leaves the float range.
_MOMENTS_AT_THE_FLOAT_MAXIMUM = (0.01, 1, None, BodyState(
    Mat3.identity() * (1.0 + 1e-7),
    ORIGIN,
    Vec3(0.0, 0.0, 0.0),
    Vec3(1.0, 0.0, 0.0),
    InertiaOperator(1.0, ORIGIN, Mat3(*(sys.float_info.max if i % 4 == 0 else 0.0 for i in range(9)))),
))


@pytest.mark.parametrize("integrator", INTEGRATORS)
@given(scene=st.booleans().flatmap(
    lambda forced: _scenes(forced, st.floats(-150.0, 150.0), independent=True)
))
@example(scene=_MOMENTS_AT_THE_FLOAT_MAXIMUM)
def test_kernel_refuses_what_the_vec3_form_refuses(integrator, scene):
    """With each quantity at its own scale from 1e-150 to 1e150, some product
    or quotient of most runs leaves the float range: the kernel raises where
    the Vec3 form does, with its exception class, or both run to the same
    bits."""
    dt, steps, wrench, s0 = scene
    config = SimConfig(dt, steps, integrator, wrench)
    assert _outcome(sim._stream(config, s0)) == _outcome(_vec3_stream(config, s0))


# A refusal in a step's loop names the step and its time n dt; one in the
# read of the initial state names no step.
STEP = "step 0 (t = 0): "


def _assert_refused(config: SimConfig, s0: BodyState, message: str) -> None:
    """The kernel and its Vec3 form both refuse the run, and the kernel's
    message is ``message``, which names the group of values refused."""
    assert _outcome(sim._stream(config, s0)) == _outcome(_vec3_stream(config, s0)) == [NonFiniteError]
    assert refusal(lambda: list(sim._stream(config, s0))) == message


def _scaled_triples(draw):
    """Three floats at a scale 10**e of their own, e from -150 to 150."""
    k = 10.0 ** draw(st.floats(-150.0, 150.0))
    return [k * draw(_unit) for _ in range(3)]


@st.composite
def _simulate_docs(draw):
    """A ``simulate`` scene of three or four particles, a drawn wrench or
    none, and a few steps, each quantity at a scale of its own."""
    masses = [
        {"m": 10.0 ** draw(st.floats(-150.0, 150.0)), "position": _scaled_triples(draw),
         "velocity": _scaled_triples(draw)}
        for _ in range(draw(st.integers(3, 4)))
    ]
    config = {"dt": 10.0 ** draw(st.floats(-150.0, 150.0)), "steps": draw(st.integers(1, 3)),
              "integrator": draw(st.sampled_from(INTEGRATORS))}
    if draw(st.booleans()):
        config["wrench"] = {"force": _scaled_triples(draw), "moment_at_origin": _scaled_triples(draw)}
    return {"version": 1, "masses": masses, "sim": config}


def _vec3_status(doc: dict) -> int:
    """The exit status that ``simulate`` of ``doc`` has when its body, its
    initial state and its steps are computed in the Vec3 form: 3 for a
    refusal or a non-finite diagnostic, else 0."""
    scene = parse_scene(json.dumps(doc))
    try:
        body = inertia_of(scene.masses)
        l0 = momentum_screw(scene.masses)
        s0 = BodyState(Mat3.identity(), body.center, l0.linear_momentum, l0.angular_momentum_at(body.center), body)
        for _, diagnostics, _ in _vec3_stream(scene.sim, s0):
            if not all(map(math.isfinite, diagnostics._fields)):
                return 3
    except ScrewAlgError:
        return 3
    return 0


@given(_simulate_docs())
def test_simulate_exits_as_the_vec3_form_refuses(doc):
    """Where a refusal reaches the command line: ``simulate`` exits 3 on
    the scenes whose Vec3 form refuses, and 0 on the others."""
    assert cli_status("simulate", doc) == _vec3_status(doc)


@pytest.mark.parametrize("integrator", INTEGRATORS)
@pytest.mark.parametrize("spin, dt", [(1e120, 1e-3), (1e109, 1e-110)], ids=["cross", "quotient"])
def test_a_non_finite_marker_residual_is_refused(integrator, spin, dt):
    """A spin about y carrying 1e200 kg m/s along y: omega is parallel to p,
    so [k, l] is zero and the linear and center residuals vanish, while at
    the marker omega0 x h0 overflows to -inf in x.  With the smaller spin
    and step, (h1 - h0) / dt overflows to -inf in x first; unchecked, the
    residual's x would be -inf - (-inf) = nan, its norm nan, and
    max(0.0, nan) is 0.0."""
    body = InertiaOperator(1.0, ORIGIN, Mat3(1.0, 0.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0, 3.0))
    s0 = BodyState(Mat3.identity(), ORIGIN, Vec3(0.0, 1e200, 0.0), Vec3(0.0, 2.0 * spin, 0.0), body)
    message = STEP + "balance residual at the marker is not finite"
    assert refusal(run, SimConfig(dt, 1, integrator), s0) == message
    assert refusal(step, s0, None, dt, integrator) == message


@pytest.mark.parametrize("integrator", INTEGRATORS)
def test_a_rotation_angle_beyond_the_float_range_is_refused(integrator):
    """|omega| dt = 1e300 * 1e10 overflows; sin(inf) would raise ValueError."""
    body = InertiaOperator(1.0, ORIGIN, Mat3(1.0, 0.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0, 3.0))
    s0 = BodyState(Mat3.identity(), ORIGIN, Vec3.zero(), Vec3(0.0, 2e300, 0.0), body)
    with pytest.raises(NonFiniteError, match="rotation angle must be finite, got inf"):
        step(s0, None, 1e10, integrator)


_DIAGONAL = InertiaOperator(1.0, ORIGIN, Mat3(1.0, 0.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0, 3.0))
_EIGHTH_TURN = Mat3(*rodrigues(Vec3(0.0, 0.0, 1.0), math.pi / 4.0).flat())


@pytest.mark.parametrize("integrator", INTEGRATORS)
@pytest.mark.parametrize("s0, wrench, got", [
    # p x b in the momentum field at the marker, L + p x b, with b = (1, 1,
    # 0) / sqrt(2) R's first column: p x b is 1.5e308 sqrt(2) in z, while L
    # is (1, 1, 1)
    (BodyState(_EIGHTH_TURN, ORIGIN, Vec3(1.5e308, -1.5e308, 0.0), Vec3(1.0, 1.0, 1.0), _DIAGONAL),
     None, "momentum field at the marker is not finite"),
    # f x c in the wrench's moment about the center, d(O) + f x c, with
    # d(O) = (1, 1, 1)
    (BodyState(Mat3.identity(), Point(0.0, 1e200, 0.0), Vec3.zero(), Vec3.zero(), _DIAGONAL),
     Wrench(Screw(Vec3(1e200, 0.0, 0.0), Vec3(1.0, 1.0, 1.0))),
     "moment about the center or velocity of the center is not finite"),
], ids=["marker", "moment"])
def test_an_overflowing_transport_is_refused_with_its_cross_product(integrator, s0, wrench, got):
    """A screw transport v + w x d whose cross product w x d overflows, and
    not the sum, refuses as its composed form does, naming its group.  The
    kernel reads every screw about the center, so the state's own read holds
    the kernel's only transports: to the marker and, for the wrench, to the
    center."""
    _assert_refused(SimConfig(1e-3, 1, integrator, wrench), s0, got)


def _body(mass: float, ixx: float, iyy: float, izz: float) -> InertiaOperator:
    """A body with its principal axes along x, y and z."""
    return InertiaOperator(mass, ORIGIN, Mat3(ixx, 0.0, 0.0, 0.0, iyy, 0.0, 0.0, 0.0, izz))


def _couple(force: tuple, moment_at_origin: tuple) -> Wrench:
    return Wrench(Screw(Vec3(*force), Vec3(*moment_at_origin)))


_MAX = 1.7976931348623157e308
_ULP = math.ulp(_MAX)


@pytest.mark.parametrize("integrator", INTEGRATORS)
@pytest.mark.parametrize("s0, dt, got", [
    # R^T L in omega = R I^-1 R^T L
    (BodyState(_EIGHTH_TURN, ORIGIN, Vec3.zero(), Vec3(1.5e308, 1.5e308, 0.0), _DIAGONAL),
     1e-3, "angular velocity is not finite"),
    # p / M, the velocity of the center, read with the moment d(c)
    (BodyState(Mat3.identity(), Point(1.0, 0.0, 0.0), Vec3(1e300, 0.0, 0.0), Vec3(0.0, 0.0, 3.0),
               _body(1e-10, 1.0, 2.0, 3.0)),
     1e-3, "moment about the center or velocity of the center is not finite"),
    # p x b in the momentum field at the marker, L + p x b, where the body
    # offset b = R (1, 0, 0) of an orientation 4 I is (4, 0, 0)
    (BodyState(Mat3.identity() * 4.0, ORIGIN, Vec3(0.0, 0.0, 1e308), Vec3.zero(), _DIAGONAL),
     1e-3, "momentum field at the marker is not finite"),
    # Q R, the rotated orientation: Q turns R's first column, of norm
    # 1.9e308, onto z
    (BodyState(Mat3(1.1e308, 1.0, 0.0, 1.1e308, 0.0, 1.0, 1.1e308, 0.0, 0.0), ORIGIN,
               Vec3.zero(), Vec3(1e-308, -1e-308, 0.0), _body(1.0, 1e-308, 1e-308, 1e-308)),
     0.6755, STEP + "rotated orientation is not finite"),
    # v h in the new center c + v h
    (BodyState(Mat3.identity(), Point(1.0, 0.0, 0.0), Vec3(1e300, 0.0, 0.0), Vec3(0.0, 0.0, 3.0),
               _DIAGONAL),
     1e10, STEP + "center or momentum after the advance is not finite"),
    # omega0 + omega1 in the mean spin (omega0 + omega1) / 2
    (BodyState(Mat3.identity(), ORIGIN, Vec3.zero(), Vec3(1e308, 0.0, 0.0), _DIAGONAL),
     1e-300, STEP + "inertia change times the mean angular velocity is not finite"),
    # omega x p in [k, l]'s resultant -(omega x p)
    (BodyState(Mat3.identity(), ORIGIN, Vec3(0.0, 1e200, 0.0), Vec3(1e200, 0.0, 0.0), _DIAGONAL),
     1e-300, STEP + "d + [k, l] or the linear balance residual is not finite"),
    # h1 - h0 at the marker, which a half turn carries across p
    (BodyState(Mat3.identity(), ORIGIN, Vec3(0.0, 1e308, 1.0), Vec3(0.0, 0.0, 3e-3 * math.pi),
               _body(1e20, 1.0, 2.0, 3.0)),
     1e3, STEP + "balance residual at the marker is not finite"),
], ids=["angular-velocity", "velocity", "marker", "rotation", "displacement",
        "mean-spin", "spin-cross-momentum", "field-difference"])
def test_each_check_group_refuses_at_its_first_link(integrator, s0, dt, got):
    """The kernel tests each group of values once, at its end, and refuses
    it by name.  Here the group's first value is the first that the Vec3
    form refuses, and the non-finite value reaches the group's end; the
    group of the wrench's moment about the center is the "moment" case of
    the transport test above."""
    _assert_refused(SimConfig(dt, 1, integrator), s0, got)


# name: (integrators, initial state, wrench, dt, message).  Each input makes
# one value after the first of its group the first check to fail.  In the
# momentum-rate cases f dt is 0.51 ulp of p's x, so p1 - p0 is a whole ulp
# and (p1 - p0) / dt about f / 0.51.
_LATER_LINKS = {
    # I^-1 R^T L
    "inverse-inertia": (INTEGRATORS, BodyState(
        _EIGHTH_TURN, ORIGIN, Vec3.zero(), Vec3(1e10, 0.0, 0.0), _body(1.0, 1e-300, 1e-300, 1e-300)),
        None, 1e-3, "angular velocity is not finite"),
    # omega = R I^-1 R^T L
    "angular-velocity": (INTEGRATORS, BodyState(
        _EIGHTH_TURN, ORIGIN, Vec3.zero(), Vec3(0.0, 2.1e298, 0.0), _body(1.0, 1e-10, 1e-10, 1e-10)),
        None, 1e-3, "angular velocity is not finite"),
    # h = L + p x b at the marker, with b = (1, 0, 0)
    "marker-field": (INTEGRATORS, BodyState(
        Mat3.identity(), ORIGIN, Vec3(0.0, 0.0, 1e308), Vec3(0.0, 1e308, 0.0), _DIAGONAL),
        None, 1e-3, "momentum field at the marker is not finite"),
    # d(O) + f x c, the wrench's moment about the center, after v = p / M
    "moment": (INTEGRATORS, BodyState(
        Mat3.identity(), Point(0.0, 1e308, 0.0), Vec3.zero(), Vec3.zero(), _DIAGONAL),
        _couple((0.0, 0.0, 1.0), (-1e308, 1.0, 2.0)), 1e-3,
        "moment about the center or velocity of the center is not finite"),
    # p / M at the midpoint's half state, after omega there
    "half-velocity": (("midpoint",), BodyState(
        Mat3.identity(), ORIGIN, Vec3(0.8e308, 1.0, 0.0), Vec3.zero(), _body(0.5, 1.0, 2.0, 3.0)),
        _couple((0.2e308, 0.0, 0.0), (0.0, 0.0, 0.0)), 2.0,
        STEP + "moment about the center or velocity of the center is not finite"),
    # d(O) + f x c at the half state, 0.9e308 + 0.9e308 in z, after its
    # velocity: the state's center, 0.85e308 along y, read a finite moment
    "half-moment": (("midpoint",), BodyState(
        Mat3.identity(), Point(0.0, 0.85e308, 0.0), Vec3(0.0, 5e306, 0.0), Vec3.zero(), _DIAGONAL),
        _couple((1.0, 0.0, 0.0), (0.0, 0.0, 0.9e308)), 2.0,
        STEP + "moment about the center or velocity of the center is not finite"),
    # the new center c + v h
    "center": (INTEGRATORS, BodyState(
        Mat3.identity(), Point(1e308, 0.0, 0.0), Vec3(1e308, 0.0, 0.0), Vec3.zero(), _DIAGONAL),
        None, 1.0, STEP + "center or momentum after the advance is not finite"),
    # f h
    "impulse": (INTEGRATORS, BodyState(
        Mat3.identity(), ORIGIN, Vec3(0.0, 1.0, 0.0), Vec3.zero(), _DIAGONAL),
        _couple((1e300, 0.0, 0.0), (0.0, 0.0, 0.0)), 1e10,
        STEP + "center or momentum after the advance is not finite"),
    # the new momentum p + f h
    "linear-momentum": (INTEGRATORS, BodyState(
        Mat3.identity(), ORIGIN, Vec3(1e308, 1.0, 0.0), Vec3.zero(), _body(2.0, 1.0, 2.0, 3.0)),
        _couple((1e308, 0.0, 0.0), (0.0, 0.0, 0.0)), 1.0,
        STEP + "center or momentum after the advance is not finite"),
    # (d(O) + f x c) h
    "angular-impulse": (INTEGRATORS, BodyState(
        Mat3.identity(), ORIGIN, Vec3.zero(), Vec3(0.0, 1.0, 0.0), _DIAGONAL),
        _couple((0.0, 0.0, 0.0), (1e308, 0.0, 0.0)), 10.0,
        STEP + "center or momentum after the advance is not finite"),
    # the new angular momentum L + (d(O) + f x c) h
    "angular-momentum": (INTEGRATORS, BodyState(
        Mat3.identity(), ORIGIN, Vec3.zero(), Vec3(1e308, 0.0, 0.0), _body(1.0, 1e308, 1e308, 1e308)),
        _couple((0.0, 0.0, 0.0), (1e308, 0.0, 0.0)), 1.0,
        STEP + "center or momentum after the advance is not finite"),
    # The mean spin m in body axes.  From an initial orientation a I, the
    # step projects a I's turn onto SO(3), so R1 is near the turn, omega0 =
    # a^2 omega1 and m = (a^2 + 1) L_z / 6 along z.
    # (R1 - R0)^T m, (1 - a) m with a = 4
    "inertia-change": (INTEGRATORS, BodyState(
        Mat3.identity() * 4.0, ORIGIN, Vec3.zero(), Vec3(0.0, 0.0, 0.25e308), _DIAGONAL),
        None, 1e-308, STEP + "inertia change times the mean angular velocity is not finite"),
    # R0^T m, a m with a = 2.5, while (1 - a) m stays finite
    "body-spin": (INTEGRATORS, BodyState(
        Mat3.identity() * 2.5, ORIGIN, Vec3.zero(), Vec3(0.0, 0.0, 0.65e308), _DIAGONAL),
        None, 1e-308, STEP + "inertia change times the mean angular velocity is not finite"),
    # R0^T m + R1^T m, (a + 1) m with a = 2, while a m stays finite
    "spin-sum": (INTEGRATORS, BodyState(
        Mat3.identity() * 2.0, ORIGIN, Vec3.zero(), Vec3(0.0, 0.0, 0.8e308), _DIAGONAL),
        None, 1e-308, STEP + "inertia change times the mean angular velocity is not finite"),
    # (J_s / 2) (R0^T m + R1^T m), (a + 1) (a^2 + 1) L / 4 with a = 1.5 for
    # an isotropic J, while m is L / J in size
    "inertia-rate": (INTEGRATORS, BodyState(
        Mat3.identity() * 1.5, ORIGIN, Vec3.zero(), Vec3(0.0, 0.0, 1e308), _body(1.0, 1e300, 1e300, 1e300)),
        None, 1e-9, STEP + "inertia change times the mean angular velocity is not finite"),
    # omega x L, [k, l]'s moment about the center negated: omega = (Lx, Ly
    # / 3, 0) and omega_x L_y = -2.25e308, while omega x p is zero
    "bracket": (INTEGRATORS, BodyState(
        Mat3.identity(), ORIGIN, Vec3.zero(), Vec3(-1.5e154, 1.5e154, 0.0), _body(1.0, 1.0, 3.0, 1.0)),
        None, 1e-300, STEP + "d + [k, l] or the linear balance residual is not finite"),
    # the resultant r = f - omega x p of d + [k, l]
    "resultant": (INTEGRATORS, BodyState(
        Mat3.identity(), ORIGIN, Vec3(0.0, 1e308, 0.0), Vec3(0.0, 0.0, 3.0), _body(1e308, 1.0, 2.0, 3.0)),
        _couple((1e308, 1.0, 0.0), (0.0, 0.0, 0.0)), 1e-3,
        STEP + "d + [k, l] or the linear balance residual is not finite"),
    # d(c) - omega x L, the moment of d + [k, l] about the center: omega x
    # L is (2 / 3) Lx Ly = -1e308 in z, and d(c) is 1e308 in z
    "resultant-moment": (INTEGRATORS, BodyState(
        Mat3.identity(), ORIGIN, Vec3.zero(), Vec3(-1.5e154, 1e154, 0.0), _body(1.0, 1.0, 3.0, 1.0)),
        _couple((0.0, 0.0, 0.0), (0.0, 0.0, 1e308)), 1e-300,
        STEP + "d + [k, l] or the linear balance residual is not finite"),
    # p1 - p0 = MAX + ulp / 2, which ties up to inf: p0 = -1.5 ulp, and
    # p0 + f dt = MAX - 1.5 ulp ties up to MAX - ulp
    "momentum-change": (("euler",), BodyState(
        Mat3.identity(), ORIGIN, Vec3(-1.5 * _ULP, 0.0, 0.0), Vec3.zero(), _DIAGONAL),
        _couple((_MAX / 2.0, 1.0, 0.0), (0.0, 0.0, 0.0)), 2.0,
        STEP + "d + [k, l] or the linear balance residual is not finite"),
    # (p1 - p0) / dt
    "momentum-rate": (INTEGRATORS, BodyState(
        Mat3.identity(), ORIGIN, Vec3(1e308, 0.0, 0.0), Vec3(0.0, 0.0, 3e-10), _DIAGONAL),
        _couple((1.5e308, 0.0, 0.0), (0.0, 0.0, 0.0)), 0.51 * _ULP / 1.5e308,
        STEP + "d + [k, l] or the linear balance residual is not finite"),
    # (p1 - p0) / dt - omega x p
    "momentum-rate-transported": (INTEGRATORS, BodyState(
        Mat3.identity(), ORIGIN, Vec3(1e308, 0.7e308, 0.0), Vec3(0.0, 0.0, 3.0), _body(1e308, 1.0, 2.0, 3.0)),
        _couple((0.6e308, 0.0, 0.0), (0.0, 0.0, 0.0)), 0.51 * _ULP / 0.6e308,
        STEP + "d + [k, l] or the linear balance residual is not finite"),
    # the linear residual (p1 - p0) / dt - omega x p - r, with omega x p =
    # 1.5 ulp in x and r = MAX - ulp: -1.5 ulp - (MAX - ulp) ties down to -inf
    "linear-residual": (INTEGRATORS, BodyState(
        Mat3.identity(), ORIGIN, Vec3(1e308, 0.0, 1.5 * _ULP), Vec3(0.0, 2.0, 0.0),
        _body(1e300, 1.0, 2.0, 3.0)),
        _couple((_MAX, 0.0, 0.0), (0.0, 0.0, 0.0)), 1e-20,
        STEP + "d + [k, l] or the linear balance residual is not finite"),
    # (L1 - L0) / dt at the center, where the field is L, along the spin
    # axis x of a body of inertia 1e10 I: m dt is 0.51 ulp of L's x, as in
    # the momentum-rate cases
    "center-residual": (INTEGRATORS, BodyState(
        Mat3.identity(), ORIGIN, Vec3.zero(), Vec3(1e308, 0.0, 0.0), _body(1.0, 1e10, 1e10, 1e10)),
        _couple((0.0, 0.0, 0.0), (1.5e308, 0.0, 0.0)), 0.51 * _ULP / 1.5e308,
        STEP + "balance residual at the center is not finite"),
}


@pytest.mark.parametrize("integrator, s0, wrench, dt, got", [
    pytest.param(integrator, s0, wrench, dt, got, id=f"{name}-{integrator}")
    for name, (integrators, s0, wrench, dt, got) in _LATER_LINKS.items()
    for integrator in integrators
])
def test_each_later_link_can_be_the_first_check_to_fail(integrator, s0, wrench, dt, got):
    """A value inside a check group can leave the float range while the
    values before it in the group do not: the group still refuses, by name,
    where the composed form refuses.  The three sums of a pole's residual
    chain after (h1 - h0) / dt, omega x h and r x a have no case: along a
    step (h1 - h0) / dt is omega x h + (d + [k, l])(a) to first order, so no
    input was found on which one of them leaves the float range before its
    operands do.  Nor have R1 - R0 and R1^T m: R1 is within the drift
    tolerance of SO(3) or its projection, so an entry of R1 - R0 is at most
    1 + tol beyond R0's in size, which rounds to at most MAX, and R1^T m is
    at most |m| <= sqrt(3) MAX / 2 in size."""
    _assert_refused(SimConfig(dt, 1, integrator, wrench), s0, got)


def test_an_overflowing_residual_transport_is_refused_with_its_cross_product():
    """At the marker, (d + [k, l])(c + b) = (d + [k, l])(c) + r x b with the
    resultant r = f, whose y is -9e307, and b = (2, 0, 0), R's first column
    for an orientation 2 I (projected onto SO(3) by the step): r x b
    overflows in z, while the body, at rest at the origin, reads and
    advances finite values."""
    s0 = BodyState(Mat3.identity() * 2.0, ORIGIN, Vec3.zero(), Vec3.zero(), _DIAGONAL)
    config = SimConfig(5e-5, 1, "euler", Wrench(Screw(Vec3(0.0, -9e307, 0.0), Vec3(0.0, 0.0, 1.0))))
    _assert_refused(config, s0, STEP + "balance residual at the marker is not finite")


# -- the diagnostics about the center -----------------------------------------


@pytest.mark.parametrize("integrator", INTEGRATORS)
@pytest.mark.parametrize("offset", [1e2, 1e4, 1e6, 1e8])
def test_an_unforced_run_diagnoses_the_same_wherever_its_center_lies(integrator, offset):
    """The tumble of test_trajectory_bits from the center (0.25, -1.25, 0.75)
    and from that center moved by D along each axis, exactly: R, p and L
    are kept, so every step reads the same screws about its center, and T,
    P, omega . (dI/dt) omega and the balance residual keep their bits.  The
    two centers advance by c + v h, which rounds differently at each offset,
    but no unforced diagnostic reads c."""
    config, s0 = _trajectory_bits_scenes()[0]
    config = SimConfig(config.dt, 300, integrator)

    def diagnostics(center: Point) -> list:
        state = BodyState(s0.orientation, center, s0.linear_momentum, s0.angular_momentum_at_c, s0.body)
        return [tuple(map(float.hex, values[1:])) for _, values, _ in sim._stream(config, state)]

    assert diagnostics(Point(0.25 + offset, -1.25 + offset, 0.75 + offset)) == diagnostics(Point(0.25, -1.25, 0.75))


def test_a_body_far_from_the_origin_simulates():
    """Four unit masses 1 m about a center 1e200 m along x, pushed from rest
    along y by 1e108 N through the center, for three steps of 1 s: after two,
    the momentum 2e108 has a moment of 2e308 about the origin, which no float
    holds.  About the center nothing leaves the float range (the moment d(c)
    is zero, and T and P stay below 1e216), and no value of the kernel is a
    moment about the origin, so the run exits 0."""
    masses = [{"m": 1.0, "position": [1e200, y, z]} for y, z in ((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0))]
    doc = {"version": 1, "masses": masses, "sim": {"dt": 1.0, "steps": 3, "integrator": "euler"}}
    assert inertia_of(parse_scene(json.dumps(doc)).masses).center == Point(1e200, 0.0, 0.0)
    # d(O) = c x f for the force f along y through c
    doc["sim"]["wrench"] = {"force": [0.0, 1e108, 0.0], "moment_at_origin": [0.0, 0.0, 1e200 * 1e108]}
    assert cli_status("simulate", doc) == 0
    assert cli_status("simulate", doc, "--json") == 0
