"""Integrator checks: exact conservation where the scheme guarantees it,
measured convergence order where it does not."""

import logging
import math
import sys

import pytest

import test_trajectory_bits
from conftest import assert_screw_close, assert_vec_close
from screwalg import (
    ORIGIN,
    BodyState,
    InertiaOperator,
    MassDistribution,
    Mat3,
    Particle,
    Point,
    SimConfig,
    SingularInertiaError,
    StepDiagnostics,
    Vec3,
    Wrench,
    inertia_of,
    momentum_from_twist,
    moving_frame_derivative,
    power,
    run,
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


# -- run against a slow reference ---------------------------------------------
#
# ``run`` carries each state's twist, momentum screw and world inertia from
# one step to the next.  The reference below recomputes every quantity from
# the public state functions, and ``step`` is applied once per state, so any
# value carried over wrongly (or taken before the SO(3) projection) shows up
# as a bit difference.


def _exact(x) -> str:
    # repr of a float round-trips its bits, signed zeros included
    return repr(x)


def _reference_diagnostics(before, after, t, dt, wrench) -> StepDiagnostics:
    k0, l0 = state_twist(before), state_momentum(before)
    k1, l1 = state_twist(after), state_momentum(after)
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
        kinetic_energy=state_kinetic_energy(before),
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
        nxt = step(s, cfg.wrench, cfg.dt, cfg.integrator)
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


# Upper bounds on the values one run step builds.  They hold while the screw
# field, the bracket, R^T R - I, R^T v and A B^T each build one value, and
# while each state's marker and momentum field at its two poles are built
# once, not again by the next step's diagnostics; built from composed Vec3
# and Mat3 operations, the steps take 96 and 79, and with the per-state
# values built twice, 67 and 53.
@pytest.mark.parametrize("scene, most", [(0, 63), (1, 49)], ids=["midpoint-tumble", "forced-euler"])
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
