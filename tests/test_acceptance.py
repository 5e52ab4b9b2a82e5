"""Acceptance gate: twelve headline guarantees, each timed against a fixed
budget and reported as one pass/fail line in the terminal summary.

Every check here is an end-to-end statement about the public API; the
per-module suites carry the fine-grained property tests.
"""

import io
import json
import math
import random
import time
from pathlib import Path

import numpy as np

from conftest import _quat_to_frame
from screwalg import (
    ORIGIN,
    BodyState,
    ForceSystem,
    InertiaOperator,
    MassDistribution,
    Mat3,
    MotionChain,
    Particle,
    Point,
    Screw,
    SimConfig,
    Twist,
    Vec3,
    Wrench,
    ad,
    basis_screws,
    chasles,
    commutator,
    compose_chain,
    exp_screw,
    inertia_of,
    kinetic_energy,
    klein_product,
    momentum_screw,
    power,
    reciprocal_subspace,
    run,
    state_kinetic_energy,
    state_momentum,
    wrench_of,
)
from screwalg.cli import main
from screwalg.lie import Frame

HERE = Path(__file__).resolve().parent
SCENES = HERE / "scenes"
GOLDENS = HERE / "goldens"


def _rand_vec(rng, lo=-1.0, hi=1.0) -> Vec3:
    return Vec3(rng.uniform(lo, hi), rng.uniform(lo, hi), rng.uniform(lo, hi))


def _rand_point(rng, lo=-2.0, hi=2.0) -> Point:
    return Point(rng.uniform(lo, hi), rng.uniform(lo, hi), rng.uniform(lo, hi))


def _rand_screw(rng, lo=-1.0, hi=1.0) -> Screw:
    return Screw(_rand_vec(rng, lo, hi), _rand_vec(rng, lo, hi))


def _screw_dev(a: Screw, b: Screw) -> float:
    return max(
        (a.resultant - b.resultant).norm(),
        (a.moment_at_origin - b.moment_at_origin).norm(),
    )


def _eps(i: int, j: int, k: int) -> float:
    return ((i - j) * (j - k) * (k - i)) / 2.0


def test_criterion_01_constitutive_equation(record_criterion):
    t0 = time.perf_counter()
    rng = random.Random(101)
    worst = 0.0
    for _ in range(1000):
        s = _rand_screw(rng, -2.0, 2.0)
        p, q = _rand_point(rng), _rand_point(rng)
        lhs = s.value_at(p)
        rhs = s.value_at(q) + s.resultant.cross(p - q)
        scale = max(1.0, lhs.norm(), rhs.norm())
        worst = max(worst, (lhs - rhs).norm() / scale)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    record_criterion(
        1, "constitutive equation on 1000 screws", ok,
        f"worst {worst:.2e}, {elapsed * 1000:.0f} ms",
    )
    assert worst <= 1e-12
    assert elapsed < 1.0


def test_criterion_02_commutation_table_random_frame(record_criterion):
    t0 = time.perf_counter()
    rng = random.Random(202)
    worst = 0.0
    for _ in range(5):
        quat = tuple(rng.uniform(-1.0, 1.0) for _ in range(4))
        if sum(c * c for c in quat) < 1e-2:
            quat = (1.0, 0.0, 0.0, 0.0)
        frame = _quat_to_frame(quat, _rand_point(rng, -2.0, 2.0))
        basis = basis_screws(frame)
        fs, ms = basis[:3], basis[3:]
        for i in range(3):
            for j in range(3):
                want_ff = Screw.zero()
                want_fm = Screw.zero()
                for k in range(3):
                    e = _eps(i, j, k)
                    if e != 0.0:
                        want_ff = want_ff + (-e) * fs[k]
                        want_fm = want_fm + (-e) * ms[k]
                worst = max(worst, _screw_dev(commutator(fs[i], fs[j]), want_ff))
                worst = max(worst, _screw_dev(commutator(fs[i], ms[j]), want_fm))
                worst = max(worst, _screw_dev(commutator(ms[i], ms[j]), Screw.zero()))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-14 and elapsed < 1.0
    record_criterion(
        2, "basis commutation table in random frames", ok,
        f"worst {worst:.2e}, {elapsed * 1000:.0f} ms",
    )
    assert worst <= 1e-14
    assert elapsed < 1.0


def test_criterion_03_pairing_invariance(record_criterion):
    t0 = time.perf_counter()
    rng = random.Random(303)
    worst = 0.0
    for _ in range(1000):
        x, y, z = (_rand_screw(rng) for _ in range(3))
        dev = abs(
            klein_product(commutator(z, x), y) + klein_product(x, commutator(z, y))
        )
        worst = max(worst, dev)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    record_criterion(
        3, "pairing invariance under the bracket, 1000 triples", ok,
        f"worst {worst:.2e}, {elapsed * 1000:.0f} ms",
    )
    assert worst <= 1e-12
    assert elapsed < 1.0


def test_criterion_04_killing_form_trace(record_criterion):
    t0 = time.perf_counter()
    rng = random.Random(404)
    frame = Frame.standard()
    worst = 0.0
    for _ in range(200):
        x, y = _rand_screw(rng), _rand_screw(rng)
        trace = float(np.trace(np.array(ad(x, frame)) @ np.array(ad(y, frame))))
        closed_form = -4.0 * x.resultant.dot(y.resultant)
        worst = max(worst, abs(trace - closed_form))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 1.0
    record_criterion(
        4, "killing form as -4 w.w', 200 pairs", ok,
        f"worst {worst:.2e}, {elapsed * 1000:.0f} ms",
    )
    assert worst <= 1e-9
    assert elapsed < 1.0


def test_criterion_05_exponential_flow(record_criterion):
    t0 = time.perf_counter()
    rng = random.Random(505)
    screws, maps = [], []
    worst_log = 0.0
    for _ in range(200):
        direction = Vec3(rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1)).normalized()
        s = Screw(direction * rng.uniform(0.01, 3.0), _rand_vec(rng, -2.0, 2.0))
        g = exp_screw(s, 1.0)
        back = chasles(g).to_screw()
        scale = max(1.0, s.resultant.norm(), s.moment_at_origin.norm())
        worst_log = max(worst_log, _screw_dev(back, s) / scale)
        screws.append(s)
        maps.append(g)

    # flow of 5 seed points per screw by fourth-order Runge-Kutta on the
    # velocity field itself, fine enough steps that the oracle error is
    # far below the comparison tolerance
    w = np.array([s.resultant.components() for s in screws])[:, None, :]
    m = np.array([s.moment_at_origin.components() for s in screws])[:, None, :]
    p0 = np.array(
        [[[rng.uniform(-2.0, 2.0) for _ in range(3)] for _ in range(5)] for _ in screws]
    )

    def field(p):
        return m + np.cross(np.broadcast_to(w, p.shape), p)

    steps = 400
    h = 1.0 / steps
    p = p0.copy()
    for _ in range(steps):
        k1 = field(p)
        k2 = field(p + 0.5 * h * k1)
        k3 = field(p + 0.5 * h * k2)
        k4 = field(p + h * k3)
        p = p + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    rot = np.array([g.rotation.flat() for g in maps]).reshape(-1, 3, 3)
    tr = np.array([g.translation.components() for g in maps])
    exact = np.einsum("nij,nsj->nsi", rot, p0) + tr[:, None, :]
    scale = np.maximum(1.0, np.linalg.norm(exact, axis=-1))[..., None]
    worst_flow = float((np.abs(p - exact) / scale).max())

    elapsed = time.perf_counter() - t0
    ok = worst_log <= 1e-9 and worst_flow <= 1e-8 and elapsed < 5.0
    record_criterion(
        5, "exp/log round trip and integrated flow, 200 screws", ok,
        f"log {worst_log:.2e}, flow {worst_flow:.2e}, {elapsed:.2f} s",
    )
    assert worst_log <= 1e-9
    assert worst_flow <= 1e-8
    assert elapsed < 5.0


def test_criterion_06_rotation_couple(record_criterion):
    t0 = time.perf_counter()
    chain = MotionChain(
        (
            Twist.pure_rotation(ORIGIN, Vec3(0.0, 0.0, 3.0)),
            Twist.pure_rotation(Point(2.0, 0.0, 0.0), Vec3(0.0, 0.0, -3.0)),
        )
    )
    total = compose_chain(chain)
    s = total.screw
    dev = s.resultant.norm()
    expected = Vec3(0.0, 6.0, 0.0)
    dev = max(dev, (s.vector_invariant() - expected).norm())
    dev = max(dev, abs(s.vector_invariant().norm() - 6.0))
    rng = random.Random(606)
    for _ in range(10):
        dev = max(dev, (total.velocity_at(_rand_point(rng, -4.0, 4.0)) - expected).norm())
    elapsed = time.perf_counter() - t0
    ok = dev <= 1e-12 and elapsed < 1.0
    record_criterion(
        6, "opposite rotations two apart make speed 6", ok,
        f"worst {dev:.2e}, {elapsed * 1000:.0f} ms",
    )
    assert dev <= 1e-12
    assert elapsed < 1.0


def test_criterion_07_energy_and_power_sums(record_criterion):
    t0 = time.perf_counter()
    rng = random.Random(707)
    worst = 0.0
    for _ in range(100):
        n = rng.randint(3, 20)
        tw = Twist(Screw(_rand_vec(rng, -2.0, 2.0), _rand_vec(rng, -2.0, 2.0)))
        parts = tuple(
            Particle(rng.uniform(0.1, 3.0), _rand_point(rng), None) for _ in range(n)
        )
        moving = MassDistribution(
            tuple(
                Particle(p.mass, p.position, tw.velocity_at(p.position)) for p in parts
            )
        )
        t_screw = kinetic_energy(tw, momentum_screw(moving))
        t_direct = sum(0.5 * p.mass * p.velocity.dot(p.velocity) for p in moving.particles)
        worst = max(worst, abs(t_screw - t_direct) / max(1.0, abs(t_direct)))

        fs = ForceSystem(
            tuple((_rand_point(rng), _rand_vec(rng, -2.0, 2.0)) for _ in range(rng.randint(1, 6)))
        )
        p_screw = power(tw, wrench_of(fs))
        p_direct = sum(f.dot(tw.velocity_at(pt)) for pt, f in fs.forces)
        worst = max(worst, abs(p_screw - p_direct) / max(1.0, abs(p_direct)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 2.0
    record_criterion(
        7, "energy and power equal their particle sums, 100 bodies", ok,
        f"worst {worst:.2e}, {elapsed * 1000:.0f} ms",
    )
    assert worst <= 1e-12
    assert elapsed < 2.0


def test_criterion_08_parallel_axis_rule(record_criterion):
    t0 = time.perf_counter()
    rng = random.Random(808)
    worst = 0.0
    for _ in range(100):
        n = rng.randint(3, 12)
        dist = MassDistribution(
            tuple(Particle(rng.uniform(0.1, 3.0), _rand_point(rng)) for _ in range(n))
        )
        op = inertia_of(dist)
        pole = _rand_point(rng, -3.0, 3.0)
        eta = _rand_vec(rng, -2.0, 2.0)
        direct = Vec3.zero()
        for p in dist.particles:
            d = p.position - pole
            direct = direct + p.mass * d.cross(eta.cross(d))
        got = op.apply_at(pole, eta)
        worst = max(worst, (got - direct).norm() / max(1.0, direct.norm()))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    record_criterion(
        8, "parallel-axis transport equals shifted sums, 100 bodies", ok,
        f"worst {worst:.2e}, {elapsed * 1000:.0f} ms",
    )
    assert worst <= 1e-12
    assert elapsed < 1.0


def test_criterion_09_torque_free_top(record_criterion):
    t0 = time.perf_counter()
    body = InertiaOperator(1.0, ORIGIN, Mat3(1.0, 0, 0, 0, 2.0, 0, 0, 0, 3.0))
    omega0 = Vec3(1.0, 1.0, 1.0).normalized()
    state = BodyState(
        orientation=Mat3.identity(),
        center=ORIGIN,
        linear_momentum=Vec3.zero(),
        angular_momentum_at_c=body.moment_matrix.matvec(omega0),
        body=body,
    )
    traj = run(SimConfig(dt=1e-4, steps=10_000, integrator="midpoint"), state)
    t_start = state_kinetic_energy(traj.states[0])
    t_end = state_kinetic_energy(traj.states[-1])
    energy_drift = abs(t_end - t_start) / abs(t_start)
    l_start = state_momentum(traj.states[0]).angular_momentum_at(ORIGIN)
    l_end = state_momentum(traj.states[-1]).angular_momentum_at(ORIGIN)
    momentum_drift = (l_end - l_start).norm() / l_start.norm()
    estimator = max(abs(d.omega_idot_omega) for d in traj.diagnostics)
    elapsed = time.perf_counter() - t0
    ok = (
        energy_drift < 1e-6
        and momentum_drift < 1e-6
        and estimator < 1e-6
        and elapsed < 10.0
    )
    record_criterion(
        9, "torque-free top conserves T and L over 10^4 steps", ok,
        f"dT {energy_drift:.2e}, dL {momentum_drift:.2e}, "
        f"w.dI(w) {estimator:.2e}, {elapsed:.2f} s",
    )
    assert energy_drift < 1e-6
    assert momentum_drift < 1e-6
    assert estimator < 1e-6
    assert elapsed < 10.0


def test_criterion_10_balance_residual_order(record_criterion):
    t0 = time.perf_counter()
    parts = (
        Particle(1.0, Point(1.0, 0.0, 0.0)),
        Particle(1.0, Point(-1.0, 0.0, 0.0)),
        Particle(2.0, Point(0.0, 1.5, 0.0)),
        Particle(1.5, Point(0.0, -0.5, 1.0)),
    )
    body = inertia_of(MassDistribution(parts))
    wrench = Wrench.from_motor(ORIGIN, Vec3(0.4, -0.2, 0.1), Vec3(0.1, 0.3, -0.2))
    state = BodyState(
        orientation=Mat3.identity(),
        center=Point(0.1, -0.2, 0.3),
        linear_momentum=Vec3(0.5, 0.0, -0.25),
        angular_momentum_at_c=body.moment_matrix.matvec(Vec3(0.6, -0.4, 0.8)),
        body=body,
    )

    def max_residual(dt: float, steps: int) -> float:
        traj = run(SimConfig(dt=dt, steps=steps, wrench=wrench), state)
        return max(d.balance_residual for d in traj.diagnostics)

    coarse = max_residual(1e-3, 200)
    fine = max_residual(5e-4, 400)
    ratio = coarse / fine
    elapsed = time.perf_counter() - t0
    ok = ratio >= 1.8 and elapsed < 20.0
    record_criterion(
        10, "balance residual halves with the step", ok,
        f"ratio {ratio:.2f} (coarse {coarse:.2e}, fine {fine:.2e}), {elapsed:.2f} s",
    )
    assert ratio >= 1.8
    assert elapsed < 20.0


def test_criterion_11_reciprocal_dimensions(record_criterion):
    t0 = time.perf_counter()
    rng = random.Random(111)
    frame = Frame.standard()
    worst_pairing = 0.0
    dims_ok = True
    for r in range(1, 6):
        ws = [_rand_screw(rng, -2.0, 2.0) for _ in range(r)]
        coords = np.array(
            [list(s.resultant.components()) + list(s.moment_at_origin.components()) for s in ws]
        )
        assert np.linalg.matrix_rank(coords) == r  # sanity: generic draw
        basis = reciprocal_subspace(ws, frame)
        dims_ok &= len(basis) == 6 - r
        for z in basis:
            for s in ws:
                worst_pairing = max(worst_pairing, abs(klein_product(z, s)))
    elapsed = time.perf_counter() - t0
    ok = dims_ok and worst_pairing < 1e-10 and elapsed < 1.0
    record_criterion(
        11, "reciprocal subspace has dimension 6 - rank", ok,
        f"worst pairing {worst_pairing:.2e}, {elapsed * 1000:.0f} ms",
    )
    assert dims_ok
    assert worst_pairing < 1e-10
    assert elapsed < 1.0


def test_criterion_12_cli_goldens(record_criterion):
    t0 = time.perf_counter()
    # Every machine-mode golden, named <subcommand>_<scene>.json.
    cases = [p.stem.split("_", 1) for p in sorted(GOLDENS.glob("*.json"))]
    mismatches = []
    for command, scene_name in cases:
        out = io.StringIO()
        code = main([command, str(SCENES / f"{scene_name}.json"), "--json"], stdout=out)
        golden = (GOLDENS / f"{command}_{scene_name}.json").read_text(encoding="utf-8")
        if code != 0 or out.getvalue() != golden:
            mismatches.append(f"{command} {scene_name}")
    elapsed = time.perf_counter() - t0
    ok = not mismatches and elapsed < 2.0
    record_criterion(
        12, "CLI outputs are byte-identical to the goldens", ok,
        f"{len(cases)} cases, {elapsed * 1000:.0f} ms"
        + (f"; MISMATCH: {', '.join(mismatches)}" if mismatches else ""),
    )
    assert not mismatches
    assert elapsed < 2.0
