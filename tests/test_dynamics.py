"""Dynamics checks: every screw-level quantity is compared against the
per-particle or per-force sum it abbreviates."""

import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    assert_scalar_close,
    assert_screw_close,
    assert_vec_close,
    nonzero_vec3s,
    points,
    twists,
    unit_vec3s,
    vec3s,
)
from screwalg import (
    ORIGIN,
    EmptyDistributionError,
    ForceSystem,
    Frame,
    MassDistribution,
    Mat3,
    MissingVelocitiesError,
    MomentumScrew,
    Particle,
    Point,
    Screw,
    Twist,
    Vec3,
    Wrench,
    basis_screws,
    cardinal_residual,
    inertia_of,
    kinetic_energy,
    klein_product,
    momentum_from_twist,
    momentum_screw,
    moving_frame_derivative,
    power,
    reciprocal_subspace,
    rodrigues,
    to_frame,
    wrench_of,
)

masses = st.floats(min_value=0.1, max_value=3.0, allow_nan=False, allow_infinity=False)
bodies = st.lists(st.tuples(masses, points), min_size=3, max_size=8).map(
    lambda rows: MassDistribution(tuple(Particle(m, p) for m, p in rows))
)
force_systems = st.lists(st.tuples(points, vec3s), min_size=1, max_size=6).map(
    lambda rows: ForceSystem(tuple(rows))
)


def _with_twist_velocities(dist: MassDistribution, tw: Twist) -> MassDistribution:
    return MassDistribution(
        tuple(
            Particle(p.mass, p.position, tw.velocity_at(p.position))
            for p in dist.particles
        )
    )


# -- wrench ------------------------------------------------------------------


@given(force_systems)
def test_wrench_moment_is_the_sum_of_force_moments(fs):
    """The wrench field at any pole equals sum (P_i - Q) x F_i."""
    w = wrench_of(fs)
    rng = random.Random(31415)
    for _ in range(5):
        q = Point(*(rng.uniform(-4, 4) for _ in range(3)))
        total = Vec3.zero()
        for p, f in fs.forces:
            total = total + (p - q).cross(f)
        assert_vec_close(w.moment_at(q), total, tol=1e-12)
    acc = Vec3.zero()
    for _, f in fs.forces:
        acc = acc + f
    assert w.force == acc


@given(points, nonzero_vec3s, unit_vec3s)
def test_force_couple_has_constant_moment(p, f, u):
    arm_dir = u - f.normalized() * u.dot(f.normalized())
    if arm_dir.norm() < 1e-3:
        return
    a = arm_dir.normalized() * 0.8
    couple = wrench_of(ForceSystem(((p, f), (p + a, -f))))
    assert couple.force.norm() <= 1e-12
    expected = f.cross(a)
    assert_scalar_close(expected.norm(), f.norm() * a.norm(), tol=1e-12)
    for q in (ORIGIN, p, Point(2.0, -3.0, 1.0)):
        assert_vec_close(couple.moment_at(q), expected, tol=1e-12)


def test_wrench_from_force_vanishes_at_its_point():
    w = Wrench.from_force(Point(1.0, 2.0, 3.0), Vec3(0.5, -1.0, 2.0))
    assert w.moment_at(Point(1.0, 2.0, 3.0)).norm() <= 1e-15


# -- momentum ----------------------------------------------------------------


def test_momentum_screw_transport_matches_particle_sum():
    rng = random.Random(2718)
    parts = tuple(
        Particle(
            rng.uniform(0.1, 2.0),
            Point(*(rng.uniform(-3, 3) for _ in range(3))),
            Vec3(*(rng.uniform(-2, 2) for _ in range(3))),
        )
        for _ in range(5)
    )
    l = momentum_screw(MassDistribution(parts))
    for _ in range(5):
        q = Point(*(rng.uniform(-4, 4) for _ in range(3)))
        total = Vec3.zero()
        for p in parts:
            total = total + (p.position - q).cross(p.velocity * p.mass)
        assert_vec_close(l.angular_momentum_at(q), total, tol=1e-12)


def test_momentum_requires_velocities():
    parts = (
        Particle(1.0, Point(0.0, 0.0, 0.0), Vec3(1.0, 0.0, 0.0)),
        Particle(1.0, Point(1.0, 0.0, 0.0)),
    )
    with pytest.raises(MissingVelocitiesError):
        momentum_screw(MassDistribution(parts))


def test_empty_distribution_rejected():
    with pytest.raises(EmptyDistributionError):
        momentum_screw(MassDistribution(()))
    with pytest.raises(EmptyDistributionError):
        inertia_of(MassDistribution(()))
    with pytest.raises(EmptyDistributionError):
        MassDistribution(()).center_of_mass()


def test_nonpositive_mass_rejected():
    with pytest.raises(ValueError):
        Particle(0.0, ORIGIN)
    with pytest.raises(ValueError):
        Particle(-1.0, ORIGIN)


# -- inertia -----------------------------------------------------------------


def test_dumbbell_inertia():
    """Two unit masses at +-x: no resistance about x, moment 2 about y and z."""
    dist = MassDistribution(
        (Particle(1.0, Point(1.0, 0.0, 0.0)), Particle(1.0, Point(-1.0, 0.0, 0.0)))
    )
    op = inertia_of(dist)
    assert op.center.isclose(ORIGIN)
    assert op.total_mass == 2.0
    assert op.apply(Vec3(1.0, 0.0, 0.0)) == Vec3.zero()
    assert op.apply(Vec3(0.0, 0.0, 1.0)) == Vec3(0.0, 0.0, 2.0)
    assert op.moment_matrix.isclose(
        Mat3(0.0, 0.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0, 2.0)
    )


@given(bodies, points, vec3s)
def test_parallel_axis_rule_matches_shifted_sum(dist, pole, eta):
    """apply_at must agree with recomputing the defining sum about the pole."""
    op = inertia_of(dist)
    direct = Vec3.zero()
    for p in dist.particles:
        d = p.position - pole
        direct = direct + p.mass * d.cross(eta.cross(d))
    assert_vec_close(op.apply_at(pole, eta), direct, tol=1e-12)


@given(bodies, twists)
def test_momentum_from_twist_matches_particle_momenta(dist, tw):
    moving = _with_twist_velocities(dist, tw)
    expected = momentum_screw(moving)
    got = momentum_from_twist(inertia_of(dist), tw)
    assert_screw_close(got.screw, expected.screw, tol=1e-12)


@given(bodies, twists, twists)
def test_momentum_from_twist_is_linear(dist, t1, t2):
    op = inertia_of(dist)
    assert_screw_close(
        momentum_from_twist(op, t1 + t2).screw,
        momentum_from_twist(op, t1).screw + momentum_from_twist(op, t2).screw,
        tol=1e-12,
    )


@given(bodies, vec3s)
def test_spin_about_center_gives_centered_momentum(dist, omega):
    op = inertia_of(dist)
    tw = Twist.pure_rotation(op.center, omega)
    l = momentum_from_twist(op, tw)
    assert l.linear_momentum.norm() <= 1e-12 * max(1.0, omega.norm())
    assert_vec_close(l.angular_momentum_at(op.center), op.apply(omega), tol=1e-12)


# -- energy and power --------------------------------------------------------


@given(bodies, twists)
def test_kinetic_energy_is_the_particle_sum(dist, tw):
    moving = _with_twist_velocities(dist, tw)
    t_screw = kinetic_energy(tw, momentum_screw(moving))
    t_direct = sum(
        0.5 * p.mass * p.velocity.dot(p.velocity) for p in moving.particles
    )
    assert_scalar_close(t_screw, t_direct, tol=1e-12)
    assert t_screw >= -1e-12


@given(twists, force_systems)
def test_power_is_the_per_force_sum(tw, fs):
    p_screw = power(tw, wrench_of(fs))
    p_direct = sum(f.dot(tw.velocity_at(pt)) for pt, f in fs.forces)
    assert_scalar_close(p_screw, p_direct, tol=1e-12)


def test_force_on_the_rotation_axis_does_no_work():
    tw = Twist.pure_rotation(ORIGIN, Vec3(0.0, 0.0, 2.0))
    w = Wrench.from_force(Point(0.0, 0.0, 5.0), Vec3(3.0, -1.0, 0.5))
    assert abs(power(tw, w)) <= 1e-15


# -- reciprocal subspaces ----------------------------------------------------


def _random_screws(rng, n):
    return [
        Screw(
            Vec3(*(rng.uniform(-2, 2) for _ in range(3))),
            Vec3(*(rng.uniform(-2, 2) for _ in range(3))),
        )
        for _ in range(n)
    ]


def _std_coords(s):
    c = to_frame(s, Frame.standard())
    return list(c.a) + list(c.b)


def test_reciprocal_of_nothing_is_everything():
    basis = reciprocal_subspace([], Frame.standard())
    assert len(basis) == 6
    rank = np.linalg.matrix_rank(np.array([_std_coords(z) for z in basis]))
    assert rank == 6


def test_revolute_joint_leaves_five_degrees():
    hinge = Screw.from_applied_vector(Point(1.0, 0.0, 0.0), Vec3(0.0, 0.0, 1.0))
    basis = reciprocal_subspace([hinge], Frame.standard())
    assert len(basis) == 5
    for z in basis:
        assert abs(klein_product(z, hinge)) <= 1e-10


def test_reciprocal_dimension_complements_rank():
    rng = random.Random(60601)
    for r in range(1, 6):
        ws = _random_screws(rng, r)
        rank = np.linalg.matrix_rank(np.array([_std_coords(w) for w in ws]))
        basis = reciprocal_subspace(ws, Frame.standard())
        assert len(basis) == 6 - rank
        for z in basis:
            for w in ws:
                assert abs(klein_product(z, w)) <= 1e-10


# Lines through points on a 1/16 grid along integer directions: a length
# scale of 2^j multiplies every moment exactly.
_grid = st.integers(min_value=-64, max_value=64).map(lambda k: k / 16.0)
_grid_lines = st.builds(
    lambda p, v: Screw.from_applied_vector(Point(*p), Vec3(*v)),
    st.tuples(_grid, _grid, _grid),
    st.tuples(*[st.integers(min_value=-3, max_value=3).map(float)] * 3).filter(any),
)


@given(st.lists(_grid_lines, min_size=1, max_size=5), st.integers(min_value=-60, max_value=60))
def test_reciprocal_dimension_does_not_depend_on_the_length_unit(lines, j):
    scaled = [Screw(w.resultant, w.moment_at_origin * 2.0**j) for w in lines]
    frame = Frame.standard()
    assert len(reciprocal_subspace(scaled, frame)) == len(reciprocal_subspace(lines, frame))


# (couple moments, dimension): a system of couples only has a zero resultant
# block, which takes the moment block's scale.
_COUPLES = {
    "one": ([(1.0, 0.0, 0.0)], 5),
    "two-parallel": ([(1.0, 0.0, 0.0), (-2.0, 0.0, 0.0)], 5),
    "two": ([(1.0, 0.0, 0.0), (0.6, 0.8, 0.0)], 4),
    "three": ([(1.0, 0.0, 0.0), (0.0, 3.0, 0.0), (0.5, 0.5, -0.25)], 3),
    "four": ([(1.0, 0.0, 0.0), (0.0, 3.0, 0.0), (0.5, 0.5, -0.25), (1.0, 3.0, 0.0)], 3),
}


@pytest.mark.parametrize("j", [-60, -1, 0, 1, 60])
@pytest.mark.parametrize("name", sorted(_COUPLES))
def test_the_reciprocal_of_couples_only(name, j):
    # A length scale of 2^j multiplies every couple's moment exactly.
    moments, dimension = _COUPLES[name]
    system = [Screw.from_free_vector(Vec3(*m) * 2.0**j) for m in moments]
    basis = reciprocal_subspace(system, Frame.standard())
    assert len(basis) == dimension
    for z in basis:
        for w in system:
            size = z.resultant.norm() + z.moment_at_origin.norm()
            size *= w.resultant.norm() + w.moment_at_origin.norm()
            assert abs(klein_product(z, w)) <= 1e-12 * size


def test_full_rank_system_has_trivial_reciprocal():
    assert reciprocal_subspace(list(basis_screws(Frame.standard())), Frame.standard()) == []


def test_reciprocal_span_is_frame_independent():
    rng = random.Random(424242)
    ws = _random_screws(rng, 3)
    rot = rodrigues(Vec3(1.0, 2.0, 2.0).normalized(), 0.8)
    other = Frame(Point(0.3, -1.2, 0.7), rot.column(0), rot.column(1), rot.column(2))
    za = reciprocal_subspace(ws, Frame.standard())
    zb = reciprocal_subspace(ws, other)
    assert len(za) == len(zb) == 3
    a = np.array([_std_coords(z) for z in za])
    b = np.array([_std_coords(z) for z in zb])
    # same span: stacking must not raise the rank
    assert np.linalg.matrix_rank(np.vstack([a, b]), tol=1e-8) == len(za)
    for z in zb:
        for w in ws:
            assert abs(klein_product(z, w)) <= 1e-9


# -- balance law -------------------------------------------------------------


def test_free_particle_satisfies_the_balance_law_exactly():
    """Along r(t) = r0 + v t the momentum screw is constant, so the
    finite-difference residual against the zero wrench vanishes."""
    m, r0, v = 1.7, Point(0.4, -0.3, 1.1), Vec3(0.6, 0.2, -0.9)
    h = 1e-3

    def l_at(t):
        pos = r0 + v * t
        return momentum_screw(MassDistribution((Particle(m, pos, v),)))

    res = cardinal_residual(l_at(0.0), l_at(h), h, Wrench.zero())
    assert res.resultant.norm() <= 1e-12
    assert res.moment_at_origin.norm() <= 1e-9  # cancellation noise / h


def test_constant_force_particle_residual_is_first_order():
    """With the wrench sampled at the left endpoint the residual's angular
    part is (h/2) v0 x F to leading order; the linear part cancels exactly
    because momentum is linear in time."""
    m = 2.0
    r0, v0, f = Point(1.0, -0.5, 0.3), Vec3(0.4, 1.1, -0.2), Vec3(0.0, 0.0, 3.0)

    def l_at(t):
        pos = r0 + v0 * t + f * (t * t / (2.0 * m))
        vel = v0 + f * (t / m)
        return momentum_screw(MassDistribution((Particle(m, pos, vel),)))

    h = 1e-4
    res = cardinal_residual(l_at(0.0), l_at(h), h, Wrench.from_force(r0, f))
    assert res.resultant.norm() <= 1e-11
    assert_vec_close(res.moment_at_origin, v0.cross(f) * (h / 2.0), tol=1e-3)
    # halving h halves the residual
    res2 = cardinal_residual(l_at(0.0), l_at(h / 2.0), h / 2.0, Wrench.from_force(r0, f))
    ratio = res.moment_at_origin.norm() / res2.moment_at_origin.norm()
    assert 1.9 <= ratio <= 2.1


@given(twists, st.builds(lambda s: MomentumScrew(s), st.builds(Screw, vec3s, vec3s)), st.builds(lambda s: Wrench(s), st.builds(Screw, vec3s, vec3s)))
def test_moving_frame_resultant(tw, l, d):
    out = moving_frame_derivative(l, tw, d)
    expected = d.force - tw.angular_velocity.cross(l.linear_momentum)
    assert_vec_close(out.resultant, expected, tol=1e-14)


def test_pole_dragging_derivative_is_not_a_screw():
    """Differentiating angular momentum at poles that ride along with the
    body gives the field g(Q) = d(Q) + P x v(Q).  A screw field s satisfies
    (s(B) - s(A)) . (B - A) = 0; g does not, which is why the balance law is
    restated through the commutator instead."""
    p_lin = Vec3(1.0, 0.0, 0.0)
    tw = Twist.pure_rotation(ORIGIN, Vec3(0.0, 1.0, 0.0))

    def g(q: Point) -> Vec3:
        # zero wrench: only the transport term remains
        return p_lin.cross(tw.velocity_at(q))

    a, b = ORIGIN, Point(1.0, 1.0, 0.0)
    violation = (g(b) - g(a)).dot(b - a)
    assert abs(violation - 1.0) <= 1e-15  # (P.c)(omega.c) - (P.omega)|c|^2 = 1
    # the screw-valued restatement keeps the transport identity by construction
    l = MomentumScrew(Screw(p_lin, Vec3.zero()))
    out = moving_frame_derivative(l, tw, Wrench.zero())
    s_diff = out.value_at(b) - out.value_at(a)
    assert abs(s_diff.dot(b - a)) <= 1e-15
