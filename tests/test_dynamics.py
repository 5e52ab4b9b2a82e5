"""Dynamics checks: every screw-level quantity is compared against the
per-particle or per-force sum it abbreviates."""

import collections
import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    BIG,
    assert_scalar_close,
    assert_screw_close,
    assert_vec_close,
    bit_examples,
    bit_outcome,
    nonzero_vec3s,
    points,
    scaled_points,
    scaled_vec3s,
    spliced,
    sum_outcome,
    twists,
    unit_vec3s,
    values_built,
    vec3s,
)
from test_kinematics import _composed_chain
from screwalg import (
    ORIGIN,
    EmptyDistributionError,
    ForceSystem,
    Frame,
    MassDistribution,
    Mat3,
    MissingVelocitiesError,
    MomentumScrew,
    MotionChain,
    NonFiniteError,
    Particle,
    Point,
    Screw,
    Twist,
    Vec3,
    Wrench,
    basis_screws,
    cardinal_residual,
    compose_chain,
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


# -- the screw sums against their composed forms, bit for bit ----------------
#
# wrench_of, momentum_screw and compose_chain share one float-local sum,
# screw._screw_sum.  The oracles are the composed forms it replaced, which
# sum Screw by Screw (or vector by vector) and check each value they build.


def _composed_wrench(system: ForceSystem) -> Screw:
    total = Screw.zero()
    for point, force in system.forces:
        total = total + Screw.from_applied_vector(point, force)
    return total


def _composed_momentum(dist: MassDistribution) -> Screw:
    if not dist.particles:
        raise EmptyDistributionError("no particles")
    linear = Vec3.zero()
    angular_at_origin = Vec3.zero()
    for p in dist.particles:
        if p.velocity is None:
            raise MissingVelocitiesError("momentum needs velocities on all particles")
        mv = p.velocity * p.mass
        linear = linear + mv
        angular_at_origin = angular_at_origin + p.position.to_vec().cross(mv)
    return Screw(linear, angular_at_origin)


# Members that leave the float range partway through a system: one whose
# cross product overflows, and pairs whose terms are finite but whose running
# sum of resultants, or of moments, is not.
_FORCE_OVERFLOWS = [
    [],
    [(Point(2 * BIG, -2 * BIG, BIG), Vec3(BIG, 3 * BIG, -BIG))],
    [(ORIGIN, Vec3(1.5e308, 0.0, -1.0))] * 2,
    [(Point(0.0, 0.0, BIG), Vec3(BIG, 0.0, 0.0))] * 2,
]
# The same for particles, and a product m v that overflows, and a particle
# without a velocity.
_PARTICLE_OVERFLOWS = [
    [],
    [Particle(1.0, Point(2 * BIG, -2 * BIG, BIG), Vec3(BIG, 3 * BIG, -BIG))],
    [Particle(1.5, ORIGIN, Vec3(1e308, 0.0, -1.0))] * 2,
    [Particle(1.0, Point(0.0, 0.0, BIG), Vec3(BIG, 0.0, 0.0))] * 2,
    [Particle(1e200, ORIGIN, Vec3(0.0, 1e200, 0.0))],
    [Particle(1.0, ORIGIN)],
]
# Masses from 1e-150 to 1e150; an integer mass is summed by the composed form.
_scaled_masses = st.one_of(st.floats(-150.0, 150.0).map(lambda e: 1.5 * 10.0**e), st.integers(1, 3))


@bit_examples
@given(spliced(st.tuples(scaled_points, scaled_vec3s), _FORCE_OVERFLOWS))
def test_wrench_of_is_the_composed_sum_bit_for_bit(forces):
    fs = ForceSystem(forces)
    assert bit_outcome(lambda: wrench_of(fs).screw) == bit_outcome(_composed_wrench, fs)


@bit_examples
@given(spliced(st.builds(Particle, _scaled_masses, scaled_points, scaled_vec3s), _PARTICLE_OVERFLOWS))
def test_momentum_screw_is_the_composed_sum_bit_for_bit(particles):
    """Each particle's term is formed as the applied vector m v at r, whose
    moment m v x (O - r) differs from r x m v at most in the sign of a zero."""
    dist = MassDistribution(particles)
    want = sum_outcome(_composed_momentum, dist)
    assert sum_outcome(lambda: momentum_screw(dist).screw) == want


def test_momentum_refuses_on_the_first_particle_that_fails():
    """A non-finite product on particle 3 is reported before a missing
    velocity on particle 5, and a missing velocity on particle 2 before a
    non-finite product on particle 3."""
    unit = Particle(1.0, ORIGIN, Vec3(1.0, 0.0, 0.0))
    overflows = Particle(1e200, ORIGIN, Vec3(0.0, 1e200, 0.0))
    at_rest = Particle(1.0, ORIGIN)
    with pytest.raises(NonFiniteError):
        momentum_screw(MassDistribution((unit, unit, overflows, unit, at_rest)))
    with pytest.raises(MissingVelocitiesError):
        momentum_screw(MassDistribution((unit, at_rest, overflows)))


@pytest.mark.parametrize("forces, refusal", [
    (((Vec3(1.0, 2.0, 3.0), Vec3(1.0, 0.0, 0.0)),), TypeError),
    (((ORIGIN, Vec3(1.0, 0.0, 0.0)), (ORIGIN, Point(0.0, 1.0, 0.0))), AttributeError),
    (((ORIGIN, Vec3(1.0, 0.0, 0.0), Vec3(0.0, 1.0, 0.0)),), ValueError),
    (((ORIGIN, Vec3(1.5e308, 0.0, 0.0)),) * 2 + ((Vec3(1.0, 2.0, 3.0), Vec3(1.0, 0.0, 0.0)),), NonFiniteError),
    ([[Point(1.0, 2.0, 3.0), Vec3(1.0, 0.0, 0.0)], (ORIGIN, Vec3(0.0, 1.0, 0.0))], None),
], ids=["vec3-as-point", "point-as-force", "three-entries", "overflow-first", "list"])
def test_wrench_of_a_member_of_another_form_is_the_composed_outcome(forces, refusal):
    """A member that is not a (Point, Vec3) tuple is summed, or refused, as
    the composed form sums or refuses it, after the members before it."""
    fs = ForceSystem(forces)
    got = sum_outcome(lambda: wrench_of(fs).screw)
    assert got == sum_outcome(_composed_wrench, fs)
    assert got is refusal if refusal is not None else isinstance(got, tuple)


class _SubScrew(Screw):
    __slots__ = ()


_UNIT_FORCE = (Point(1.0, 2.0, 3.0), Vec3(0.5, -1.0, 0.25))
_FORCES = (_UNIT_FORCE, (Point(-0.5, 0.0, 1.5), Vec3(1.0, 3.0, -2.0)))
_PARTICLES = (Particle(1.5, Point(1.0, 2.0, 3.0), Vec3(0.5, -1.0, 0.25)),
              Particle(0.75, Point(-0.5, 0.0, 1.5), Vec3(1.0, 3.0, -2.0)))
_TWISTS = (Twist(Screw(Vec3(1.0, 0.0, 2.0), Vec3(0.5, 0.5, -1.0))), Twist(Screw(Vec3(0.0, 3.0, 1.0), Vec3(1.0, 0.0, 0.0))))


@pytest.mark.parametrize("f, oracle, members, refusal", [
    (wrench_of, _composed_wrench, ForceSystem(collections.deque(_FORCES)), None),
    (momentum_screw, _composed_momentum, MassDistribution(collections.deque(_PARTICLES)), None),
    (compose_chain, _composed_chain, MotionChain(collections.deque(_TWISTS)), None),
    (wrench_of, _composed_wrench, ForceSystem([list(_UNIT_FORCE), _FORCES[1]]), None),
    (momentum_screw, _composed_momentum, MassDistribution((Particle(2, *_UNIT_FORCE), _PARTICLES[1])), None),
    (momentum_screw, _composed_momentum, MassDistribution((_PARTICLES[0], Particle(1.0, ORIGIN))), MissingVelocitiesError),
    (compose_chain, None, MotionChain((_TWISTS[0], Twist(_SubScrew(Vec3(1.0, 0.0, 0.0), Vec3.zero())))), TypeError),
    (momentum_screw, None, MassDistribution((_PARTICLES[0], Particle(1.0, Vec3(1.0, 0.0, 0.0), Vec3(0.0, 1.0, 0.0)))),
     AttributeError),
    (momentum_screw, None, MassDistribution((_PARTICLES[0], Particle(1.0, ORIGIN, Point(0.0, 1.0, 0.0)))), TypeError),
    (wrench_of, _composed_wrench, ForceSystem((_FORCES[0], _TWISTS[0])), TypeError),
    (momentum_screw, _composed_momentum, MassDistribution((_PARTICLES[0], _UNIT_FORCE)), AttributeError),
    (momentum_screw, _composed_momentum, MassDistribution((_PARTICLES[0], _TWISTS[0])), AttributeError),
], ids=["forces-in-a-deque", "particles-in-a-deque", "twists-in-a-deque", "pair-as-a-list", "int-mass",
        "no-velocity", "screw-subclass", "vec3-as-position", "point-as-velocity", "twist-among-forces",
        "pair-among-particles", "twist-among-particles"])
def test_members_off_the_float_path_keep_their_outcome(f, oracle, members, refusal):
    """The inputs that the sum once left to its caller's composed form: an
    iterable that is not a tuple or a list, a pair given as a list, an int
    mass, a particle with no velocity, a role whose screw is a subclass of
    Screw, a particle's position or velocity of the other class, and a
    member of another caller's kind, which the composed form cannot unpack
    or read.  Each sums to the composed form's bits, or refuses with its
    exception class."""
    got = sum_outcome(lambda: f(members).screw)
    if refusal is None:
        assert isinstance(got, tuple) and got == sum_outcome(oracle, members)
    else:
        assert got is refusal
        assert oracle is None or sum_outcome(oracle, members) is refusal


def test_the_wrench_of_no_force_is_the_zero_wrench():
    assert wrench_of(ForceSystem(())) == Wrench.zero()


def _sum_cases(n: int):
    rng = random.Random(n)

    def vec(cls):
        return cls(*(rng.uniform(-4.0, 4.0) for _ in range(3)))

    return [
        (wrench_of, ForceSystem(tuple((vec(Point), vec(Vec3)) for _ in range(n)))),
        (compose_chain, MotionChain(tuple(Twist(Screw(vec(Vec3), vec(Vec3))) for _ in range(max(n, 1))))),
        (momentum_screw, MassDistribution(tuple(Particle(1.5, vec(Point), vec(Vec3)) for _ in range(max(n, 1))))),
    ]


def test_values_built_by_a_screw_sum_do_not_grow_with_its_members():
    """A sum builds its two Vec3 and its Screw, whatever its length; summed
    Screw by Screw, a force took six more values."""
    for n in (0, 1, 60):
        for f, members in _sum_cases(n):
            assert values_built(f, members, classes=(Vec3, Point, Screw)) == 3, (f.__name__, n)


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
