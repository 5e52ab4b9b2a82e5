"""Commutator, Klein pairing, Killing form, frames and duals."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import (
    assert_scalar_close,
    assert_screw_close,
    assert_vec_close,
    bit_examples,
    bit_outcome,
    edge_screws,
    edge_vec3s,
    frames,
    screws,
    small_params,
)
from screwalg import (
    Dual6,
    Frame,
    Point,
    Screw,
    Screw6,
    Vec3,
    ad,
    basis_screws,
    commutator,
    from_frame,
    killing_form,
    klein_product,
    pairing,
    to_dual,
    to_frame,
)

_EPSILON = {(0, 1): 2, (1, 2): 0, (2, 0): 1}  # eps_ijk = +1 for these (i,j)->k


def _coords(s, frame):
    c = to_frame(s, frame)
    return np.array(c.a + c.b)


def _screw6(arr):
    a1, a2, a3, b1, b2, b3 = (float(x) for x in arr)
    return Screw6((a1, a2, a3), (b1, b2, b3))


@given(frames)
def test_pairing_table(frame):
    f = basis_screws(frame)[:3]
    m = basis_screws(frame)[3:]
    for i in range(3):
        for j in range(3):
            want = 1.0 if i == j else 0.0
            assert abs(klein_product(f[i], m[j]) - want) < 1e-13
            assert abs(klein_product(f[i], f[j])) < 1e-13
            assert abs(klein_product(m[i], m[j])) < 1e-13


@given(frames)
def test_commutation_table(frame):
    f = basis_screws(frame)[:3]
    m = basis_screws(frame)[3:]
    for (i, j), k in _EPSILON.items():
        assert_screw_close(commutator(m[i], m[j]), Screw.zero(), tol=1e-14)
        assert_screw_close(commutator(f[i], m[j]), -1.0 * m[k], tol=1e-13)
        assert_screw_close(commutator(f[i], f[j]), -1.0 * f[k], tol=1e-13)
        # antisymmetry fills in the (j, i) entries
        assert_screw_close(commutator(m[j], f[i]), 1.0 * m[k], tol=1e-13)


def test_commutation_signs_standard_frame():
    f1, f2, f3, m1, m2, m3 = basis_screws(Frame.standard())
    assert_screw_close(commutator(f1, f2), -1.0 * f3, tol=1e-15)
    assert_screw_close(commutator(f1, m2), -1.0 * m3, tol=1e-15)
    assert_screw_close(commutator(f3, m1), -1.0 * m2, tol=1e-15)


@given(screws, screws)
def test_klein_symmetric_and_resultant_rule(s1, s2):
    assert_scalar_close(klein_product(s1, s2), klein_product(s2, s1))
    assert commutator(s1, s2).resultant == -(s1.resultant.cross(s2.resultant))


@given(screws)
def test_klein_self_pairing_is_twice_scalar_invariant(s):
    assert_scalar_close(klein_product(s, s), 2.0 * s.scalar_invariant(), tol=1e-12)


@given(screws, screws, screws, small_params)
def test_klein_bilinear(s1, s2, s3, lam):
    assert_scalar_close(
        klein_product(s1 + lam * s2, s3),
        klein_product(s1, s3) + lam * klein_product(s2, s3),
        tol=1e-11,
    )


@given(screws, frames)
def test_klein_nondegenerate(s, frame):
    scale = max(s.resultant.norm(), s.moment_at_origin.norm())
    if scale < 1e-2:
        return
    unit = s * (1.0 / scale)
    pairings = [abs(klein_product(unit, b)) for b in basis_screws(frame)]
    assert max(pairings) > 1e-12


@given(screws, screws, screws)
def test_klein_ad_invariance(x, y, z):
    """<[z,x], y> + <x, [z,y]> = 0: the commutator action is skew for the
    pairing, which is what makes the pairing a structure invariant."""
    total = klein_product(commutator(z, x), y) + klein_product(x, commutator(z, y))
    scale = max(
        1.0,
        z.resultant.norm() + z.moment_at_origin.norm(),
        x.resultant.norm() + x.moment_at_origin.norm(),
        y.resultant.norm() + y.moment_at_origin.norm(),
    )
    assert abs(total) <= 1e-12 * scale**2


@given(screws, screws, screws)
def test_triple_product_cyclic_and_expansion(s1, s3, s2):
    direct = klein_product(s1, commutator(s3, s2))
    w1, m1 = s1.resultant, s1.moment_at_origin
    w2, m2 = s2.resultant, s2.moment_at_origin
    w3, m3 = s3.resultant, s3.moment_at_origin
    expansion = w1.dot(w2.cross(m3)) - w1.dot(w3.cross(m2)) - w3.cross(w2).dot(m1)
    assert_scalar_close(direct, expansion, tol=1e-11)
    assert_scalar_close(direct, klein_product(s3, commutator(s2, s1)), tol=1e-11)
    assert_scalar_close(direct, klein_product(s2, commutator(s1, s3)), tol=1e-11)


@given(screws, screws, screws)
def test_jacobi_identity(x, y, z):
    total = (
        commutator(x, commutator(y, z))
        + commutator(y, commutator(z, x))
        + commutator(z, commutator(x, y))
    )
    scale = max(
        1.0,
        (x.resultant.norm() + x.moment_at_origin.norm())
        * (y.resultant.norm() + y.moment_at_origin.norm())
        * (z.resultant.norm() + z.moment_at_origin.norm()),
    )
    assert total.resultant.norm() + total.moment_at_origin.norm() <= 1e-12 * scale


@given(screws, screws, frames)
def test_ad_matrix_matches_commutator(s, x, frame):
    lhs = np.array(ad(s, frame)) @ _coords(x, frame)
    rhs = _coords(commutator(s, x), frame)
    assert np.max(np.abs(lhs - rhs)) <= 1e-11 * max(1.0, np.max(np.abs(rhs)))


@bit_examples
@given(edge_screws, edge_screws)
@example(Screw(Vec3.zero(), Vec3(0.0, 0.0, -0.0)), Screw(Vec3(0.0, 1.0, 0.0), Vec3.zero()))
def test_commutator_is_the_composed_bracket_bit_for_bit(s1, s2):
    # In the example the moment's x is -0.0 - 0.0 = -0.0; as a sum with the
    # negated cross product, -0.0 + 0.0, it would be 0.0.
    def composed(s1, s2):
        w1, w2 = s1.resultant, s2.resultant
        return Screw(-w1.cross(w2), w2.cross(s1.moment_at_origin) - w1.cross(s2.moment_at_origin))

    assert bit_outcome(commutator, s1, s2) == bit_outcome(composed, s1, s2)


_TILTED = Frame(Point(1.0, -2.0, 0.5), Vec3(0.6, 0.8, 0.0), Vec3(-0.8, 0.6, 0.0), Vec3(0.0, 0.0, 1.0))


@bit_examples
@given(edge_vec3s, edge_vec3s, st.one_of(st.just(_TILTED), frames))
@example(Vec3(1.5e308, -1.5e308, 1.0), Vec3.zero(), _TILTED)
@example(Vec3.zero(), Vec3(-1.5e308, 1.5e308, 1.0), _TILTED)
def test_from_frame_is_the_composed_sum_bit_for_bit(a, b, frame):
    # In the examples e1 * a1 + e2 * a2 overflows in x before e3 * a3 is
    # added: the composed form refuses that partial sum, with its z of 0.0.
    def composed(coords, frame):
        e1, e2, e3 = frame.basis()
        resultant = e1 * coords.a[0] + e2 * coords.a[1] + e3 * coords.a[2]
        at_origin = e1 * coords.b[0] + e2 * coords.b[1] + e3 * coords.b[2]
        return Screw.from_motor(frame.origin, resultant, at_origin)

    coords = Screw6(a.components(), b.components())
    assert bit_outcome(from_frame, coords, frame) == bit_outcome(composed, coords, frame)


@bit_examples
@given(edge_screws, st.one_of(st.just(_TILTED), frames))
# s(Q) overflows in the cross product w x Q, then in the sum s(O) + w x Q; a
# dot product of a finite s(Q) overflows.
@example(Screw(Vec3(1e300, 0.0, 0.0), Vec3(5.0, 0.0, 0.0)), Frame(Point(0.0, 1e10, 0.0), *Frame.standard().basis()))
@example(Screw(Vec3(1e298, 0.0, 0.0), Vec3(5.0, 0.0, 1e308)), Frame(Point(0.0, 1e10, 0.0), *Frame.standard().basis()))
@example(Screw(Vec3.zero(), Vec3(1.5e308, 1.5e308, 0.0)), _TILTED)
def test_to_frame_and_to_dual_are_the_composed_coordinates_bit_for_bit(s, frame):
    def composed(s, frame):
        at_origin = s.value_at(frame.origin)
        return tuple(at_origin.dot(e) for e in frame.basis()) + tuple(s.resultant.dot(e) for e in frame.basis())

    def dual(s, frame):
        d = to_dual(s, frame)
        return d.c + d.d

    def coords(s, frame):
        c = to_frame(s, frame)
        return c.b + c.a

    assert bit_outcome(dual, s, frame) == bit_outcome(coords, s, frame) == bit_outcome(composed, s, frame)


def test_a_frame_whose_origin_is_not_a_point_is_refused_as_before():
    """Refused where it is built, before its basis is read, so no later use
    meets it."""
    basis = Frame.standard().basis()
    for origin in (Vec3(1.0, 2.0, 3.0), (1.0, 2.0, 3.0), None):
        with pytest.raises(TypeError, match=f"^frame origin must be a Point, got {type(origin).__name__}$"):
            Frame(origin, *basis)
    with pytest.raises(TypeError, match="^frame origin must be a Point, got Vec3$"):
        Frame(Vec3(1.0, 2.0, 3.0), *basis[::-1])


def test_ad_of_zero_screw():
    assert np.all(np.array(ad(Screw.zero(), Frame.standard())) == 0.0)


@given(screws, screws, screws, frames)
def test_jacobi_as_operators(x, y, z, frame):
    """ad([x,y]) = ad(x) ad(y) - ad(y) ad(x): the adjoint representation
    turns commutators of screws into commutators of matrices."""
    ax, ay = np.array(ad(x, frame)), np.array(ad(y, frame))
    lhs = np.array(ad(commutator(x, y), frame)) @ _coords(z, frame)
    rhs = (ax @ ay - ay @ ax) @ _coords(z, frame)
    assert np.max(np.abs(lhs - rhs)) <= 1e-9 * max(1.0, np.max(np.abs(lhs)))


@given(screws, screws, frames)
def test_killing_form_is_the_trace_form(x, y, frame):
    trace = float(np.trace(np.array(ad(x, frame)) @ np.array(ad(y, frame))))
    assert_scalar_close(trace, killing_form(x, y), tol=1e-9)


def test_killing_examples():
    f1 = basis_screws(Frame.standard())[0]
    assert killing_form(f1, f1) == -4.0
    m2 = basis_screws(Frame.standard())[4]
    assert killing_form(m2, f1) == 0.0
    assert killing_form(m2, m2) == 0.0  # degenerate on the free screws


@given(screws, screws, frames, frames)
def test_invariants_are_frame_independent(s1, s2, fa, fb):
    ca = to_frame(s1, fa), to_frame(s2, fa)
    cb = to_frame(s1, fb), to_frame(s2, fb)
    ka = sum(x * y for x, y in zip(ca[0].a + ca[0].b, ca[1].b + ca[1].a))
    kb = sum(x * y for x, y in zip(cb[0].a + cb[0].b, cb[1].b + cb[1].a))
    assert_scalar_close(ka, klein_product(s1, s2), tol=1e-11)
    assert_scalar_close(kb, klein_product(s1, s2), tol=1e-11)
    # commutator computed through either frame's matrices lands on the same screw
    via_a = from_frame(_screw6(np.array(ad(s1, fa)) @ _coords(s2, fa)), fa)
    via_b = from_frame(_screw6(np.array(ad(s1, fb)) @ _coords(s2, fb)), fb)
    assert_screw_close(via_a, commutator(s1, s2), tol=1e-10)
    assert_screw_close(via_b, commutator(s1, s2), tol=1e-10)


@given(frames, screws)
def test_frame_round_trip(frame, s):
    assert_screw_close(from_frame(to_frame(s, frame), frame), s, tol=1e-11)


def test_standard_frame_coordinates_are_the_raw_representation():
    s = Screw(Vec3(1.5, -2.0, 0.25), Vec3(0.5, 3.0, -1.0))
    coords6 = to_frame(s, Frame.standard())
    assert coords6.a == (1.5, -2.0, 0.25)
    assert coords6.b == (0.5, 3.0, -1.0)
    assert from_frame(coords6, Frame.standard()) == s


@given(frames)
def test_basis_fields(frame):
    screws6 = basis_screws(frame)
    for i, f in enumerate(screws6[:3]):
        assert f.value_at(frame.origin).norm() <= 1e-13 * max(
            1.0, frame.origin.to_vec().norm()
        )
        assert_vec_close(f.resultant, frame.basis()[i])
    for i, m in enumerate(screws6[3:]):
        assert m.resultant == Vec3.zero()
        assert m.value_at(Point(2.0, -7.0, 0.5)) == frame.basis()[i]


@given(screws, screws, frames)
def test_dual_pairing_reproduces_klein(x, y, frame):
    assert_scalar_close(
        pairing(to_dual(x, frame), to_frame(y, frame)),
        klein_product(x, y),
        tol=1e-11,
    )


@given(screws, frames)
def test_dual_is_the_swap(s, frame):
    coords6 = to_frame(s, frame)
    dual = to_dual(s, frame)
    assert dual.c == coords6.b
    assert dual.d == coords6.a
    # swapping twice is the identity on the coordinates
    swapped = Dual6(dual.d, dual.c)
    assert np.array(swapped.c + swapped.d).tolist() == np.array(coords6.a + coords6.b).tolist()
    assert_scalar_close(
        pairing(dual, coords6), 2.0 * s.scalar_invariant(), tol=1e-12
    )


def test_dual_basis_pairing():
    frame = Frame.standard()
    f1, _, _, m1, m2, _ = basis_screws(frame)
    assert pairing(to_dual(f1, frame), to_frame(m1, frame)) == 1.0
    assert pairing(to_dual(f1, frame), to_frame(m2, frame)) == 0.0
    assert pairing(to_dual(f1, frame), to_frame(f1, frame)) == 0.0


def _rotated_basis():
    c, s = math.cos(0.5), math.sin(0.5)
    return Vec3(c, s, 0.0), Vec3(-s, c, 0.0), Vec3(0.0, 0.0, 1.0)


def _perturbed_basis(kind, delta):
    e1, e2, e3 = _rotated_basis()
    if kind == "tilt":  # e1 . e2 is off by about delta
        return e1, e2 + e1 * delta, e3
    return e1, e2, e3 * (1.0 + delta)  # "stretch": e3 . e3 off by about 2 delta


@pytest.mark.parametrize("kind", ["tilt", "stretch", "overflow"])
def test_frame_refuses_a_basis_off_by_1e_11(kind):
    if kind == "overflow":  # off by far more: the squares of e1 overflow
        basis = (Vec3(1e200, 0.0, 0.0), Vec3(0.0, 1.0, 0.0), Vec3(0.0, 0.0, 1.0))
    else:
        basis = _perturbed_basis(kind, 1e-11)
    with pytest.raises(ValueError, match="^frame basis is not orthonormal$"):
        Frame(Point(0.0, 0.0, 0.0), *basis)


@pytest.mark.parametrize("kind", ["tilt", "stretch"])
def test_frame_accepts_a_basis_off_by_1e_13(kind):
    e1, e2, e3 = _perturbed_basis(kind, 1e-13)
    frame = Frame(Point(0.0, 0.0, 0.0), e1, e2, e3)
    assert frame.basis() == (e1, e2, e3)


def test_frame_refuses_a_left_handed_basis():
    e1, e2, e3 = _rotated_basis()
    Frame(Point(0.0, 0.0, 0.0), e1, e2, e3)
    with pytest.raises(ValueError, match="^frame basis is not right-handed$"):
        Frame(Point(0.0, 0.0, 0.0), e1, e2, -e3)
