"""The inertia inverse: eigenpairs from the pure-Python one-sided Jacobi SVD.

``sim._inverse_moment`` ranks and inverts the principal moments of the body
moment matrix after an exact power-of-two scaling, reading them from
``dynamics._jacobi_svd`` of the symmetric matrix.  These tests pin what the
solve must give:

- a diagonal moment matrix, in any order and with zeros of either sign off
  the diagonal, takes no rotation and inverts to exactly diag(1/d_i);
- on symmetric positive definite matrices at scales 1e-150 to 1e150, with
  condition numbers up to 1e11 or nearly equal moments, the largest entry
  error against an mpmath inverse at 200 bits is at most
  ``_K`` * eps * cond times the largest entry;
- the singular/invertible verdict is that of the numpy ``eigh`` form the
  solve replaced, away from the 1e-12 threshold, also for moments of one
  size and both signs, whose eigenvectors the SVD cannot tell apart;
- on graded matrices, each entry of the inverse is accurate to its own size;
- no input here reaches the sweep cap: over 20000 draws the most was 21 of
  30, for a singular matrix, whose null columns shrink by about eps a sweep
  until their norm is subnormal.
"""

import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from screwalg import InertiaOperator, Mat3, Point, SingularInertiaError, dynamics, sim

_EPS = sys.float_info.epsilon
# The largest entry error over eps * cond * the largest entry read 3.6 at
# worst over 10000 draws of the strategies below (the six worst all with
# nearly equal moments) and 2.8 over 4000 plain random draws (the two-sided
# Jacobi eigensolve the SVD replaced: 2.3 and 2.5; numpy's eigh form: 7.1
# and 4.5), so k leaves a factor of 1.4.
_K = 5.0


def _body(flat) -> InertiaOperator:
    return InertiaOperator(1.0, Point(0.0, 0.0, 0.0), Mat3(*flat))


def _rotation(q) -> list[list[float]]:
    n = math.sqrt(sum(c * c for c in q))
    w, x, y, z = (c / n for c in q)
    return [
        [1.0 - 2.0 * (y * y + z * z), 2.0 * (x * y - z * w), 2.0 * (x * z + y * w)],
        [2.0 * (x * y + z * w), 1.0 - 2.0 * (x * x + z * z), 2.0 * (y * z - x * w)],
        [2.0 * (x * z - y * w), 2.0 * (y * z + x * w), 1.0 - 2.0 * (x * x + y * y)],
    ]


def _rotated(q, moments, scale) -> tuple[float, ...]:
    """scale * R diag(moments) R^T, rounded to floats but exactly symmetric."""
    r = _rotation(q)
    return tuple(
        scale * sum(r[i][k] * r[j][k] * moments[k] for k in range(3))
        for i in range(3)
        for j in range(3)
    )


_quaternions = st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(lambda q: sum(c * c for c in q) > 1e-2)
_scales = st.floats(-150.0, 150.0).map(lambda x: 10.0 ** x)
# Condition numbers 1 to 1e11, the middle moment anywhere between.
_spread = st.tuples(st.floats(0.0, 11.0), st.floats(0.0, 1.0)).map(
    lambda t: (1.0, 10.0 ** (-t[0]), 10.0 ** (-t[0] * t[1]))
)
# Moments equal to within 1e-16 to 1e-6: ill-determined axes, a well-determined inverse.
_near_equal = st.tuples(st.floats(-16.0, -6.0), st.floats(-16.0, -6.0)).map(
    lambda t: (1.0, 1.0 + 10.0 ** t[0], 1.0 - 10.0 ** t[1])
)
_moments = st.one_of(_spread, _near_equal).flatmap(st.permutations)
spd_matrices = st.builds(_rotated, _quaternions, _moments, _scales)

# Smallest over largest moment from 1e-20 to 1, away from the 1e-12
# threshold by a factor of 10 on each side, of either sign, or exactly 0.
_ratios = st.one_of(
    st.floats(-20.0, -13.0).map(lambda x: 10.0 ** x),
    st.floats(-11.0, 0.0).map(lambda x: 10.0 ** x),
    st.just(0.0),
)
_signed_moments = st.tuples(_ratios, st.floats(0.0, 1.0), st.sampled_from([1.0, -1.0])).flatmap(
    lambda t: st.permutations((1.0, t[0] * t[2], 10.0 ** (math.log10(t[0]) * t[1]) if t[0] else t[1]))
)
verdict_matrices = st.builds(_rotated, _quaternions, _signed_moments, _scales)


def _numpy_inverse(flat):
    """The numpy form the Jacobi solves replaced, kept as an oracle."""
    e = math.frexp(max(map(abs, flat)))[1]
    m = np.ldexp(np.array(flat, dtype=float).reshape(3, 3), -e)
    evals, evecs = np.linalg.eigh(m)
    if evals[0] < sim._SINGULAR_RTOL * max(evals[-1], 0.0) or evals[-1] <= 0.0:
        return None
    inv = evecs @ np.diag(1.0 / evals) @ evecs.T
    return tuple(math.ldexp(float(x), -e) for x in inv.ravel())


def _svd_of(flat):
    """The SVD that ``_inverse_moment`` takes of ``flat``: (W, V, sweeps)."""
    taken = []
    svd = sim._jacobi_svd

    def recorded(mat):
        taken.append(svd(mat))
        return taken[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim, "_jacobi_svd", recorded)
        try:
            sim._inverse_moment.__wrapped__(_body(flat))
        except SingularInertiaError:
            pass
    return taken[0]


def _jacobi_inverse(flat):
    try:
        return sim._inverse_moment(_body(flat)).flat()
    except SingularInertiaError:
        return None


def _assert_accurate(flat, inverse):
    """inverse is within _K eps cond of the exact inverse of flat, entry by
    entry relative to its largest entry, cond from exact eigenvalues."""
    with mpmath.workprec(200):
        a = mpmath.matrix([[mpmath.mpf(flat[3 * i + j]) for j in range(3)] for i in range(3)])
        evals = mpmath.eigsy(a, eigvals_only=True)
        cond = max(abs(x) for x in evals) / min(abs(x) for x in evals)
        exact = mpmath.inverse(a)
        largest = max(abs(exact[i, j]) for i in range(3) for j in range(3))
        error = max(abs(mpmath.mpf(inverse[3 * i + j]) - exact[i, j]) for i in range(3) for j in range(3))
        ratio = float(error / (largest * cond * _EPS))
    assert ratio <= _K, f"error {ratio:.2f} eps cond for {flat}"


_diagonals = st.floats(-280.0, 280.0).flatmap(
    lambda top: st.tuples(
        st.just(10.0 ** top), st.floats(top - 11.0, top), st.floats(top - 11.0, top)
    )
).map(lambda t: (t[0], 10.0 ** t[1], 10.0 ** t[2])).flatmap(st.permutations)


@given(_diagonals, st.lists(st.sampled_from([0.0, -0.0]), min_size=6, max_size=6))
def test_a_diagonal_moment_matrix_inverts_to_exactly_its_reciprocals(d, zeros):
    flat = (d[0], zeros[0], zeros[1], zeros[2], d[1], zeros[3], zeros[4], zeros[5], d[2])
    inv = sim._inverse_moment(_body(flat)).flat()
    expected = (1.0 / d[0], 0.0, 0.0, 0.0, 1.0 / d[1], 0.0, 0.0, 0.0, 1.0 / d[2])
    assert [float.hex(x) for x in inv] == [float.hex(x) for x in expected]


def test_a_diagonal_moment_matrix_takes_no_rotation():
    # Its columns are orthogonal already, so V = I and each column's norm is
    # exactly its moment.
    w, v, sweeps = _svd_of((0.5, -0.0, 0.0, 0.0, 0.25, -0.0, 0.0, -0.0, 0.75))
    assert (v, sweeps) == ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], 0)
    assert [math.hypot(*col) for col in w] == [0.5, 0.25, 0.75]


@given(spd_matrices)
def test_the_inverse_is_within_k_eps_cond_of_an_mpmath_inverse(flat):
    _assert_accurate(flat, sim._inverse_moment(_body(flat)).flat())


@given(verdict_matrices)
def test_the_singular_verdict_is_that_of_the_numpy_form(flat):
    jacobi, oracle = _jacobi_inverse(flat), _numpy_inverse(flat)
    assert (jacobi is None) == (oracle is None)
    if jacobi is not None:
        _assert_accurate(flat, jacobi)


@given(st.one_of(spd_matrices, verdict_matrices, _diagonals.map(
    lambda d: (d[0], 0.0, 0.0, 0.0, d[1], 0.0, 0.0, 0.0, d[2])
)))
def test_no_input_reaches_the_sweep_cap(flat):
    assert _svd_of(flat)[2] < dynamics._SVD_SWEEPS


@pytest.mark.parametrize("flat", [
    (1.0, 1e-16, 0.0, 1e-16, 1e-11, 0.0, 0.0, 0.0, 0.5),
    (1e-11, 2e-17, 1e-19, 2e-17, 1e-6, 3e-12, 1e-19, 3e-12, 1.0),
])
def test_a_graded_inertia_keeps_its_small_couplings(flat):
    # Each coupling is below eps times the largest moment but not below eps
    # times the geometric mean of its two moments, so the SVD's relative
    # rule, on the cosine of two columns, rotates it away; a rule against eps
    # alone would keep it and drop the inverse's off-diagonal entries.  Each
    # entry is then within 1e-12 of its own size, which the norm-wise bound
    # above cannot see.
    inv = sim._inverse_moment(_body(flat)).flat()
    with mpmath.workprec(200):
        exact = mpmath.inverse(mpmath.matrix([[mpmath.mpf(flat[3 * i + j]) for j in range(3)] for i in range(3)]))
        for i in range(3):
            for j in range(3):
                assert abs(mpmath.mpf(inv[3 * i + j]) - exact[i, j]) <= 1e-12 * abs(exact[i, j]), (i, j)


def test_the_solve_reads_the_lower_triangle():
    # As numpy's eigh does: the entries above the diagonal are not read.
    lower = (2.0, 0.0, 0.0, 0.5, 3.0, 0.0, 0.25, -0.75, 4.0)
    symmetric = (2.0, 0.5, 0.25, 0.5, 3.0, -0.75, 0.25, -0.75, 4.0)
    assert _svd_of(lower) == _svd_of(symmetric)
    inverses = [sim._inverse_moment(_body(flat)).flat() for flat in (lower, symmetric)]
    assert [float.hex(x) for x in inverses[0]] == [float.hex(x) for x in inverses[1]]


@pytest.mark.parametrize("moments", [(0.0, 1.0, 1.0), (1e-13, 1.0, 0.5), (-1e-3, 1.0, 2.0), (-1.0, -2.0, -3.0)])
def test_a_rotated_singular_or_indefinite_inertia_is_refused(moments):
    flat = _rotated((0.3, -0.5, 0.7, 0.1), moments, 1.0)
    with pytest.raises(SingularInertiaError, match=r"^inertia principal values \(.*\) are not invertible$"):
        sim._inverse_moment(_body(flat))


@pytest.mark.parametrize("moments", [(1.0, -1.0, 1.0), (-1.0, 1.0, 1.0), (1.0, 1.0, -1.0)])
def test_moments_of_one_size_and_both_signs_are_refused(moments):
    # Every vector in the span of the eigenvectors of +1 and -1 has |J v| =
    # |v|, so the SVD cannot tell those eigenvectors apart, and the V it
    # keeps here has w.v > 0 on every column.  A column with w.v < |w| / 2
    # still gives it away.
    flat = _rotated((1.0, 0.5, 0.5, 0.0), moments, 1.0)
    with pytest.raises(SingularInertiaError, match=r"^inertia principal values \(.*\) are not invertible$"):
        sim._inverse_moment(_body(flat))


@pytest.mark.parametrize("moments", [(2.0, -2.0, 1.0), (1.0, -1.0, 1.0)])
def test_a_refusal_signs_moments_of_one_size_by_the_invariants(moments):
    # The SVD's columns mix the eigenvectors of +mu and -mu, so w.v signed
    # both -mu; the trace and determinant of J sign them (-, +, +), sorted.
    # The magnitudes are the SVD's column norms, as before.
    flat = _rotated((1.0, 0.5, 0.5, 0.0), moments, 1.0)
    with pytest.raises(SingularInertiaError) as refused:
        sim._inverse_moment(_body(flat))
    printed = [float(x) for x in str(refused.value).split("(")[1].split(")")[0].split(", ")]
    assert [math.copysign(1.0, x) for x in printed] == [-1.0, 1.0, 1.0]
    e = math.frexp(max(map(abs, flat)))[1]
    sizes = sorted(math.ldexp(math.hypot(*col), e) for col in _svd_of(flat)[0])
    assert sorted(map(abs, printed)) == sizes
