"""The reciprocal subspace's null-space core, against numpy's SVD.

``dynamics._null_space`` ranks an n x 6 matrix by the rule
rank = #{sigma > _NULLSPACE_RTOL * sigma_max}.  A bound on the triangular
factor of a Householder QR proves full rank with no iteration; otherwise a
one-sided Jacobi SVD decides.  numpy (from the ``test`` extra) is the oracle:
away from the cutoff the rank must be numpy's, and the projector onto the
null space must be numpy's to within a few ulps over the gap.  The
deterministic systems below force the Jacobi branch, so both branches run in
every test run.

``reciprocal_subspace`` is a float kernel; the composed form it replaces,
rows through ``Screw.value_at`` and ``Vec3.dot``, Householder QR reflecting
column by column, and basis screws through the ``Vec3`` sums and
``Screw.from_motor``, is kept below as its bit oracle.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from conftest import _quat_to_frame, bit_examples, edge_screws, points, quaternions, sum_outcome, values_built, vec3s
from screwalg import (
    Frame,
    NonFiniteError,
    Point,
    Screw,
    Vec3,
    basis_screws,
    dynamics,
    klein_product,
    reciprocal_subspace,
    to_dual,
)

EPS = sys.float_info.epsilon
RTOL = dynamics._NULLSPACE_RTOL
# Over 18000 matrices the largest projector difference measured was 23 eps
# over the gap sigma_r / sigma_max, the smallest kept singular value over the
# largest, and the largest orthonormality defect 5 eps; the bound leaves a
# factor of nearly 3.
PROJECTOR_EPS = 64

entries = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False, allow_subnormal=False)


def _scaled(rows: list[list[float]]) -> list[tuple[float, ...]]:
    """``rows`` scaled by the power of two that brings the largest entry into
    [0.5, 1): entries at most 1, as ``_null_space`` takes them."""
    top = max(abs(x) for row in rows for x in row)
    e = math.frexp(top)[1] if top else 0
    return [tuple(math.ldexp(x, -e) for x in row) for row in rows]


def _numpy_null(rows) -> tuple[np.ndarray, np.ndarray]:
    _, sigma, vt = np.linalg.svd(np.array(rows, dtype=float))
    rank = int(np.sum(sigma > RTOL * (sigma[0] if sigma.size else 0.0)))
    return vt[rank:], sigma


def _agrees_with_numpy(rows) -> None:
    got = np.array(dynamics._null_space(rows)).reshape(-1, 6)
    want, sigma = _numpy_null(rows)
    assert len(got) == len(want)
    if len(got):
        assert np.abs(got @ got.T - np.eye(len(got))).max() <= PROJECTOR_EPS * EPS
        kept = sigma[sigma > RTOL * sigma[0]] if sigma[0] > 0.0 else sigma[:0]
        gap = kept[-1] / sigma[0] if kept.size else 1.0
        assert np.abs(got.T @ got - want.T @ want).max() <= PROJECTOR_EPS * EPS / gap


def _away_from_the_cutoff(rows) -> bool:
    sigma = np.linalg.svd(np.array(rows, dtype=float), compute_uv=False)
    cutoff = RTOL * sigma[0]
    return not any(cutoff / 100.0 < s < cutoff * 100.0 for s in sigma)


@given(st.lists(st.lists(entries, min_size=6, max_size=6), min_size=1, max_size=9))
def test_a_matrix_ranks_as_numpy_ranks_it(rows):
    rows = _scaled(rows)
    assume(_away_from_the_cutoff(rows))
    _agrees_with_numpy(rows)


@given(
    st.lists(st.lists(entries, min_size=6, max_size=6), min_size=1, max_size=5),
    st.lists(st.lists(entries, min_size=1, max_size=1), min_size=1, max_size=9),
    st.data(),
)
def test_a_rank_deficient_matrix_ranks_as_numpy_ranks_it(basis, first, data):
    # Each row is a combination of the rank-r basis, so the rank is at most r.
    r = len(basis)
    weights = [w + data.draw(st.lists(entries, min_size=r - 1, max_size=r - 1)) for w in first]
    rows = _scaled([[sum(w[i] * basis[i][j] for i in range(r)) for j in range(6)] for w in weights])
    assume(any(any(row) for row in rows) and _away_from_the_cutoff(rows))
    _agrees_with_numpy(rows)


@pytest.mark.parametrize("zero_row", [False, True])
def test_a_row_near_the_subnormal_range_keeps_q_orthogonal(zero_row):
    # After the first reflection the second column holds rounding noise of
    # about 1e-318, whose reflector is built from it scaled up.
    rows = _scaled([[0.0, 0.0, 0.0, 0.0, 1.0, 1.0], [0.0, 0.0, 0.0, 0.0, 4.4e-302, 4.4e-302]])
    _agrees_with_numpy(rows + [(0.0,) * 6] * zero_row)


@pytest.fixture
def jacobi_calls(monkeypatch):
    """The sweeps of each ``_jacobi_svd`` call so far, in a list."""
    calls = []
    svd = dynamics._jacobi_svd

    def counted(mat):
        out = svd(mat)
        calls.append(out[2])
        return out

    monkeypatch.setattr(dynamics, "_jacobi_svd", counted)
    return calls


# A draw of test_a_matrix_ranks_as_numpy_ranks_it, of rank 4, whose null
# column of T^T shrinks into the subnormal range, where its cosine with the
# other columns carries too few digits to fall below the rotation threshold.
# Rotated like any other column, it took all _SVD_SWEEPS sweeps; counted as
# zero, it stops at 22.
_SUBNORMAL_NULL_DRAW = [
    ("-0x1.532c4c816cce0p-1", "-0x1.7d25bd50dee08p-1", "0x1.5798ee2308c3ap-27",
     "-0x1.4f8b588e368f1p-17", "0x1.1702bb80d98d8p-3", "0x1.0000000000000p-24"),
    ("-0x1.532c4c816cce0p-1", "-0x1.7d25bd50dee08p-1", "0x1.5798ee2308c3ap-27",
     "-0x1.4f8b588e368f1p-17", "0x1.1702bb80d98d8p-3", "0x1.0000000000000p-24"),
    ("-0x1.fffeb074a771dp-1", "-0x1.aec1353a54bf0p-1", "0x1.c1241a895c628p-3",
     "-0x1.f5c8665e54ca8p-1", "0x1.d7db03031bae0p-1", "-0x0.0p+0"),
    ("-0x1.ab527e188b218p-3", "-0x1.6bec28a264c56p-219", "0x0.0p+0",
     "-0x1.19e60e889a613p-1", "-0x1.1f3c7ec63d4a8p-3", "0x1.4cf9fbe8bebe0p-5"),
    ("0x1.8c682b8b91694p-1", "-0x1.2aaf25f52bc3ep-50", "-0x1.4f8b588e368f1p-17",
     "-0x1.8587e709b8a24p-950", "0x1.69e20f8785978p-1", "-0x1.1874a52c53e1fp-1"),
]


def test_a_null_column_in_the_subnormal_range_stops_the_sweeps(jacobi_calls):
    _agrees_with_numpy([tuple(map(float.fromhex, row)) for row in _SUBNORMAL_NULL_DRAW])
    assert len(jacobi_calls) == 1 and jacobi_calls[0] < dynamics._SVD_SWEEPS


def _line(p, u) -> Screw:
    return Screw.from_applied_vector(Point(*p), Vec3(*u))


def _parallel_coplanar(scale: float) -> list[Screw]:
    # Three lines along z through (0, 0, 0), (s, 0, 0) and (2s, 0, 0): their
    # resultants and moments span two dimensions.
    return [_line((k * scale, 0.0, 0.0), (0.0, 0.0, 1.0)) for k in range(3)]


_GENERIC = [
    _line((0.3, -1.2, 0.8), (0.6, 0.0, 0.8)),
    _line((1.0, 0.5, -0.25), (0.0, 1.0, 0.0)),
    _line((-0.7, 0.2, 1.5), (0.48, 0.6, 0.64)),
    Screw(Vec3(0.2, -0.9, 0.4), Vec3(1.1, 0.3, -0.6)),
    Screw(Vec3(-1.0, 0.1, 0.7), Vec3(0.2, 2.0, 0.5)),
    Screw(Vec3(0.0, 0.5, -0.5), Vec3(-0.8, 0.4, 1.2)),
]

# (system, expected dimension): each forces the Jacobi branch.
_JACOBI_SYSTEMS = {
    "repeated-screw": ([_GENERIC[0], _GENERIC[1], _GENERIC[0]], 4),
    "parallel-coplanar-lines": (_parallel_coplanar(1.0), 4),
    # Moments of 2^-600 and 2^600, whose squares underflow and overflow; the
    # balanced blocks keep the rank of the unit system.
    "parallel-coplanar-lines-tiny": (_parallel_coplanar(2.0**-600), 4),
    "parallel-coplanar-lines-huge": (_parallel_coplanar(2.0**600), 4),
    "all-zero": ([Screw.zero()] * 3, 6),
    # n > 6: the first six span five dimensions, the seventh the sixth.
    "seven-of-full-rank": (_GENERIC[:5] + [_GENERIC[0] + _GENERIC[1], _GENERIC[5]], 0),
    # n > 6 and rank 3.
    "eight-of-rank-three": (
        [_GENERIC[k % 3] + _GENERIC[(k + 1) % 3] * float(k) for k in range(8)],
        3,
    ),
}


def _balanced_rows(system: list[Screw]) -> list[tuple[float, ...]]:
    """The pairing matrix as ``reciprocal_subspace`` balances it."""
    rows = [d.c + d.d for d in (to_dual(w, Frame.standard()) for w in system)]
    em = math.frexp(max(abs(x) for row in rows for x in row[:3]))[1]
    er = math.frexp(max(abs(x) for row in rows for x in row[3:]))[1]
    if not any(x for row in rows for x in row[:3]):
        em = er
    elif not any(x for row in rows for x in row[3:]):
        er = em
    return [
        tuple(math.ldexp(x, -em) for x in row[:3]) + tuple(math.ldexp(x, -er) for x in row[3:])
        for row in rows
    ]


@pytest.mark.parametrize("name", sorted(_JACOBI_SYSTEMS))
def test_a_degenerate_system_runs_the_jacobi_branch(name, jacobi_calls):
    system, dimension = _JACOBI_SYSTEMS[name]
    basis = reciprocal_subspace(system, Frame.standard())
    assert len(jacobi_calls) == 1
    assert len(basis) == dimension
    for z in basis:
        for w in system:
            size = z.resultant.norm() + z.moment_at_origin.norm()
            size *= w.resultant.norm() + w.moment_at_origin.norm()
            assert abs(klein_product(z, w)) <= 1e-12 * size
    _agrees_with_numpy(_balanced_rows(system))


@pytest.mark.parametrize("n", range(1, 7))
def test_a_generic_system_is_proved_full_rank_without_iterating(n, jacobi_calls, monkeypatch):
    proved = reciprocal_subspace(_GENERIC[:n], Frame.standard())
    assert len(jacobi_calls) == 0
    assert len(proved) == 6 - n
    _agrees_with_numpy(_balanced_rows(_GENERIC[:n]))
    # The Jacobi branch decides the same rank and returns the same basis.
    monkeypatch.setattr(dynamics, "_proves_full_rank", lambda cols, m: False)
    assert reciprocal_subspace(_GENERIC[:n], Frame.standard()) == proved
    assert len(jacobi_calls) == 1


def test_the_six_basis_screws_of_a_frame_leave_nothing(jacobi_calls):
    assert reciprocal_subspace(list(basis_screws(Frame.standard())), Frame.standard()) == []
    assert len(jacobi_calls) == 0


# The composed form that reciprocal_subspace replaces, kept as its bit oracle:
# the pairing rows through value_at and Vec3.dot, Householder QR that calls
# _reflect for each later column, the full-rank bound with a pivot test at
# every step, and the basis screws through the Vec3 sums and from_motor.


def _reflect(v, tau, a):
    v0, v1, v2, v3, v4, v5 = v
    a0, a1, a2, a3, a4, a5 = a
    s = tau * (v0 * a0 + v1 * a1 + v2 * a2 + v3 * a3 + v4 * a4 + v5 * a5)
    return (a0 - s * v0, a1 - s * v1, a2 - s * v2, a3 - s * v3, a4 - s * v4, a5 - s * v5)


def _composed_householder(cols):
    reflectors = []
    for k in range(min(len(cols), 5)):
        col = cols[k]
        tail = col[k + 1:]
        xnorm = math.hypot(*tail)
        if xnorm == 0.0:
            continue
        alpha = col[k]
        e = math.frexp(math.hypot(alpha, xnorm))[1]
        if e <= -969:
            alpha, tail = math.ldexp(alpha, -e), [math.ldexp(x, -e) for x in tail]
            xnorm = math.hypot(*tail)
        else:
            e = 0
        beta = -math.copysign(math.hypot(alpha, xnorm), alpha)
        pivot = alpha - beta
        v = (0.0,) * k + (1.0,) + tuple([x / pivot for x in tail])
        tau = (beta - alpha) / beta
        cols[k] = col[:k] + (math.ldexp(beta, e),) + (0.0,) * (5 - k)
        for j in range(k + 1, len(cols)):
            cols[j] = _reflect(v, tau, cols[j])
        reflectors.append((v, tau))
    return reflectors


def _composed_proves_full_rank(cols, m):
    inv = []
    for j in range(m):
        x = [0.0] * (j + 1)
        for i in range(j, -1, -1):
            pivot = cols[i][i]
            if pivot == 0.0:
                return False
            s = 1.0 if i == j else 0.0
            for l in range(i + 1, j + 1):
                s -= cols[l][i] * x[l]
            x[i] = s / pivot
        inv += x
    norm = math.hypot(*[x for col in cols for x in col])
    return norm * math.hypot(*inv) * (2 * m) < 1.0 / RTOL


def _composed_null_space(a):
    n = len(a)
    m = min(n, 6)
    cols = list(a)
    reflectors = _composed_householder(cols)
    null = []
    if not _composed_proves_full_rank(cols, m):
        w, right, _ = dynamics._jacobi_svd([[col[i] for col in cols] for i in range(m)])
        sigma = [math.hypot(*col) for col in w]
        cutoff = RTOL * max(sigma)
        below = sorted((i for i in range(m) if not sigma[i] > cutoff), key=lambda i: -sigma[i])
        null = [right[i] for i in below]
    out = []
    for y in null + [(0.0,) * j + (1.0,) + (0.0,) * (5 - j) for j in range(n, 6)]:
        y = tuple(y) + (0.0,) * (6 - len(y))
        for v, tau in reversed(reflectors):
            y = _reflect(v, tau, y)
        out.append(y)
    return out


def _composed_reciprocal(wrenches, frame):
    if not wrenches:
        return list(basis_screws(frame))
    basis = frame.basis()
    rows = []
    for w in wrenches:
        at_origin = w.value_at(frame.origin)
        rows.append(tuple(at_origin.dot(e) for e in basis) + tuple(w.resultant.dot(e) for e in basis))
    moment = max([abs(x) for row in rows for x in row[:3]])
    resultant = max([abs(x) for row in rows for x in row[3:]])
    em, er = math.frexp(moment)[1], math.frexp(resultant)[1]
    if not moment:
        em = er
    elif not resultant:
        er = em
    balanced = [
        tuple(math.ldexp(x, -em) for x in row[:3]) + tuple(math.ldexp(x, -er) for x in row[3:])
        for row in rows
    ]
    k = er - em
    e1, e2, e3 = basis
    out = []
    for y in _composed_null_space(balanced):
        a, b = y[:3], y[3:]
        if k > 0:
            b = tuple([math.ldexp(x, -k) for x in b])
        elif k < 0:
            a = tuple([math.ldexp(x, k) for x in a])
        resultant = e1 * a[0] + e2 * a[1] + e3 * a[2]
        at_origin = e1 * b[0] + e2 * b[1] + e3 * b[2]
        out.append(Screw.from_motor(frame.origin, resultant, at_origin))
    return out


def _scaled_point(p: Point, j: int) -> Point:
    return Point(p.x * 2.0**j, p.y * 2.0**j, p.z * 2.0**j)


# Right-handed frames whose origin is 2^-30 to 2^30 away from the global one.
_frames = st.one_of(
    st.just(Frame.standard()),
    st.builds(
        _quat_to_frame,
        quaternions,
        st.builds(_scaled_point, points.filter(lambda p: p.to_vec().norm() > 0.5), st.integers(-30, 30)),
    ),
)


@st.composite
def _wrench_systems(draw):
    """0 to 7 wrenches in a frame, their resultants scaled by 2^jr and their
    moments by 2^jm, |j| <= 60; generic, or all with a zero value at the
    frame origin (lines through it), or all couples, or unscaled screws at
    the corners of float arithmetic (``edge_screws``); then possibly made
    rank deficient by a repeated or scaled wrench, or joined by the six
    basis screws of the frame."""
    frame = draw(_frames)
    jr, jm = draw(st.integers(-60, 60)), draw(st.integers(-60, 60))
    kind = draw(st.sampled_from(["generic", "zero-moment-block", "zero-resultant-block", "edge"]))
    wrenches = []
    for _ in range(draw(st.integers(0, 7))):
        w, m = draw(vec3s) * 2.0**jr, draw(vec3s) * 2.0**jm
        if kind == "zero-moment-block":
            wrenches.append(Screw.from_applied_vector(frame.origin, w))
        elif kind == "zero-resultant-block":
            wrenches.append(Screw.from_free_vector(m))
        elif kind == "edge":
            wrenches.append(draw(edge_screws))
        else:
            wrenches.append(Screw(w, m))
    extra = draw(st.sampled_from(["none", "repeated", "scaled", "basis"]))
    if extra == "basis":
        wrenches = list(basis_screws(frame)) + wrenches[:1]
    elif wrenches and extra != "none":
        w = draw(st.sampled_from(wrenches))
        if extra == "scaled":
            w = w * draw(st.sampled_from([-1.0, 0.5, -0.75, 2.0**-40]))
        wrenches.insert(draw(st.integers(0, len(wrenches))), w)
    return wrenches, frame


_BIG = Frame(Point(0.0, 1e10, 0.0), Vec3(1.0, 0.0, 0.0), Vec3(0.0, 1.0, 0.0), Vec3(0.0, 0.0, 1.0))
_TILTED = Frame(Point(1.0, -2.0, 0.5), Vec3(0.6, 0.8, 0.0), Vec3(-0.8, 0.6, 0.0), Vec3(0.0, 0.0, 1.0))


@bit_examples
@given(_wrench_systems())
# s(Q) overflows in its cross product, then in its sum; a dot product of a
# finite s(Q) overflows; blocks of subnormals and near them; a resultant
# block 2^1076 times the moment block.
@example(([Screw(Vec3(1e300, 0.0, 0.0), Vec3(5.0, 0.0, 0.0))], _BIG))
@example(([_GENERIC[0], Screw(Vec3(1e298, 0.0, 0.0), Vec3(5.0, 0.0, 1e308))], _BIG))
@example(([Screw(Vec3.zero(), Vec3(1.5e308, 1.5e308, 0.0)), _GENERIC[1]], _TILTED))
@example(([Screw(Vec3(5e-324, 0.0, 0.0), Vec3.zero()), Screw(Vec3(0.0, 1e-310, 0.0), Vec3.zero())], Frame.standard()))
@example(([Screw(Vec3(3.0 * 2.0**-1024, 0.0, 1e-320), Vec3(0.0, 2.0**-1023, 0.0))], Frame.standard()))
@example(([Screw(Vec3(4.0, 8.0, 2.0), Vec3(0.0, 5e-324, 0.0))], Frame.standard()))
def test_the_kernel_is_the_composed_reciprocal_bit_for_bit(system):
    wrenches, frame = system
    assert sum_outcome(reciprocal_subspace, wrenches, frame) == sum_outcome(_composed_reciprocal, wrenches, frame)


@pytest.mark.parametrize("name", sorted(_JACOBI_SYSTEMS))
def test_a_degenerate_system_is_the_composed_reciprocal_bit_for_bit(name):
    system, _ = _JACOBI_SYSTEMS[name]
    for frame in (Frame.standard(), _TILTED):
        assert sum_outcome(reciprocal_subspace, system, frame) == sum_outcome(_composed_reciprocal, system, frame)


def test_an_overflowing_value_at_the_frame_origin_is_refused_as_value_at_refuses_it():
    for wrench, message in [
        # The cross product w x Q overflows, and then the sum s(O) + w x Q.
        (Screw(Vec3(1e300, 0.0, 0.0), Vec3(5.0, 0.0, 0.0)), "(0.0, 0.0, inf)"),
        (Screw(Vec3(1e298, 0.0, 0.0), Vec3(5.0, 0.0, 1e308)), "(5.0, 0.0, inf)"),
    ]:
        with pytest.raises(NonFiniteError) as refused:
            reciprocal_subspace([_GENERIC[0], wrench], _BIG)
        assert str(refused.value) == f"Vec3 components must be finite, got {message}"


@pytest.mark.parametrize("n, built", [(1, 10), (2, 8), (5, 2), (6, 0)])
def test_reciprocal_builds_the_two_vectors_of_each_basis_screw_only(n, built):
    assert values_built(reciprocal_subspace, _GENERIC[:n], _TILTED) == built
