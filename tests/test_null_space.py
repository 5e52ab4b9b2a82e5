"""The reciprocal subspace's null-space core, against numpy's SVD.

``dynamics._null_space`` ranks an n x 6 matrix by the rule
rank = #{sigma > _NULLSPACE_RTOL * sigma_max}.  A bound on the triangular
factor of a Householder QR proves full rank with no iteration; otherwise a
one-sided Jacobi SVD decides.  numpy (from the ``test`` extra) is the oracle:
away from the cutoff the rank must be numpy's, and the projector onto the
null space must be numpy's to within a few ulps over the gap.  The
deterministic systems below force the Jacobi branch, so both branches run in
every test run.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from screwalg import (
    Frame,
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
