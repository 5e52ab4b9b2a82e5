"""The polar projection of a drifted orientation, against numpy's SVD.

``sim._renormalize`` is the polar factor U V^T of the one-sided Jacobi SVD
``dynamics._jacobi_svd``.  Its oracle is the polar factor U V^T of numpy's
SVD (numpy comes from the ``test`` extra).  A projection of a drifted
rotation must match it to a few ulps and be orthonormal to a few ulps; the
polar factor of any other nonsingular matrix must match it to within its
sensitivity, a few ulps times the condition number.  A singular or
numerically singular matrix, whose smallest singular value is below
``_SINGULAR_RTOL`` times its largest, is refused, and no draw here reaches
the SVD's sweep cap.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from screwalg import InvalidRotationError, Vec3, dynamics, rodrigues, sim

EPS = sys.float_info.epsilon
# The largest errors measured over 2000 draws each were 22 eps (drifted
# rotations) and 13 eps times the condition number (other matrices); the
# bounds leave a factor of about 3.
DRIFT_EPS = 64
COND_EPS = 48

units = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False, allow_subnormal=False)
axes = st.tuples(units, units, units).filter(lambda v: math.hypot(*v) > 0.1)
angles = st.floats(min_value=0.0, max_value=math.pi)
nine = st.tuples(*[units] * 9)


def _polar(m) -> np.ndarray:
    u, _, vt = np.linalg.svd(np.array(m, dtype=float).reshape(3, 3))
    return u @ vt


def _projected(m) -> np.ndarray:
    return np.array(sim._renormalize(tuple(m))).reshape(3, 3)


@given(axes, angles, st.floats(min_value=-8.0, max_value=-2.0), nine)
@example((0.0, 0.0, 1.0), 0.0, -8.0, (1.0,) * 9)
@example((1.0, 2.0, 2.0), math.pi, -2.0, (1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0))
def test_a_drifted_rotation_projects_to_numpys_polar_factor(axis, angle, log_drift, noise):
    r = rodrigues(Vec3(*axis).normalized(), angle).flat()
    m = [x + 10.0 ** log_drift * n for x, n in zip(r, noise)]
    got = _projected(m)
    assert np.abs(got - _polar(m)).max() <= DRIFT_EPS * EPS
    assert np.abs(got.T @ got - np.eye(3)).max() <= DRIFT_EPS * EPS
    assert np.linalg.det(got) > 0.0


@given(nine, st.integers(min_value=-300, max_value=300))
def test_the_polar_factor_of_a_nonsingular_matrix_is_numpys(entries, exponent):
    m = [math.ldexp(x, exponent) for x in entries]
    cond = np.linalg.cond(np.array(entries).reshape(3, 3))
    assume(cond < 1e8)
    got = _projected(m)
    assert np.abs(got - _polar(m)).max() <= COND_EPS * EPS * cond
    assert np.abs(got.T @ got - np.eye(3)).max() <= DRIFT_EPS * EPS


def test_a_reflection_keeps_its_negative_determinant():
    m = [-1.0, 1e-3, 0.0, 0.0, 1.0, 2e-3, 1e-3, 0.0, 1.0]
    got = _projected(m)
    assert np.abs(got - _polar(m)).max() <= DRIFT_EPS * EPS
    assert np.linalg.det(got) < 0.0


@pytest.mark.parametrize("d", [1e-7, -1e-7, 1e-9, 2.0**-40, 1e-4, -1e-3, 0.25, 3.0])
def test_a_scaled_identity_projects_to_exactly_the_identity(d):
    x = 1.0 + d
    got = sim._renormalize((x, 0.0, 0.0, 0.0, x, 0.0, 0.0, 0.0, x))
    assert got == (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)


@pytest.mark.parametrize("k", [-1000, 1023])
def test_the_projection_does_not_depend_on_the_scale(k):
    # At 2^1023 the first column's norm is beyond the float range.
    m = [1.5, 0.25, -1.0, 0.5, 1.75, 0.125, -1.25, 0.375, 1.5]
    assert sim._renormalize(tuple(math.ldexp(x, k) for x in m)) == sim._renormalize(tuple(m))


def _condition(c: float) -> list[float]:
    """A matrix with singular values 1, c^-1/2 and 1/c between two rotations."""
    u = np.array(rodrigues(Vec3(1.0, 2.0, 2.0).normalized(), 0.7).flat()).reshape(3, 3)
    v = np.array(rodrigues(Vec3(-2.0, 1.0, 0.5).normalized(), 2.1).flat()).reshape(3, 3)
    return (u @ np.diag([1.0, c**-0.5, 1.0 / c]) @ v.T).ravel().tolist()


@pytest.mark.parametrize("c", [1e4, 1e8, 1e10])
def test_an_ill_conditioned_matrix_projects_within_its_sensitivity(c):
    m = _condition(c)
    assert np.abs(_projected(m) - _polar(m)).max() <= COND_EPS * EPS * c


@pytest.mark.parametrize(
    "m",
    [
        [0.0] * 9,
        [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0],
        [1.0, 2.0, 3.0, 2.0, 4.0, 6.0, 0.0, 0.0, 1.0],
        [1.0, 1.0, 1.0, 2.0, 2.0, 2.0, -1.0, -1.0, -1.0],
        [1.0, 0.0, 0.0, 0.0, 1e-200, 0.0, 0.0, 0.0, 1e-200],
        [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 2e-309],
        _condition(1e15),
    ],
    ids=[
        "zero", "rank-2-diagonal", "rank-2", "rank-1", "determinant-underflows",
        "inverse-overflows", "condition-1e15",
    ],
)
def test_a_singular_matrix_is_refused(m):
    with pytest.raises(InvalidRotationError, match="numerically singular"):
        sim._renormalize(tuple(m))


def test_a_condition_of_1e11_projects_within_its_sensitivity():
    # sigma_min is 1e-11 sigma_max, above the cutoff of 1e-12.
    m = _condition(1e11)
    assert np.abs(_projected(m) - _polar(m)).max() <= COND_EPS * EPS * 1e11


def test_a_condition_of_1e13_is_numerically_singular():
    with pytest.raises(InvalidRotationError, match="numerically singular"):
        sim._renormalize(tuple(_condition(1e13)))


def _sweeps(m) -> int:
    """The sweeps of the SVD that ``_renormalize`` takes of ``m``."""
    sweeps = []
    svd = sim._jacobi_svd

    def recorded(mat):
        out = svd(mat)
        sweeps.append(out[2])
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim, "_jacobi_svd", recorded)
        sim._renormalize(tuple(m))
    return sweeps[0]


@given(axes, angles, st.floats(min_value=-8.0, max_value=-2.0), nine, nine,
       st.integers(min_value=-300, max_value=300))
def test_no_polar_draw_reaches_the_sweep_cap(axis, angle, log_drift, noise, entries, exponent):
    # The draws of the drifted-rotation and the nonsingular oracles.
    r = rodrigues(Vec3(*axis).normalized(), angle).flat()
    assert _sweeps([x + 10.0 ** log_drift * n for x, n in zip(r, noise)]) < dynamics._SVD_SWEEPS
    if np.linalg.cond(np.array(entries).reshape(3, 3)) < 1e8:
        assert _sweeps([math.ldexp(x, exponent) for x in entries]) < dynamics._SVD_SWEEPS


def test_the_sweep_count_reads_the_cap_when_it_is_reached(monkeypatch):
    monkeypatch.setattr(dynamics, "_SVD_SWEEPS", 1)
    *_, sweeps = dynamics._jacobi_svd([[1.0, 2.0, 0.5], [2.0, 1.0, 0.25], [0.5, 0.25, 3.0]])
    assert sweeps == 1
