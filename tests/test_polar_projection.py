"""The polar projection of a drifted orientation, against numpy's SVD.

``sim._renormalize`` is Higham's scaled Newton iteration with a cofactor
inverse.  Its oracle is the polar factor U V^T of numpy's SVD (numpy comes
from the ``test`` extra).  A projection of a drifted rotation must match it
to a few ulps and be orthonormal to a few ulps; the polar factor of any other
nonsingular matrix must match it to within its sensitivity, a few ulps times
the condition number.  A singular or numerically singular matrix, whose
determinant's sign the cofactor expansion cannot tell, is refused.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from screwalg import InvalidRotationError, Vec3, rodrigues, sim

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


def test_a_matrix_that_has_not_converged_at_the_cap_is_refused(monkeypatch):
    monkeypatch.setattr(sim, "_POLAR_ITERATIONS", 2)
    m = _condition(1e4)
    with pytest.raises(InvalidRotationError, match="no polar factor within 2 iterations"):
        sim._renormalize(tuple(m))
