"""The SO(3) drift test on a proven budget.

When ``sim._stream`` measures the defect d = max |R^T R - I| of a step's new
R at most tol = ``sim._ORTHO_DRIFT_TOL``, the next floor((tol - d) / delta)
steps skip the test and the "rotated orientation" group; its docstring proves
that none of them could have failed the test.  These tests hold that:

- every state, diagnostic and projection, with its step, its count and its
  log line, is that of a stream that tests every step (delta = inf), from
  initial orientations whose defect lies anywhere in [0, tol], in (tol -
  1e-12, tol] and just above tol, in runs of up to 10^4 steps, several of
  which drift past tol after hundreds or thousands of steps;
- over random steps (u, theta, R) the computed defect grows by at most
  delta / 10, and a Rodrigues matrix's own defect stays within the proof's
  bound on it;
- a 10^4-step run measures the defect at most ceil(steps / budget) + 1 times.
"""

import logging
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import test_trajectory_bits
from screwalg import (
    INTEGRATORS,
    ORIGIN,
    BodyState,
    InertiaOperator,
    Mat3,
    Point,
    SimConfig,
    Vec3,
    Wrench,
    rodrigues,
    sim,
)
from screwalg.rigid import _rodrigues
from screwalg.vecmath import _matmul, _norm, _orthonormality_defect
from test_sim import _outcome, _trajectory_bits_scenes

_TOL = sim._ORTHO_DRIFT_TOL
_U = 2.0**-53


def _drifted(rotation: Mat3, column: int, defect: float) -> Mat3:
    """``rotation`` with one column scaled by sqrt(1 + defect), so R^T R - I
    is about ``defect`` in one diagonal entry."""
    f = math.sqrt(1.0 + defect)
    return Mat3(*(x * f if i % 3 == column else x for i, x in enumerate(rotation.flat())))


def _reference_outcome(config: SimConfig, s0: BodyState) -> list:
    """``_outcome`` of the stream with no budget: delta = inf makes every
    budget floor((tol - d) / inf) = 0, so every step tests in full."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "_DRIFT_PER_STEP", math.inf)
        return _outcome(sim._stream(config, s0))


_unit = st.floats(-1.0, 1.0)
_axes = st.tuples(_unit, _unit, _unit).filter(lambda a: sum(x * x for x in a) > 1e-2)
_defects = st.one_of(
    st.floats(0.0, _TOL),
    st.floats(0.0, 1e-12, exclude_max=True).map(lambda x: _TOL - x),
    st.floats(-17.0, -13.0).map(lambda e: _TOL - 10.0**e),
    st.floats(0.0, 1e-12, exclude_min=True).map(lambda x: _TOL + x),
)


@st.composite
def _runs(draw):
    """(config, initial state): a rotated non-diagonal inertia, an initial
    orientation whose defect is drawn from ``_defects`` and runs of up to
    1000 steps, forced in some draws."""

    def rotation() -> Mat3:
        return rodrigues(Vec3(*draw(_axes)).normalized(), draw(st.floats(-3.0, 3.0)))

    q = rotation()
    diag = Mat3(*(draw(st.floats(0.5, 3.0)) if i % 4 == 0 else 0.0 for i in range(9)))
    body = InertiaOperator(draw(st.floats(0.5, 3.0)), ORIGIN, q.matmul(diag).matmul(q.transpose()))
    orientation = _drifted(rotation(), draw(st.integers(0, 2)), draw(_defects))
    momentum = Vec3(*(4.0 * draw(_unit) for _ in range(3)))
    s0 = BodyState(orientation, Point(0.1, -0.2, 0.3), Vec3(0.5, 0.0, -0.25), momentum, body)
    wrench = None
    if draw(st.booleans()):
        wrench = Wrench.from_motor(Point(0.2, -0.1, 0.4), Vec3(*(draw(_unit) for _ in range(3))),
                                   Vec3(*(draw(_unit) for _ in range(3))))
    config = SimConfig(draw(st.floats(1e-3, 0.05)), draw(st.integers(1, 1000)),
                       draw(st.sampled_from(INTEGRATORS)), wrench)
    return config, s0


@given(_runs())
def test_the_budget_changes_no_state_and_no_projection(run):
    config, s0 = run
    assert _outcome(sim._stream(config, s0)) == _reference_outcome(config, s0)


def _tumble(integrator: str, defect_below_tol: float | None) -> tuple[SimConfig, BodyState]:
    """10^4 steps of the pinned tumble, from the identity or from a turn whose
    first column is scaled to a defect of tol - ``defect_below_tol``."""
    body = test_trajectory_bits._body()
    orientation = Mat3.identity()
    if defect_below_tol is not None:
        turn = rodrigues(Vec3(0.3, -0.5, 0.8).normalized(), 1.1)
        orientation = _drifted(turn, 0, _TOL - defect_below_tol)
    s0 = BodyState(orientation, Point(0.3, -1.2, 0.8), Vec3(0.4, 0.1, -0.7),
                   body.moment_matrix.matvec(Vec3(0.9, 2.3, -0.4)), body)
    return SimConfig(1e-3, 10_000, integrator), s0


# The steps at which each run projects: from the identity none; from tol,
# the first few; from just below tol, the drift crosses tol after hundreds or
# thousands of steps, with budgets of zero or a few steps before it.
_PROJECTIONS = {
    ("midpoint", None): [], ("euler", None): [],
    ("midpoint", 0.0): [3], ("euler", 0.0): [9],
    ("midpoint", 2e-16): [2232], ("euler", 2e-16): [367],
    ("midpoint", 3e-15): [2746], ("euler", 3e-15): [573],
    ("midpoint", 1e-14): [], ("euler", 1e-14): [7831],
}


@pytest.mark.parametrize("integrator, below", _PROJECTIONS)
def test_ten_thousand_steps_project_where_a_stream_testing_every_step_does(integrator, below, caplog):
    config, s0 = _tumble(integrator, below)
    with caplog.at_level(logging.WARNING, logger="screwalg.sim"):
        got = _outcome(sim._stream(config, s0))
        logged = [r.getMessage() for r in caplog.records]
        caplog.clear()
        want = _reference_outcome(config, s0)
        assert logged == [r.getMessage() for r in caplog.records]
    assert got == want
    assert [n for n, (_, renormed) in enumerate(got) if renormed] == _PROJECTIONS[integrator, below]


def test_one_step_grows_the_defect_by_at_most_a_tenth_of_the_allowance():
    """Random (u, theta, R) with d(R) <= tol, a quarter of them at speeds
    from 1e-320 to 1e300 (subnormal ones included) and angles up to 4.  The
    docstring of ``sim._stream`` proves at most 263u a step and 81.7u for a
    Rodrigues matrix; 20000 draws read at most 14u and 16u."""
    rng = random.Random(20)
    growth = rodrigues_defect = 0.0
    for k in range(20_000):
        scale = 10.0 ** rng.uniform(-320.0, 300.0) if k % 4 == 0 else 10.0 ** rng.uniform(-3.0, 3.0)
        w = [scale * rng.uniform(-1.0, 1.0) for _ in range(3)]
        speed = _norm(*w)
        h = rng.uniform(0.0, 4.0) / speed if k % 4 == 0 else 10.0 ** rng.uniform(-8.0, 1.0)
        if speed == 0.0 or not math.isfinite(speed * h):
            continue
        q = _rodrigues(w[0] / speed, w[1] / speed, w[2] / speed, speed * h)
        a = Vec3(*(rng.uniform(-1.0, 1.0) for _ in range(3)))
        turn = rodrigues(a.normalized(), rng.uniform(-math.pi, math.pi))
        d = rng.choice([0.0, rng.uniform(0.0, _TOL), _TOL * (1.0 - rng.uniform(0.0, 1e-4))])
        r = _drifted(turn, rng.randrange(3), d).flat()
        before = _orthonormality_defect(r)
        if before > _TOL:
            continue
        growth = max(growth, _orthonormality_defect(_matmul(q, r)) - before)
        rodrigues_defect = max(rodrigues_defect, _orthonormality_defect(q))
    assert growth <= sim._DRIFT_PER_STEP / 10.0
    assert rodrigues_defect <= 81.7 * _U


@pytest.mark.parametrize("scene", [0, 1], ids=["midpoint-tumble", "forced-euler"])
def test_a_long_run_measures_the_defect_once_a_budget(scene):
    """The pinned scenes run for 10^4 steps; the forced one projects at step
    0, so its step 1 tests in full too."""
    config, s0 = _trajectory_bits_scenes()[scene]
    steps = 10_000
    calls = 0

    def counted(r):
        nonlocal calls
        calls += 1
        return _orthonormality_defect(r)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "_orthonormality_defect", counted)
        for _ in sim._stream(SimConfig(config.dt, steps, config.integrator, config.wrench), s0):
            pass
    budget = int(_TOL / sim._DRIFT_PER_STEP)
    assert calls <= math.ceil(steps / budget) + 1
