"""The omega . (dI_C/dt)(omega) diagnostic against mpmath.

The kernel evaluates omega . (dI_C/dt)(omega) across a step from R0 to R1 at
the mean spin m = (omega0 + omega1) / 2 in body axes, as
2 ((R1 - R0)^T m . (J_s / 2)(R0^T m + R1^T m)) / dt, with R1 - R0 formed
entry by entry first.  With the float states, m and J taken as exact, the
world form m . (R1 J R1^T - R0 J R0^T) m / dt at 256 bits is its exact value,
and its error is at most ``_K`` eps |R1 - R0| |J_s| |m|^2 / dt (Frobenius
norms): to first order, forming (R1 - R0)^T m errs by at most 4u |R1 - R0|
|m|, (J_s / 2)(R0^T m + R1^T m) by 7u |J_s| |m| and their dot product by 3u
of the product of the sizes, with u = eps / 2, so ``_K`` = 15 bounds it.
Over the draws below and the two scene files the ratio was at most 0.3.  The
world form that formed R J R^T read 72 on ``tumble_midpoint`` and 2200 on
``forced_euler``: R J R^T rounds at eps |J|, and |R1 - R0| is about
|omega| dt.
"""

from pathlib import Path

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st

from screwalg import (
    INTEGRATORS,
    BodyState,
    Mat3,
    MomentumScrew,
    SimConfig,
    inertia_of,
    momentum_screw,
    parse_scene,
    run,
    state_twist,
)
from test_sim import _scenes

_EPS = 2.0**-52
_K = 16.0
SCENES = Path(__file__).resolve().parent / "scenes"


def _scene(name: str) -> tuple[SimConfig, BodyState]:
    """The config and initial state that ``simulate`` runs for a scene file."""
    scene = parse_scene((SCENES / f"{name}.json").read_text())
    body = inertia_of(scene.masses)
    moving = any(p.velocity is not None for p in scene.masses.particles)
    l0 = momentum_screw(scene.masses) if moving else MomentumScrew.zero()
    s0 = BodyState(Mat3.identity(), body.center, l0.linear_momentum, l0.angular_momentum_at(body.center), body)
    return scene.sim, s0


def _matrix(m: Mat3) -> mpmath.matrix:
    flat = m.flat()
    return mpmath.matrix([[mpmath.mpf(flat[3 * i + k]) for k in range(3)] for i in range(3)])


def _worst_ratio(config: SimConfig, s0: BodyState) -> float:
    """The largest error of a step's omega_idot_omega in ``run`` over
    eps |R1 - R0| |J_s| |m|^2 / dt; a step whose scale is zero must be
    exact (R1 = R0 or m = 0 make both forms zero)."""
    traj = run(config, s0)
    worst = 0.0
    with mpmath.workprec(256):
        j = _matrix(s0.body.moment_matrix)
        js = (j + j.T) / 2
        dt = mpmath.mpf(config.dt)
        spins = [state_twist(s).angular_velocity for s in traj.states]
        for n, diagnostics in enumerate(traj.diagnostics):
            r0, r1 = _matrix(traj.states[n].orientation), _matrix(traj.states[n + 1].orientation)
            m = mpmath.matrix([mpmath.mpf(x) for x in (0.5 * (spins[n] + spins[n + 1])).components()])
            exact = (m.T * (r1 * j * r1.T - r0 * j * r0.T) * m)[0] / dt
            error = abs(mpmath.mpf(diagnostics.omega_idot_omega) - exact)
            scale = _EPS * mpmath.mnorm(r1 - r0, "f") * mpmath.mnorm(js, "f") * mpmath.norm(m) ** 2 / dt
            if scale == 0:
                assert error == 0, f"step {n}"
            else:
                worst = max(worst, float(error / scale))
    return worst


@pytest.mark.parametrize("name", ["tumble_midpoint", "forced_euler"])
def test_the_scene_files_omega_idot_is_within_its_rounding_bound(name):
    assert _worst_ratio(*_scene(name)) <= _K


@pytest.mark.parametrize("integrator", INTEGRATORS)
@pytest.mark.parametrize("forced", [False, True], ids=["unforced", "forced"])
@given(data=st.data())
def test_omega_idot_is_within_its_rounding_bound(integrator, forced, data):
    """Drawn runs, with rotated non-diagonal inertias, which are not
    symmetric to the bit, so J_s is not J, and orientations slightly off
    SO(3) in some draws."""
    dt, steps, wrench, s0 = data.draw(_scenes(forced))
    assert _worst_ratio(SimConfig(dt, steps, integrator, wrench), s0) <= _K
