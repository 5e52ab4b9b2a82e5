"""Trajectory bits pinned exactly.

The goldens round to 12 digits and ``test_sim`` compares ``run`` with
``step``, which share every arithmetic primitive, so neither notices a change
in the last bit of a trajectory.  These tests pin two runs to the bit: the
``float.hex`` of every field of the final state, and a sha256 over the
``repr`` of every state and every diagnostic.

Nothing here depends on a LAPACK build: the inverse inertia is a pure-Python
Jacobi solve, and the polar projection U V^T of a pure-Python one-sided Jacobi
SVD.  The forced-Euler run projects (1 + 1e-7) I, whose orthogonal columns
take no rotation, so its polar factor is exactly I, and both bodies have
diagonal moment matrices, which the Jacobi solve inverts to exactly their
reciprocals.
A change that moves a pin changes trajectories; it has to say so, and
``python tests/test_trajectory_bits.py`` prints the new pins.
"""

import hashlib

from screwalg import (
    BodyState,
    InertiaOperator,
    Mat3,
    Point,
    SimConfig,
    Vec3,
    Wrench,
    run,
)


def _body() -> InertiaOperator:
    return InertiaOperator(2.5, Point(0.0, 0.0, 0.0), Mat3(1.25, 0.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0, 3.5))


def _tumble():
    """2000 midpoint steps of a torque-free tumble off every principal axis."""
    body = _body()
    s0 = BodyState(
        orientation=Mat3.identity(),
        center=Point(0.3, -1.2, 0.8),
        linear_momentum=Vec3(0.4, 0.1, -0.7),
        angular_momentum_at_c=body.moment_matrix.matvec(Vec3(0.9, 2.3, -0.4)),
        body=body,
    )
    return run(SimConfig(dt=1e-3, steps=2000, integrator="midpoint"), s0)


def _forced_euler():
    """1500 Euler steps under a constant wrench from rest, starting off SO(3)
    so that step 0 projects the orientation back."""
    body = _body()
    s0 = BodyState(
        orientation=Mat3.identity() * (1.0 + 1e-7),
        center=Point(-0.5, 0.25, 1.0),
        linear_momentum=Vec3.zero(),
        angular_momentum_at_c=Vec3.zero(),
        body=body,
    )
    wrench = Wrench.from_motor(Point(0.2, -0.1, 0.4), Vec3(0.5, -1.0, 2.0), Vec3(0.1, 0.3, -0.2))
    return run(SimConfig(dt=2e-3, steps=1500, integrator="euler", wrench=wrench), s0)


def _pins(traj) -> tuple[tuple[str, ...], str]:
    final = traj.states[-1]
    fields = (
        *final.orientation.flat(),
        *final.center.components(),
        *final.linear_momentum.components(),
        *final.angular_momentum_at_c.components(),
    )
    digest = hashlib.sha256()
    for item in (*traj.states, *traj.diagnostics):
        digest.update(repr(item).encode())
        digest.update(b"\n")
    return tuple(float.hex(x) for x in fields), digest.hexdigest()


TUMBLE_FINAL = (
    "-0x1.33997dbe5756dp-1",
    "-0x1.984ca19f2c748p-1",
    "0x1.c9a72b6d0b875p-5",
    "0x1.7bfc391b05008p-1",
    "-0x1.2a2afa5dcc34cp-1",
    "-0x1.53b65ee5faf2dp-2",
    "0x1.3038c2c6bf799p-2",
    "-0x1.4345b62b2e475p-3",
    "0x1.e228051659ae8p-1",
    "0x1.3d70a3d70a4d8p-1",
    "-0x1.1eb851eb85083p+0",
    "0x1.eb851eb852666p-3",
    "0x1.999999999999ap-2",
    "0x1.999999999999ap-4",
    "-0x1.6666666666666p-1",
    "0x1.2000000000000p+0",
    "0x1.2666666666666p+2",
    "-0x1.6666666666667p+0",
)
TUMBLE_SHA256 = "38facd58af8d75f5c8f872752d3d2be4c7699328909a108b955595b07a3257c6"
FORCED_FINAL = (
    "-0x1.44043002b445dp-2",
    "-0x1.e2c6cec87806dp-1",
    "-0x1.a92392e0b85cap-4",
    "0x1.db672c3efd58bp-1",
    "-0x1.244eaf3f55df7p-2",
    "-0x1.e636044d2ec1cp-3",
    "0x1.8dc7bd617b5b9p-3",
    "-0x1.5f392a72b2c3cp-3",
    "0x1.ee83c549270b6p-1",
    "0x1.98fc504816e44p-2",
    "-0x1.8c7e28240b723p+0",
    "0x1.263f141205b94p+2",
    "0x1.7ffffffffff0bp+0",
    "-0x1.7ffffffffff0bp+1",
    "0x1.7ffffffffff0bp+2",
    "-0x1.ccccccccccda4p+1",
    "-0x1.0cccccccccd06p+2",
    "-0x1.1666666666629p+1",
)
FORCED_SHA256 = "ee91316dd7542770c1f28316d26e04f9a5b457b3ce706688342824811d6e83c3"


def test_midpoint_tumble_bits():
    traj = _tumble()
    assert traj.renormalizations == 0
    assert _pins(traj) == (TUMBLE_FINAL, TUMBLE_SHA256)


def test_forced_euler_bits_through_a_renormalization():
    traj = _forced_euler()
    assert traj.renormalizations >= 1
    assert _pins(traj) == (FORCED_FINAL, FORCED_SHA256)


if __name__ == "__main__":
    for name, traj in (("TUMBLE", _tumble()), ("FORCED", _forced_euler())):
        final, sha = _pins(traj)
        print(f"{name}_FINAL = {final!r}")
        print(f'{name}_SHA256 = "{sha}"')
