#!/usr/bin/env python3
"""Torque-free top experiment.

Spins a principal-axis body (moments 1, 2, 3) with no applied wrench and
tracks what the momentum-based stepper conserves.  Starting the spin near
the middle principal axis shows the classic tumbling instability: angular
velocity wanders far from its initial direction while kinetic energy and
angular momentum stay put.

    python3 scripts/torque_free_top.py
    python3 scripts/torque_free_top.py --axis middle --dt 1e-3 --steps 20000
"""

import argparse
import math

from screwalg import (
    INTEGRATORS,
    ORIGIN,
    BodyState,
    InertiaOperator,
    Mat3,
    SimConfig,
    Vec3,
    run,
    state_kinetic_energy,
    state_momentum,
    state_twist,
)

AXES = {
    # unit spins: exactly on a principal axis nothing happens, so tip each
    # slightly to make the stability type visible
    "major": Vec3(0.02, 0.02, 1.0).normalized(),
    "middle": Vec3(0.02, 1.0, 0.02).normalized(),
    "minor": Vec3(1.0, 0.02, 0.02).normalized(),
    "skew": Vec3(1.0, 1.0, 1.0).normalized(),
}


def make_state(omega0: Vec3) -> BodyState:
    body = InertiaOperator(
        1.0, ORIGIN, Mat3(1.0, 0.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0, 3.0)
    )
    return BodyState(
        orientation=Mat3.identity(),
        center=ORIGIN,
        linear_momentum=Vec3.zero(),
        angular_momentum_at_c=body.moment_matrix.matvec(omega0),
        body=body,
    )


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--axis", choices=sorted(AXES), default="middle")
    ap.add_argument("--dt", type=float, default=1e-4)
    ap.add_argument("--steps", type=int, default=10_000)
    ap.add_argument("--integrator", choices=INTEGRATORS, default=INTEGRATORS[0])
    ap.add_argument("--report-every", type=int, default=1000)
    args = ap.parse_args()

    omega0 = AXES[args.axis]
    state = make_state(omega0)
    traj = run(SimConfig(dt=args.dt, steps=args.steps, integrator=args.integrator), state)

    t0 = state_kinetic_energy(traj.states[0])
    l0 = state_momentum(traj.states[0]).angular_momentum_at(ORIGIN)

    print(f"axis={args.axis}  omega0={tuple(round(c, 4) for c in omega0.components())}")
    print(f"dt={args.dt}  steps={args.steps}  integrator={args.integrator}")
    print()
    print("  step      time        T drift      |L| drift    angle(w, w0) deg")
    for n in range(0, args.steps + 1, args.report_every):
        s = traj.states[n]
        t_drift = abs(state_kinetic_energy(s) - t0) / t0
        l_n = state_momentum(s).angular_momentum_at(ORIGIN)
        l_drift = (l_n - l0).norm() / l0.norm()
        w = state_twist(s).angular_velocity
        cosang = max(-1.0, min(1.0, w.dot(omega0) / w.norm()))
        angle = math.degrees(math.acos(cosang))
        print(
            f"  {n:<9d} {n * args.dt:<11.4g} {t_drift:<12.3e} {l_drift:<12.3e} {angle:8.2f}"
        )

    worst_estimator = max(abs(d.omega_idot_omega) for d in traj.diagnostics)
    worst_residual = max(d.balance_residual for d in traj.diagnostics)
    print()
    print(f"max |w . dI(w)| estimator: {worst_estimator:.3e}  (exactly zero in the limit)")
    print(f"max balance residual:      {worst_residual:.3e}  (first order in dt)")
    print(f"orientation renormalizations: {traj.renormalizations}")


if __name__ == "__main__":
    main()
