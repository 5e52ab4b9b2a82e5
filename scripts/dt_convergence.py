#!/usr/bin/env python3
"""Step-size convergence study for the momentum stepper.

Fixes a tumbling body under a constant wrench, integrates the same time
window at a sequence of halved steps, and prints the observed orders:

* kinetic-energy error at the final time (first order for euler, second
  for midpoint -- both measured against a much finer reference run);
* the worst per-step balance residual, which is a forward difference and
  should fall off linearly in dt for either integrator;
* the worst per-step |omega . (dI_C/dt)(omega)|, zero along exact motion,
  whose symmetric estimate falls off with the integrator's local error.

With ``--check`` it exits 1 unless every observed order of the T error is
within 0.1 of 1 (euler) or 2 (midpoint), and every order of the residual
within 0.1 of 1.

    python3 scripts/dt_convergence.py
    python3 scripts/dt_convergence.py --levels 6 --base-dt 4e-3
    python3 scripts/dt_convergence.py --check
"""

import argparse
import math
import sys

from screwalg import (
    BodyState,
    MassDistribution,
    Mat3,
    Particle,
    Point,
    SimConfig,
    Vec3,
    Wrench,
    inertia_of,
    run,
    state_kinetic_energy,
)


def make_state() -> BodyState:
    parts = (
        Particle(1.0, Point(1.0, 0.0, 0.0)),
        Particle(1.0, Point(-1.0, 0.0, 0.0)),
        Particle(2.0, Point(0.0, 1.5, 0.0)),
        Particle(1.5, Point(0.0, -0.5, 1.0)),
    )
    body = inertia_of(MassDistribution(parts))
    return BodyState(
        orientation=Mat3.identity(),
        center=Point(0.1, -0.2, 0.3),
        linear_momentum=Vec3(0.5, 0.0, -0.25),
        angular_momentum_at_c=body.moment_matrix.matvec(Vec3(0.6, -0.4, 0.8)),
        body=body,
    )


CHUNK = 2000
WRENCH = Wrench.from_motor(Point(0.0, 0.0, 0.0), Vec3(0.4, -0.2, 0.1), Vec3(0.1, 0.3, -0.2))


ORDERS = {"euler": 1.0, "midpoint": 2.0}  # of the T error; the residual's is 1
ORDER_TOL = 0.1


def final_energy_and_worst_diagnostics(
    state: BodyState, integrator: str, dt: float, steps: int
) -> tuple[float, float, float]:
    """Kinetic energy at the end of the run, its worst balance residual and
    its worst |omega . (dI_C/dt)(omega)|."""
    traj = run(SimConfig(dt=dt, steps=steps, integrator=integrator, wrench=WRENCH), state)
    return (
        state_kinetic_energy(traj.states[-1]),
        max(d.balance_residual for d in traj.diagnostics),
        max(abs(d.omega_idot_omega) for d in traj.diagnostics),
    )


def reference_energy(state: BodyState, dt: float, steps: int) -> float:
    """Kinetic energy after a long midpoint run, stepped in runs of at most
    ``CHUNK`` steps, each from the last state of the one before: a step reads
    only the state, so the end state is that of one run, to the bit, without
    holding every state of it."""
    while steps > 0:
        n = min(CHUNK, steps)
        state = run(SimConfig(dt=dt, steps=n, integrator="midpoint", wrench=WRENCH), state).states[-1]
        steps -= n
    return state_kinetic_energy(state)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base-dt", type=float, default=2e-3)
    ap.add_argument("--base-steps", type=int, default=250)
    ap.add_argument("--levels", type=int, default=4)
    ap.add_argument("--check", action="store_true",
                    help=f"exit 1 unless the T error and residual orders are within {ORDER_TOL} of theirs")
    args = ap.parse_args()

    state = make_state()
    window = args.base_dt * args.base_steps
    print(f"time window {window:g}, base dt {args.base_dt:g}, {args.levels} halvings")

    # reference energy from a run 64x finer than the finest level
    ref_factor = 2 ** (args.levels - 1) * 64
    reference = reference_energy(state, args.base_dt / ref_factor, args.base_steps * ref_factor)

    off = []
    for integrator in ("euler", "midpoint"):
        print(f"\n{integrator}:")
        print("  dt           T error      order    residual     order    |w.dI(w)|    order")
        prev = None
        for level in range(args.levels):
            dt = args.base_dt / 2**level
            steps = args.base_steps * 2**level
            energy, res, wdw = final_energy_and_worst_diagnostics(state, integrator, dt, steps)
            row = (abs(energy - reference), res, wdw)
            orders = [] if prev is None else [math.log2(a / b) for a, b in zip(prev, row)]
            shown = [f"{o:.2f}" for o in orders] or [""] * len(row)
            print(f"  {dt:<12.4g} " + " ".join(f"{x:<12.3e} {o:<8}" for x, o in zip(row, shown)).rstrip())
            for name, want, got in zip(("T error", "residual"), (ORDERS[integrator], 1.0), orders):
                if not abs(got - want) <= ORDER_TOL:
                    off.append(f"{integrator} {name} order {got:.2f} at dt {dt:g}, want {want:g}")
            prev = row
    if args.check:
        for line in off:
            print(f"check: {line}", file=sys.stderr)
        print(f"\ncheck: {'failed' if off else 'ok'}")
        sys.exit(1 if off else 0)


if __name__ == "__main__":
    main()
