"""Known weak spots of ``chasles`` (ROADMAP item 2), measured apart from the
timed workloads.

    python perfbench/defects.py --seed 1

The workloads keep their inputs where the program is expected to pass every
check, so that ``correct`` speaks of regressions.  The inputs outside that
domain are run here on every benchmark run, untimed, with the same
tolerances as the workload checks, and their outcomes go to the ``report``
line as ``known_defects``.  They are not counted in ``attempted`` or
``failed``.  A fix of item 2 shows here as ``failed`` falling to 0; the
generators in ``gen.py`` can then widen to these inputs.

- ``small_angle``: the log angle of ``exp_screw(s, 1)`` for angles from
  1e-8 rad (below it chasles documents a pure translation) to 1e-4 rad.
  The acos it uses loses relative accuracy as 1e-16 / angle^2.
- ``large_moment``: ``chasles(exp_screw(s, t))`` for generic angles with a
  moment 1e9 to 1e12 times the rotation.  chasles rebuilds a screw that its
  relative tolerance classifies as free and fails an ``assert``.

The last line of stdout is a JSON summary.
"""

from __future__ import annotations

import argparse
import json
import math
import random

from screwalg import Screw, Vec3, chasles, exp_screw

import gen
from algebra_child import MAP_TOL, ROUNDTRIP_RTOL
from checks import ANGLE_RTOL

ITEMS = 100
MAX_LISTED = 3


def _reference_angle(g) -> float:
    """The angle of a rotation from atan2(|axial part|, tr R - 1), which stays
    accurate near 0."""
    r = g.rotation
    axial = (r.zy - r.yz, r.xz - r.zx, r.yx - r.xy)
    return math.atan2(0.5 * gen.norm(axial), 0.5 * (r.trace() - 1.0))


class _Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[float] = []
        self.examples: list[str] = []

    def add(self, failure: str | None, error: float | None = None) -> None:
        self.attempted += 1
        if error is not None:
            self.errors.append(error)
        if failure:
            self.failed += 1
            if len(self.examples) < MAX_LISTED:
                self.examples.append(failure)

    def as_dict(self) -> dict:
        errs = sorted(self.errors)
        return {"attempted": self.attempted, "failed": self.failed,
                "median_rel_err": errs[len(errs) // 2] if errs else None,
                "worst_rel_err": errs[-1] if errs else None,
                "examples": self.examples}


def small_angle(rng) -> dict:
    tally = _Tally()
    for _ in range(ITEMS):
        w = gen.scale(gen._unit3(rng), gen._log_uniform(rng, -8.0, -4.0))
        m = gen._gauss3(rng, gen._log_uniform(rng, -3.0, 3.0) * gen.norm(w))
        label = f"chasles(exp_screw(Screw({w!r}, {m!r}), 1))"
        try:
            g = exp_screw(Screw(Vec3(*w), Vec3(*m)), 1.0)
            theta = _reference_angle(g)
            angle = chasles(g).angle
        except Exception as e:  # a raise here is one of the outcomes measured
            tally.add(f"{label}: {type(e).__name__}: {e}")
            continue
        err = abs(angle - theta) / theta
        tally.add(f"{label}: angle {angle!r} vs {theta!r}, relative error {err:.2e}"
                  if err > ANGLE_RTOL else None, err)
    return tally.as_dict()


def large_moment(rng) -> dict:
    tally = _Tally()
    for _ in range(ITEMS):
        t = rng.uniform(0.5, 2.0)
        w = gen.scale(gen._unit3(rng), gen.draw_angle(rng, "generic") / t)
        m = gen._gauss3(rng, gen._log_uniform(rng, 9.0, 12.0) * gen.norm(w))
        s = Screw(Vec3(*w), Vec3(*m))
        label = f"chasles(exp_screw(Screw({w!r}, {m!r}), {t!r}))"
        try:
            g = exp_screw(s, t)
            dec = chasles(g)
        except Exception as e:  # a raise here is one of the outcomes measured
            tally.add(f"{label}: {type(e).__name__}: {e}".rstrip(": "))
            continue
        back = dec.to_rigid_map()
        ts = s * t
        got = dec.to_screw()
        err = max((got.resultant - ts.resultant).norm() / ts.resultant.norm(),
                  (got.moment_at_origin - ts.moment_at_origin).norm() / ts.moment_at_origin.norm())
        scale_t = g.translation.norm() + abs(t) * s.moment_at_origin.norm()
        ok = back.rotation.isclose(g.rotation, 0.0, MAP_TOL) and \
            (back.translation - g.translation).norm() <= MAP_TOL * scale_t and err <= ROUNDTRIP_RTOL
        tally.add(None if ok else f"{label}: round trip relative error {err:.2e}", err)
    return tally.as_dict()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    rng = random.Random(args.seed)
    print(json.dumps({"small_angle": small_angle(rng), "large_moment": large_moment(rng)}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
