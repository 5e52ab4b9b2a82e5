"""Seeded input generator for the benchmark.

Every input comes from ``random.Random(seed)``: the same seed gives
byte-identical scene files and the same algebra call stream.  The mix of
request kinds, and the sizes that set a request's cost (particles, steps,
forces, screws per call), follow a fixed schedule that does not depend on the
seed; the seed draws the values.  That keeps the cost of a run comparable
across seeds while still varying the properties the program's behaviour
depends on: particle count, step count, integrator and wrench; rotation
angles near 0, generic and near pi; screw scale from 1e-6 to 1e6; zero, free
and line screws.

The timed inputs stay inside the domain where the program is expected to
pass its checks.  Two weak spots of ``chasles`` (ROADMAP item 2) lie outside
it and are measured apart, in ``defects.py``: its acos angle loses relative
accuracy below about 1e-4 rad, and it raises when the rotation is below about
1e-9 of the translation.

Vectors here are plain tuples of floats; nothing in this module imports the
program under test.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

SUBCOMMANDS = ("reduce", "compose", "exp", "log", "reciprocal", "selfcheck")
MODES = ("json", "text")
SIM_KINDS = ("tumble", "forced")
SCREW_KINDS = ("line", "pure-line", "free", "zero")
ANGLE_CLASSES = ("small", "generic", "half-turn")
SIM_STEPS = (9000, 11000)


# -- tuple vector helpers -------------------------------------------------------

def add(a, b):
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def sub(a, b):
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def scale(a, k):
    return (a[0] * k, a[1] * k, a[2] * k)


def dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def norm(a):
    return math.sqrt(dot(a, a))


def unit(a):
    return scale(a, 1.0 / norm(a))


def rodrigues(u, theta):
    """Row-major rotation by theta about the unit vector u, using the
    cancellation-free 1 - cos t = 2 sin^2(t/2)."""
    s = math.sin(theta)
    c1 = 2.0 * math.sin(0.5 * theta) ** 2
    x, y, z = u
    return (
        1.0 - c1 * (y * y + z * z), -s * z + c1 * x * y, s * y + c1 * x * z,
        s * z + c1 * x * y, 1.0 - c1 * (x * x + z * z), -s * x + c1 * y * z,
        -s * y + c1 * x * z, s * x + c1 * y * z, 1.0 - c1 * (x * x + y * y),
    )


def matvec(r, v):
    return (
        r[0] * v[0] + r[1] * v[1] + r[2] * v[2],
        r[3] * v[0] + r[4] * v[1] + r[5] * v[2],
        r[6] * v[0] + r[7] * v[1] + r[8] * v[2],
    )


def _gauss3(rng, s=1.0):
    return (rng.gauss(0.0, s), rng.gauss(0.0, s), rng.gauss(0.0, s))


def _unit3(rng):
    while True:
        v = _gauss3(rng)
        n = norm(v)
        if n > 1e-3:
            return scale(v, 1.0 / n)


def _log_uniform(rng, lo_exp, hi_exp):
    return 10.0 ** rng.uniform(lo_exp, hi_exp)


def draw_angle(rng, angle_class):
    """A rotation angle in (0, pi): near 0, generic, or just short of a half
    turn (the principal branch of the logarithm ends at pi).  Small angles
    stop at 1e-4 rad; smaller ones belong to ``defects.py``."""
    if angle_class == "small":
        return _log_uniform(rng, -4.0, -2.0)
    if angle_class == "half-turn":
        return math.pi - _log_uniform(rng, -9.0, -5.0)
    return rng.uniform(0.1, 3.0)


def scene_text(scene: dict) -> str:
    return json.dumps(scene, indent=1) + "\n"


# -- cli-oneshot ----------------------------------------------------------------

def _forces_scene(rng):
    s, arm = _log_uniform(rng, -3, 3), _log_uniform(rng, -3, 3)
    forces = [{"point": list(_gauss3(rng, arm)), "vector": list(_gauss3(rng, s))}
              for _ in range(rng.randint(1, 50))]
    return {"version": 1, "forces": forces}


def _twist_entry(rng, omega, moment):
    if rng.random() < 0.5:
        return {"omega": list(omega), "moment_at_origin": list(moment)}
    # The same twist given by its velocity at some point P:
    # v(P) = v(O) + omega x P.
    p = _gauss3(rng, _log_uniform(rng, -2, 2))
    return {"omega": list(omega), "v_at": [list(p), list(add(moment, cross(omega, p)))]}


def _twists_scene(rng, n):
    s = _log_uniform(rng, -3, 3)
    return {"version": 1, "twists": [_twist_entry(rng, _gauss3(rng, s), _gauss3(rng, s))
                                     for _ in range(n)]}


def _exp_request(rng, angle_class):
    theta = draw_angle(rng, angle_class)
    t = rng.uniform(0.5, 2.0)
    omega = scale(_unit3(rng), theta / t)
    moment = _gauss3(rng, _log_uniform(rng, -3, 3))
    return {"version": 1, "twists": [{"omega": list(omega), "moment_at_origin": list(moment)}]}, t


def _log_scene(rng, angle_class):
    theta = draw_angle(rng, angle_class)
    u = _unit3(rng)
    rot = rodrigues(u, theta)
    length = _log_uniform(rng, -3, 3)
    # A screw motion about the line through c along u, sliding h along it.
    c = _gauss3(rng, length)
    h = rng.gauss(0.0, length)
    trans = add(sub(c, matvec(rot, c)), scale(u, h))
    return {"version": 1, "rigid_map": {"rotation": list(rot), "translation": list(trans)}}


def cli_requests(rng: random.Random, rounds: int, fixtures: dict[str, str],
                 goldens: dict[tuple[str, str], bytes]) -> list[dict]:
    """The request sequence of ``cli-oneshot``: ``rounds`` rounds, each with
    every subcommand in both output modes.  Even rounds run the golden cases
    on their fixture scenes; the rest of the requests get generated scenes.

    A request is ``{"sub", "mode", "scene" (name or None), "text" (scene
    file contents or None), "t" (exp only), "golden" (bytes or None)}``."""
    golden_for = {sub: [(sub, scene) for (s, scene) in sorted(goldens) if s == sub]
                  for sub in SUBCOMMANDS}
    requests = []
    for r in range(rounds):
        for sub in SUBCOMMANDS:
            for mode in MODES:
                req = {"sub": sub, "mode": mode, "scene": None, "text": None,
                       "t": None, "golden": None}
                cases = golden_for[sub]
                if sub == "selfcheck":
                    pass
                elif r % 2 == 0 and mode == "json" and cases:
                    key = cases[(r // 2) % len(cases)]
                    req.update(scene=key[1], text=fixtures[key[1]], golden=goldens[key])
                else:
                    angle_class = ANGLE_CLASSES[(r + len(requests)) % 3]
                    if sub == "reduce":
                        scene = _forces_scene(rng)
                    elif sub == "compose":
                        scene = _twists_scene(rng, rng.randint(1, 6))
                    elif sub == "reciprocal":
                        scene = _twists_scene(rng, rng.randint(1, 6))
                    elif sub == "exp":
                        scene, req["t"] = _exp_request(rng, angle_class)
                    else:
                        scene = _log_scene(rng, angle_class)
                    req.update(scene=f"gen-{len(requests)}", text=scene_text(scene))
                if sub == "exp" and req["t"] is None:
                    req["t"] = 1.0
                requests.append(req)
    return requests


# -- simulate-long --------------------------------------------------------------

def _jacobi_eigen(a):
    """Eigenvalues and unit eigenvectors (as columns) of a symmetric 3x3
    matrix given as nested lists, by cyclic Jacobi rotations."""
    a = [row[:] for row in a]
    v = [[1.0 if i == j else 0.0 for j in range(3)] for i in range(3)]
    for _ in range(50):
        off = sum(a[i][j] ** 2 for i in range(3) for j in range(3) if i != j)
        if off < 1e-30 * sum(a[i][i] ** 2 for i in range(3)):
            break
        for p, q in ((0, 1), (0, 2), (1, 2)):
            if a[p][q] == 0.0:
                continue
            phi = 0.5 * math.atan2(2.0 * a[p][q], a[q][q] - a[p][p])
            c, s = math.cos(phi), math.sin(phi)
            for k in range(3):
                akp, akq = a[k][p], a[k][q]
                a[k][p], a[k][q] = c * akp - s * akq, s * akp + c * akq
            for k in range(3):
                apk, aqk = a[p][k], a[q][k]
                a[p][k], a[q][k] = c * apk - s * aqk, s * apk + c * aqk
            for k in range(3):
                vkp, vkq = v[k][p], v[k][q]
                v[k][p], v[k][q] = c * vkp - s * vkq, s * vkp + c * vkq
    return [a[i][i] for i in range(3)], [tuple(v[k][i] for k in range(3)) for i in range(3)]


def _dyadic(x, bits):
    return round(x * 2 ** bits) / 2 ** bits


def _body(rng, n):
    """n particles with dyadic positions and integer masses whose total is a
    power of two, so the center of mass and every initial momentum are exact
    in floating point and can be reproduced bit for bit.  Rejects bodies
    whose principal moments are nearly singular or nearly equal, because the
    tumble needs a well-defined middle axis."""
    while True:
        masses = [rng.randint(1, 4) for _ in range(n - 1)]
        total = 2 ** max(3, (sum(masses) + 1).bit_length())
        masses.append(total - sum(masses))
        shift = tuple(_dyadic(rng.uniform(-2, 2), 4) for _ in range(3))
        pos = [tuple(_dyadic(rng.uniform(-3, 3), 4) + shift[k] for k in range(3))
               for _ in range(n)]
        c = tuple(sum(m * p[k] for m, p in zip(masses, pos)) / total for k in range(3))
        inertia = [[0.0] * 3 for _ in range(3)]
        for m, p in zip(masses, pos):
            d = sub(p, c)
            for i in range(3):
                for j in range(3):
                    inertia[i][j] += m * ((dot(d, d) if i == j else 0.0) - d[i] * d[j])
        evals, evecs = _jacobi_eigen(inertia)
        order = sorted(range(3), key=lambda i: evals[i])
        lo, mid, hi = (evals[i] for i in order)
        if lo > 0.05 * hi and mid - lo > 0.1 * hi and hi - mid > 0.1 * hi:
            return masses, pos, c, evecs[order[1]]


def _exact_momenta(masses, pos, vel, c):
    """Linear momentum and angular momentum about c, evaluated exactly as
    L_c = sum p_i x m_i v_i + P x c; every term is a dyadic rational, so the
    program gets the same floats whatever order it sums in."""
    fm = [Fraction(m) for m in masses]
    lin = [sum(m * Fraction(v[k]) for m, v in zip(fm, vel)) for k in range(3)]
    ang = [Fraction(0)] * 3
    for m, p, v in zip(fm, pos, vel):
        p = [Fraction(x) for x in p]
        mv = [m * Fraction(x) for x in v]
        ang = [ang[0] + p[1] * mv[2] - p[2] * mv[1],
               ang[1] + p[2] * mv[0] - p[0] * mv[2],
               ang[2] + p[0] * mv[1] - p[1] * mv[0]]
    cc = [Fraction(x) for x in c]
    ang = [ang[0] + lin[1] * cc[2] - lin[2] * cc[1],
           ang[1] + lin[2] * cc[0] - lin[0] * cc[2],
           ang[2] + lin[0] * cc[1] - lin[1] * cc[0]]
    return tuple(float(x) for x in lin), tuple(float(x) for x in ang)


def sim_scene(rng: random.Random, kind: str, n: int, steps: int) -> tuple[dict, dict]:
    """One ``simulate-long`` scene of ``n`` particles and ``steps`` steps, and
    the facts its check needs.

    ``tumble``: torque-free spin close to the middle principal axis, midpoint
    integrator, run with ``--json``.  ``forced``: a constant wrench on a body
    that starts with some drift, euler integrator, text output."""
    masses, pos, c, axis = _body(rng, n)
    dt = _dyadic(rng.uniform(0.6e-3, 1.0e-3), 20)
    if kind == "tumble":
        spin = rng.uniform(1.0, 2.0)
        omega = scale(add(axis, scale(_unit3(rng), 0.01)), spin)
        drift = (0.0, 0.0, 0.0)
    else:
        omega = scale(_unit3(rng), rng.uniform(0.2, 1.0))
        drift = _gauss3(rng, 0.5)
    vel = [tuple(_dyadic(x, 16) for x in add(drift, cross(omega, sub(p, c)))) for p in pos]
    particles = [{"m": float(m), "position": list(p), "velocity": list(v)}
                 for m, p, v in zip(masses, pos, vel)]
    sim = {"dt": dt, "steps": steps,
           "integrator": "midpoint" if kind == "tumble" else "euler"}
    if kind == "forced":
        sim["wrench"] = {"force": list(_gauss3(rng, 2.0)),
                         "moment_at_origin": list(_gauss3(rng, 0.5))}
    linear, angular = _exact_momenta(masses, pos, vel, c)
    facts = {"kind": kind, "steps": steps, "dt": dt, "linear": linear, "angular": angular,
             "force": tuple(sim["wrench"]["force"]) if kind == "forced" else (0.0, 0.0, 0.0)}
    return {"version": 1, "masses": particles, "sim": sim}, facts


def sim_requests(rng: random.Random, count: int) -> list[dict]:
    """``count`` requests alternating between the two simulate kinds.
    Particle counts (3-8) and step counts (9000-11000) follow a fixed
    schedule, so the work of a run does not depend on the seed."""
    out = []
    for i in range(count):
        kind = SIM_KINDS[i % 2]
        n = 3 + (i // 2) % 6
        steps = SIM_STEPS[0] + (i // 2 * 700) % (SIM_STEPS[1] - SIM_STEPS[0] + 1)
        scene, facts = sim_scene(rng, kind, n, steps)
        out.append({"kind": kind, "mode": "json" if kind == "tumble" else "text",
                    "scene": f"sim-{i}", "text": scene_text(scene), "facts": facts})
    return out


# -- algebra-mix ----------------------------------------------------------------

def _screw(rng, kind, s):
    """(resultant, moment at origin) of a screw of the given kind at scale s."""
    if kind == "zero":
        return (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)
    if kind == "free":
        return (0.0, 0.0, 0.0), _gauss3(rng, s)
    w = _gauss3(rng, s)
    p = _gauss3(rng, rng.uniform(0.1, 10.0))
    moment = cross(p, w)  # applied vector through p: zero pitch
    if kind == "line":
        moment = add(moment, scale(w, rng.gauss(0.0, 1.0)))
    return w, moment


def _scale(rng):
    return _log_uniform(rng, -6, 6)


# One template round of the call stream: each operation once per screw kind,
# and the exp/log round trip once per angle class.
STREAM_TEMPLATE = (
    [(op, kind) for op in ("value_at", "commutator", "klein_product", "axis", "pitch",
                           "decompose_two_applied")
     for kind in SCREW_KINDS]
    + [("roundtrip", angle_class) for angle_class in ANGLE_CLASSES]
    + [("central_axis_report", None), ("compose_chain", None), ("reciprocal_subspace", None)]
)


def algebra_stream(rng: random.Random, rounds: int) -> list[tuple]:
    """``rounds`` template rounds of ``(op, kind, args)`` items; ``args`` are
    nested tuples of floats.  Input sizes (forces per report, screws per
    chain or subspace) follow a fixed schedule over the rounds, so the cost
    of a pass does not depend on the seed."""
    items = []
    for r in range(rounds):
        for op, kind in STREAM_TEMPLATE:
            if op == "value_at":
                args = (_screw(rng, kind, _scale(rng)), _gauss3(rng, _log_uniform(rng, -3, 3)))
            elif op in ("commutator", "klein_product"):
                # Three screws, so the check can apply Jacobi and invariance.
                args = tuple(_screw(rng, k, _scale(rng))
                             for k in (kind, rng.choice(SCREW_KINDS), rng.choice(SCREW_KINDS)))
            elif op in ("axis", "pitch", "decompose_two_applied"):
                args = (_screw(rng, kind, _scale(rng)),)
            elif op == "roundtrip":
                theta = draw_angle(rng, kind)
                t = rng.uniform(0.5, 2.0)
                w = scale(_unit3(rng), theta / t)
                # The moment is |w| times a length from 1e-6 to 1e6.
                args = ((w, _gauss3(rng, _scale(rng) * theta / t)), t)
            elif op == "central_axis_report":
                s, arm = _scale(rng), _log_uniform(rng, -3, 3)
                args = tuple((_gauss3(rng, arm), _gauss3(rng, s))
                             for _ in range(1 + (13 * r) % 50))
            else:  # compose_chain, reciprocal_subspace: 1-6 screws at one scale
                s = _scale(rng)
                args = tuple(_screw(rng, "line", s) for _ in range(1 + r % 6))
            items.append((op, kind, args))
    return items
