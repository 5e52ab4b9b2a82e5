"""Output checks for the process workloads.

Each check returns a one-line failure reason, or None when the output is
correct.  A failure is a wrong exit code, a traceback, output that does not
parse, a golden that differs by a byte, or a value outside its stated
tolerance.

Reference values are computed here from the scene file, independently of
the program.
"""

from __future__ import annotations

import json
import math
import re

from gen import add, cross, dot, norm, rodrigues, scale, sub

# Machine mode rounds to 12 significant digits, text mode to 6.
JSON_RTOL = 1e-9
TEXT_RTOL = 1e-5
# Relative accuracy asked of the angle a logarithm reports.  The reference
# below (atan2 of the axial part against tr R - 1) is within 3e-16 of the
# generated angle from 1e-12 rad to a half turn; an acos-based log misses
# 1e-6 below about 1e-5 rad, which is why generated angles start at 1e-4
# (see defects.py).
ANGLE_RTOL = 1e-6
AXIS_TOL = 1e-6
# Largest relative kinetic-energy drift accepted over a torque-free
# midpoint run (second-order method, dt <= 1e-3, about 10 s of motion).
ENERGY_DRIFT_TOL = 1e-3

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|inf|nan")


def round_sig(x: float, digits: int = 12) -> float:
    return float(f"{x + 0.0:.{digits}g}")


def _close(a, b, tol) -> bool:
    return all(abs(x - y) <= tol for x, y in zip(a, b)) and len(a) == len(b)


def _numbers(line: str) -> list[float]:
    return [float(x) for x in _NUMBER.findall(line.split(":", 1)[-1])]


def _screws(scene) -> list[tuple]:
    """(omega, value at origin) of each twist in a scene."""
    out = []
    for tw in scene["twists"]:
        w = tuple(tw["omega"])
        if "moment_at_origin" in tw:
            out.append((w, tuple(tw["moment_at_origin"])))
        else:
            p, v = tw["v_at"]
            out.append((w, sub(tuple(v), cross(w, tuple(p)))))
    return out


def _klein(a, b) -> float:
    return dot(a[0], b[1]) + dot(b[0], a[1])


def _exp_reference(w, m, t):
    """Rotation and translation of the flow of (w, m) for time t."""
    omega = norm(w)
    if omega == 0.0:
        return rodrigues((1.0, 0.0, 0.0), 0.0), scale(m, t)
    u = scale(w, 1.0 / omega)
    theta = omega * t
    f1 = 2.0 * math.sin(0.5 * theta) ** 2 / theta
    if theta < 1e-2:
        t2 = theta * theta
        f2 = t2 * (1 / 6 - t2 * (1 / 120 - t2 * (1 / 5040 - t2 / 362880)))
    else:
        f2 = 1.0 - math.sin(theta) / theta
    um = cross(u, m)
    trans = scale(add(add(m, scale(um, f1)), scale(cross(u, um), f2)), t)
    return rodrigues(u, theta), trans


def _log_reference(rm):
    """Angle and the unnormalized axis direction of a rotation, from
    atan2(|axial part|, tr R - 1), which stays accurate near 0 and pi."""
    r = rm["rotation"]
    axial = (r[7] - r[5], r[2] - r[6], r[3] - r[1])
    theta = math.atan2(0.5 * norm(axial), 0.5 * (r[0] + r[4] + r[8] - 1.0))
    return theta, axial


def _angle_error(angle, theta, rtol):
    if abs(angle - theta) > rtol * theta:
        return f"log angle {angle!r} vs {theta!r}: relative error {abs(angle - theta) / theta:.2e}"
    return None


def check_json(sub_: str, scene, doc, t) -> str | None:
    if sub_ == "selfcheck":
        return (None if doc.get("all_ok") is True else "selfcheck reported a failed identity")
    if sub_ == "reduce":
        forces = [(tuple(f["point"]), tuple(f["vector"])) for f in scene["forces"]]
        r = (0.0, 0.0, 0.0)
        m = (0.0, 0.0, 0.0)
        for p, v in forces:
            r, m = add(r, v), add(m, cross(p, v))
        vsum = sum(norm(v) for _, v in forces)
        msum = sum(norm(p) * norm(v) for p, v in forces)
        if not _close(doc["resultant"], r, JSON_RTOL * vsum):
            return "reduce resultant differs from the sum of the forces"
        if abs(doc["scalar_invariant"] - dot(r, m)) > JSON_RTOL * vsum * msum:
            return "reduce scalar invariant differs from R.M"
        pair = doc["two_vector_reduction"]
        pr, pm, pmag = (0.0, 0.0, 0.0), (0.0, 0.0, 0.0), 0.0
        for leg in pair:
            p, v = tuple(leg["point"]), tuple(leg["vector"])
            pr, pm = add(pr, v), add(pm, cross(p, v))
            pmag += norm(p) * norm(v)
        if not (_close(pr, r, JSON_RTOL * (vsum + norm(pr)))
                and _close(pm, m, 10 * JSON_RTOL * (msum + pmag))):
            return "two-vector reduction does not re-sum to the wrench"
        return None
    if sub_ == "compose":
        ws = [w for w, _ in _screws(scene)]
        total = (0.0, 0.0, 0.0)
        for w in ws:
            total = add(total, w)
        if not _close(doc["angular_velocity"], total, JSON_RTOL * sum(map(norm, ws))):
            return "composed angular velocity differs from the sum of omegas"
        return None
    if sub_ == "exp":
        (w, m), = _screws(scene)
        rot, trans = _exp_reference(w, m, t)
        got = doc["rigid_map"]
        if not _close(got["rotation"], rot, JSON_RTOL):
            return "exp rotation differs from Rodrigues' formula"
        if not _close(got["translation"], trans, JSON_RTOL * (norm(m) * abs(t) + norm(trans))):
            return "exp translation differs from the flow integral"
        return None
    if sub_ == "log":
        rm = scene["rigid_map"]
        theta, axial = _log_reference(rm)
        tau = tuple(rm["translation"])
        error = _angle_error(doc["angle"], theta, ANGLE_RTOL)
        if error:
            return error
        if doc["pure_translation"] is not None:
            if not _close(doc["pure_translation"], tau, JSON_RTOL * norm(tau)):
                return "log pure translation differs from the map's translation"
        else:
            d = tuple(doc["axis"]["direction"])
            if norm(cross(d, axial)) > AXIS_TOL * norm(axial):
                return "log axis direction is not along the rotation axis"
            if abs(doc["slide"] - dot(tau, d)) > AXIS_TOL * (norm(tau) + 1e-300):
                return "log slide differs from the translation along the axis"
        return None
    if sub_ == "reciprocal":
        screws = _screws(scene)
        basis = [(tuple(z["resultant"]), tuple(z["moment_at_origin"])) for z in doc["basis"]]
        if len(screws) <= 6 and doc["dimension"] != 6 - len(screws):
            return f"reciprocal dimension {doc['dimension']} for {len(screws)} generic twists"
        for z in basis:
            for s in screws:
                size = (norm(z[0]) + norm(z[1])) * (norm(s[0]) + norm(s[1]))
                if abs(_klein(z, s)) > JSON_RTOL * size:
                    return "reciprocal basis screw does not pair to zero"
        return None
    return f"no check for {sub_}"


def check_text(sub_: str, scene, lines: list[str], t) -> str | None:
    if sub_ == "selfcheck":
        bad = [ln for ln in lines if not ln.startswith("ok ")]
        if bad or not lines:
            return f"selfcheck: {bad[0] if bad else 'no output'}"
        return None
    if not lines:
        return "empty output"
    first = lines[0]
    if sub_ == "reduce":
        r, vsum = (0.0, 0.0, 0.0), 0.0
        for f in scene["forces"]:
            r = add(r, tuple(f["vector"]))
            vsum += norm(tuple(f["vector"]))
        ok = first.startswith("resultant:") and len(lines) == 9 and \
            _close(_numbers(first), r, TEXT_RTOL * vsum)
        return (None if ok else "reduce text output")
    if sub_ == "compose":
        ws = [w for w, _ in _screws(scene)]
        total = (0.0, 0.0, 0.0)
        for w in ws:
            total = add(total, w)
        ok = first.startswith("angular velocity:") and len(lines) == 5 and \
            _close(_numbers(first), total, TEXT_RTOL * sum(map(norm, ws)))
        return (None if ok else "compose text output")
    if sub_ == "exp":
        (w, m), = _screws(scene)
        rot, _ = _exp_reference(w, m, t)
        rows = [_numbers(ln) for ln in lines[2:5]]
        ok = first.startswith("flow parameter t:") and len(lines) == 6 and \
            abs(_numbers(first)[0] - t) <= TEXT_RTOL * abs(t) and \
            _close([x for row in rows for x in row], rot, TEXT_RTOL)
        return (None if ok else "exp text output")
    if sub_ == "log":
        theta, _ = _log_reference(scene["rigid_map"])
        if not first.startswith("angle:") or len(lines) not in (4, 5):
            return "log text output"
        return _angle_error(_numbers(first)[0], theta, TEXT_RTOL)
    if sub_ == "reciprocal":
        n = len(scene["twists"])
        ok = first.startswith("reciprocal subspace dimension:") and \
            int(_numbers(first)[0]) == 6 - n and len(lines) == 1 + 6 - n
        return (None if ok else "reciprocal text output")
    return f"no check for {sub_}"


def check_cli(req, code: int, stdout: bytes, stderr: bytes) -> str | None:
    """Check one ``cli-oneshot`` request; never raises on bad output."""
    if code != 0:
        return f"exit code {code}: {stderr.decode(errors='replace').strip()[-200:]}"
    if stderr:
        return f"unexpected stderr: {stderr.decode(errors='replace').strip()[-200:]}"
    if req["golden"] is not None:
        return (None if stdout == req["golden"] else "output differs from its golden")
    scene = json.loads(req["text"]) if req["text"] else None
    try:
        text = stdout.decode("utf-8")
        if req["mode"] == "json":
            return check_json(req["sub"], scene, json.loads(text), req["t"])
        return check_text(req["sub"], scene, text.splitlines(), req["t"])
    except (ValueError, KeyError, TypeError, IndexError) as e:
        return f"unreadable output ({type(e).__name__}: {e})"


def check_sim(req, code: int, stdout: bytes, stderr: bytes) -> str | None:
    """Check one ``simulate-long`` request; returns a failure reason or None."""
    if code != 0 or b"Traceback" in stderr:
        return f"exit code {code}: {stderr.decode(errors='replace').strip()[-200:]}"
    facts = req["facts"]
    steps = facts["steps"]
    try:
        if req["mode"] == "json":
            doc = json.loads(stdout)
            diags = doc["diagnostics"]
            if doc["steps"] != steps or len(diags) != steps:
                return f"{len(diags)} diagnostics for {steps} steps"
            final = doc["final"]
            if final["linear_momentum"] != [round_sig(x) for x in facts["linear"]] or \
                    final["angular_momentum_at_c"] != [round_sig(x) for x in facts["angular"]]:
                return "torque-free momenta are not conserved bit for bit"
            t0 = diags[0]["kinetic_energy"]
            drift = max(abs(d["kinetic_energy"] - t0) for d in diags) / t0
            if drift > ENERGY_DRIFT_TOL:
                return f"relative energy drift {drift:.2e} above {ENERGY_DRIFT_TOL}"
            return None
        lines = stdout.decode("utf-8").splitlines()
        if len(lines) != steps + 4 or not lines[-2].startswith("final momentum:"):
            return f"{len(lines)} text lines for {steps} steps"
        for row in lines[1:steps + 1]:
            if len(row.split()) != 6:
                return f"malformed diagnostics row {row!r}"
        span = steps * facts["dt"]
        want = add(facts["linear"], scale(facts["force"], span))
        tol = TEXT_RTOL * (norm(facts["linear"]) + norm(facts["force"]) * span)
        if not _close(_numbers(lines[-2]), want, tol):
            return "final momentum differs from p0 + F t"
        return None
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as e:
        return f"unreadable output ({type(e).__name__}: {e})"
