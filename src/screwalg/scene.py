"""Scene files: the JSON input format of the command-line tool.

A scene is one JSON object with a mandatory ``version`` (currently 1) and
any of the sections ``forces``, ``masses``, ``twists``, ``rigid_map`` and
``sim``.  Parsing is strict: unknown keys anywhere, wrong array lengths and
non-numeric or non-finite entries are rejected with the JSON path of the
offending field, so typos fail loudly instead of silently defaulting.

Structural problems raise ``SceneError`` (the CLI maps these to exit code 2).
Values that are well-formed but geometrically unacceptable, such as a
rotation block that is not orthonormal, surface later as domain errors.
"""

from __future__ import annotations

import json
import sys

from .dynamics import ForceSystem, MassDistribution, Particle, Wrench
from .errors import SceneError
from .kinematics import Twist
from .rigid import RigidMap
from .screw import Screw
from .sim import INTEGRATORS, SimConfig
from .vecmath import Mat3, Point, Vec3, _Value

__all__ = ["Scene", "parse_scene", "scene_from_dict"]

SCENE_VERSION = 1

_TOP_KEYS = {"version", "forces", "masses", "twists", "rigid_map", "sim"}


class Scene(_Value):
    __slots__ = ("version", "forces", "masses", "twists", "rigid_map", "sim")

    def __init__(
        self,
        version: int,
        forces: ForceSystem | None = None,
        masses: MassDistribution | None = None,
        twists: tuple[Twist, ...] | None = None,
        rigid_map: RigidMap | None = None,
        sim: SimConfig | None = None,
    ):
        self._store(version, forces, masses, twists, rigid_map, sim)


def _require_object(value, path: str, allowed: set[str], required: tuple[str, ...] = ()) -> dict:
    if not isinstance(value, dict):
        raise SceneError(path, f"expected an object, got {type(value).__name__}")
    unknown = set(value) - allowed
    if unknown:
        raise SceneError(path, f"unknown key(s): {', '.join(sorted(unknown))}")
    for key in required:
        if key not in value:
            raise SceneError(path, f"missing key: {key}")
    return value


def _require_list(value, path: str) -> list:
    if not isinstance(value, list):
        raise SceneError(path, f"expected an array, got {type(value).__name__}")
    return value


def _number(value, path: str) -> float:
    # bool is an int subclass; keep true/false out of numeric slots.
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SceneError(path, f"expected a number, got {value!r}")
    # json.loads admits NaN, Infinity and integers beyond the float range.
    if not abs(value) <= sys.float_info.max:
        raise SceneError(path, f"expected a finite number, got {value!r}")
    return float(value)


def _triple(value, path: str) -> tuple[float, float, float]:
    items = _require_list(value, path)
    if len(items) != 3:
        raise SceneError(path, f"expected 3 numbers, got {len(items)}")
    return tuple(_number(v, f"{path}[{i}]") for i, v in enumerate(items))


def _vec3(value, path: str) -> Vec3:
    return Vec3(*_triple(value, path))


def _point(value, path: str) -> Point:
    return Point(*_triple(value, path))


def _parse_forces(value, path: str) -> ForceSystem:
    entries = []
    for i, item in enumerate(_require_list(value, path)):
        here = f"{path}[{i}]"
        obj = _require_object(item, here, {"point", "vector"}, ("point", "vector"))
        entries.append((_point(obj["point"], f"{here}.point"),
                        _vec3(obj["vector"], f"{here}.vector")))
    return ForceSystem(tuple(entries))


def _parse_masses(value, path: str) -> MassDistribution:
    particles = []
    for i, item in enumerate(_require_list(value, path)):
        here = f"{path}[{i}]"
        obj = _require_object(item, here, {"m", "position", "velocity"}, ("m", "position"))
        m = _number(obj["m"], f"{here}.m")
        if not m > 0.0:
            raise SceneError(f"{here}.m", "mass must be positive")
        velocity = None
        if "velocity" in obj:
            velocity = _vec3(obj["velocity"], f"{here}.velocity")
        particles.append(
            Particle(m, _point(obj["position"], f"{here}.position"), velocity)
        )
    return MassDistribution(tuple(particles))


def _parse_twists(value, path: str) -> tuple[Twist, ...]:
    twists = []
    for i, item in enumerate(_require_list(value, path)):
        here = f"{path}[{i}]"
        obj = _require_object(item, here, {"omega", "moment_at_origin", "v_at"}, ("omega",))
        omega = _vec3(obj["omega"], f"{here}.omega")
        has_motor = "moment_at_origin" in obj
        has_v_at = "v_at" in obj
        if has_motor == has_v_at:
            raise SceneError(here, "give exactly one of moment_at_origin or v_at")
        if has_motor:
            value_at_origin = _vec3(obj["moment_at_origin"], f"{here}.moment_at_origin")
            twists.append(Twist.from_motor(Point(0.0, 0.0, 0.0), omega, value_at_origin))
        else:
            pair = _require_list(obj["v_at"], f"{here}.v_at")
            if len(pair) != 2:
                raise SceneError(f"{here}.v_at", "expected [point, velocity]")
            p = _point(pair[0], f"{here}.v_at[0]")
            v = _vec3(pair[1], f"{here}.v_at[1]")
            twists.append(Twist.from_motor(p, omega, v))
    return tuple(twists)


def _parse_rigid_map(value, path: str) -> RigidMap:
    obj = _require_object(value, path, {"rotation", "translation"}, ("rotation", "translation"))
    rot_items = _require_list(obj["rotation"], f"{path}.rotation")
    if len(rot_items) != 9:
        raise SceneError(f"{path}.rotation", f"expected 9 numbers (row-major), got {len(rot_items)}")
    entries = [_number(v, f"{path}.rotation[{i}]") for i, v in enumerate(rot_items)]
    translation = _vec3(obj["translation"], f"{path}.translation")
    # Orthonormality is checked by RigidMap itself; a failure there is a
    # domain error, not a malformed file.
    return RigidMap(Mat3(*entries), translation)


def _parse_sim(value, path: str) -> SimConfig:
    obj = _require_object(value, path, {"dt", "steps", "integrator", "wrench"}, ("dt", "steps"))
    dt = _number(obj["dt"], f"{path}.dt")
    if not dt > 0.0:
        raise SceneError(f"{path}.dt", "dt must be positive")
    steps_raw = obj["steps"]
    if isinstance(steps_raw, bool) or not isinstance(steps_raw, int):
        raise SceneError(f"{path}.steps", f"expected an integer, got {steps_raw!r}")
    if steps_raw < 1:
        raise SceneError(f"{path}.steps", "steps must be at least 1")
    integrator = obj.get("integrator", "midpoint")
    if integrator not in INTEGRATORS:
        raise SceneError(f"{path}.integrator", f"unknown integrator {integrator!r}")
    wrench = None
    if "wrench" in obj:
        wobj = _require_object(obj["wrench"], f"{path}.wrench", {"force", "moment_at_origin"})
        force = Vec3.zero()
        moment = Vec3.zero()
        if "force" in wobj:
            force = _vec3(wobj["force"], f"{path}.wrench.force")
        if "moment_at_origin" in wobj:
            moment = _vec3(wobj["moment_at_origin"], f"{path}.wrench.moment_at_origin")
        wrench = Wrench(Screw(force, moment))
    return SimConfig(dt=dt, steps=steps_raw, integrator=integrator, wrench=wrench)


def scene_from_dict(data) -> Scene:
    obj = _require_object(data, "$", _TOP_KEYS)
    if "version" not in obj:
        raise SceneError("$.version", "missing key: version")
    version = obj["version"]
    if isinstance(version, bool) or not isinstance(version, int) or version != SCENE_VERSION:
        raise SceneError("$.version", f"unsupported version {version!r}, expected {SCENE_VERSION}")
    kwargs = {}
    if "forces" in obj:
        kwargs["forces"] = _parse_forces(obj["forces"], "$.forces")
    if "masses" in obj:
        kwargs["masses"] = _parse_masses(obj["masses"], "$.masses")
    if "twists" in obj:
        kwargs["twists"] = _parse_twists(obj["twists"], "$.twists")
    if "rigid_map" in obj:
        kwargs["rigid_map"] = _parse_rigid_map(obj["rigid_map"], "$.rigid_map")
    if "sim" in obj:
        kwargs["sim"] = _parse_sim(obj["sim"], "$.sim")
    return Scene(version=version, **kwargs)


def parse_scene(text: str) -> Scene:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise SceneError("$", f"invalid JSON at line {e.lineno} column {e.colno}: {e.msg}")
    except (ValueError, RecursionError) as e:
        # Well-formed JSON that json.loads still cannot convert, e.g. an
        # integer beyond the interpreter's digit limit or nesting deeper
        # than its recursion limit.
        raise SceneError("$", f"invalid JSON: {e}")
    return scene_from_dict(data)
