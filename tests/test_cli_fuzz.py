"""Fuzz of the command-line contract: random valid scenes through ``cli.main``.

Whatever the scene, ``main`` exits 0, 2 or 3.  A failure writes nothing to
stdout and exactly one line to stderr, a ``--json`` success holds only finite
numbers, and no warning escapes.  Scene components run over the whole float
range: 0, 1e-300..1e300 of either sign, subnormals and 1.7e308.  Whether a
body's inertia is singular does not depend on the units: scaling every
position by k in [1e-150, 1e150] keeps the verdict.
"""

import io
import json
import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from screwalg.cli import main

_MIN_NORMAL = 2.2250738585072014e-308

magnitudes = st.one_of(
    st.just(0.0),
    st.floats(min_value=-300.0, max_value=300.0).map(lambda e: 10.0 ** e),
    st.floats(min_value=5e-324, max_value=_MIN_NORMAL, exclude_max=True),
    st.just(1.7e308),
)
components = st.builds(lambda sign, m: sign * m, st.sampled_from([1.0, -1.0]), magnitudes)
positives = magnitudes.filter(lambda m: m > 0.0)
triples = st.lists(components, min_size=3, max_size=3)


@st.composite
def twists(draw):
    omega = draw(triples)
    if draw(st.booleans()):
        return {"omega": omega, "moment_at_origin": draw(triples)}
    return {"omega": omega, "v_at": [draw(triples), draw(triples)]}


@st.composite
def rotations(draw):
    """Row-major rotation of a random unit quaternion: orthonormal to rounding."""
    q = draw(
        st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=4, max_size=4).filter(
            lambda q: sum(c * c for c in q) > 1e-4
        )
    )
    n = math.sqrt(sum(c * c for c in q))
    w, x, y, z = (c / n for c in q)
    return [
        1.0 - 2.0 * (y * y + z * z), 2.0 * (x * y - z * w), 2.0 * (x * z + y * w),
        2.0 * (x * y + z * w), 1.0 - 2.0 * (x * x + z * z), 2.0 * (y * z - x * w),
        2.0 * (x * z - y * w), 2.0 * (y * z + x * w), 1.0 - 2.0 * (x * x + y * y),
    ]


@st.composite
def sims(draw):
    doc = {
        "dt": draw(positives),
        "steps": draw(st.integers(min_value=1, max_value=3)),
        "integrator": draw(st.sampled_from(["midpoint", "euler"])),
    }
    if draw(st.booleans()):
        doc["wrench"] = {"force": draw(triples), "moment_at_origin": draw(triples)}
    return doc


@st.composite
def masses(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    # None, all or some particles carry a velocity.
    moving = draw(st.sampled_from(["none", "all", "some"]))
    # Independent components rarely make a body that can be simulated; an
    # integer grid times one unit often does, at every unit.
    if draw(st.booleans()):
        unit = draw(positives)
        grid = st.lists(st.integers(-2, 2).map(lambda c: c * unit), min_size=3, max_size=3)
        mass, position = st.sampled_from([1.0, 2.0]), grid
    else:
        mass, position = positives, triples
    out = []
    for i in range(n):
        particle = {"m": draw(mass), "position": draw(position)}
        if moving == "all" or (moving == "some" and i == 0):
            particle["velocity"] = draw(position)
        out.append(particle)
    return out


@st.composite
def requests(draw):
    """A subcommand, its scene document (None for selfcheck) and extra argv."""
    sub = draw(st.sampled_from(["reduce", "compose", "exp", "log", "reciprocal", "simulate", "selfcheck"]))
    extra = []
    if sub == "reduce":
        forces = draw(st.lists(st.fixed_dictionaries({"point": triples, "vector": triples}),
                               min_size=1, max_size=3))
        scene = {"forces": forces}
    elif sub in ("compose", "reciprocal"):
        scene = {"twists": draw(st.lists(twists(), min_size=1, max_size=3))}
    elif sub == "exp":
        scene = {"twists": [draw(twists())]}
        extra = ["--t", repr(draw(components))]
    elif sub == "log":
        scene = {"rigid_map": {"rotation": draw(rotations()), "translation": draw(triples)}}
    elif sub == "simulate":
        scene = {"masses": draw(masses()), "sim": draw(sims())}
    else:
        return sub, None, extra
    return sub, dict(scene, version=1), extra


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def _finite_numbers(value) -> bool:
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(_finite_numbers(v) for v in value.values())
    if isinstance(value, list):
        return all(_finite_numbers(v) for v in value)
    return True


def _run(path, sub, scene, argv):
    if scene is not None:
        path.write_text(json.dumps(scene), encoding="utf-8")
        argv = [sub, str(path), *argv]
    else:
        argv = [sub, *argv]
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


_SUBNORMAL_ROD = {
    "version": 1,
    "masses": [
        {"m": 1.0, "position": [1e-161, 0.0, 0.0], "velocity": [0.0, 1.0, 0.0]},
        {"m": 1.0, "position": [-1e-161, 0.0, 0.0], "velocity": [0.0, -1.0, 0.0]},
    ],
    "sim": {"dt": 0.001, "steps": 1},
}

# A rod whose moment matrix is finite but whose largest principal moment is not.
_HUGE_ROD = {
    "version": 1,
    "masses": [
        {"m": 1.0, "position": [6.1e153, 6.1e153, 6.1e153]},
        {"m": 1.0, "position": [-6.1e153, -6.1e153, -6.1e153]},
    ],
    "sim": {"dt": 0.001, "steps": 1},
}


# A couple whose moment's norm, 2.1e308, is beyond the float range.
_HUGE_COUPLE = {
    "version": 1,
    "forces": [
        {"point": [1.0, -1.0, 0.0], "vector": [0.0, 0.0, 1.5e308]},
        {"point": [0.0, 0.0, 0.0], "vector": [0.0, 0.0, -1.5e308]},
    ],
}


@pytest.mark.filterwarnings("error")
@given(request=requests(), json_mode=st.booleans())
@example(request=("simulate", _SUBNORMAL_ROD, []), json_mode=False)
@example(request=("simulate", _HUGE_ROD, []), json_mode=True)
@example(request=("reduce", _HUGE_COUPLE, []), json_mode=False)
def test_cli_contract_holds_for_random_scenes(tmp_path_factory, request, json_mode):
    sub, scene, argv = request
    path = tmp_path_factory.getbasetemp() / "fuzz_scene.json"
    code, out, err = _run(path, sub, scene, argv + (["--json"] if json_mode else []))
    assert code in (0, 2, 3), (code, err)
    if code != 0:
        assert out == ""
        assert err.endswith("\n") and err.count("\n") == 1, err
        return
    assert err == ""
    if json_mode:
        assert _finite_numbers(json.loads(out, parse_constant=_reject_constant))


# Bodies on an integer grid times a power of two down to 2**-20: singular
# exactly when collinear, and otherwise far from the singularity tolerance, so
# rounding the scaled positions cannot change the verdict.
grid_bodies = st.lists(
    st.tuples(st.sampled_from([1.0, 2.0]), st.lists(st.integers(-2, 2), min_size=3, max_size=3)),
    min_size=2,
    max_size=4,
)


def _singular(path, body, unit):
    scene = {
        "version": 1,
        "masses": [{"m": m, "position": [c * unit for c in position]} for m, position in body],
        "sim": {"dt": 0.001, "steps": 1},
    }
    code, _, err = _run(path, "simulate", scene, [])
    assert code in (0, 3), err
    return "SingularInertiaError" in err


@pytest.mark.filterwarnings("error")
@given(body=grid_bodies, scale=st.integers(-20, 0), exponent=st.floats(min_value=-150.0, max_value=150.0))
@example(body=[(1.0, [1, 0, 0]), (1.0, [-1, 0, 0])], scale=-20, exponent=-150.0)
@example(body=[(1.0, [1, 1, 0]), (2.0, [-1, 0, 2]), (1.0, [0, -2, 1])], scale=0, exponent=150.0)
def test_singular_inertia_does_not_depend_on_the_units(tmp_path_factory, body, scale, exponent):
    path = tmp_path_factory.getbasetemp() / "fuzz_body.json"
    unit = 2.0 ** scale
    assert _singular(path, body, unit * 10.0 ** exponent) == _singular(path, body, unit)
