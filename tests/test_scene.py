import pytest
from hypothesis import given
from hypothesis import strategies as st

from screwalg import (
    InvalidRotationError,
    Point,
    SceneError,
    ScrewAlgError,
    SimConfig,
    Vec3,
    parse_scene,
    scene_from_dict,
)

FULL_SCENE = {
    "version": 1,
    "forces": [
        {"point": [0.0, 0.0, 0.0], "vector": [1.0, 0.0, 0.0]},
        {"point": [1.0, 2.0, 3.0], "vector": [0.0, -1.0, 0.5]},
    ],
    "masses": [
        {"m": 1.0, "position": [1.0, 0.0, 0.0], "velocity": [0.0, 1.0, 0.0]},
        {"m": 2.5, "position": [-1.0, 0.0, 0.0]},
    ],
    "twists": [
        {"omega": [0.0, 0.0, 1.0], "moment_at_origin": [0.1, 0.0, 0.0]},
        {"omega": [0.0, 1.0, 0.0], "v_at": [[1.0, 0.0, 0.0], [0.0, 0.0, -1.0]]},
    ],
    "rigid_map": {
        "rotation": [0.0, -1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0],
        "translation": [0.5, 0.0, 1.0],
    },
    "sim": {
        "dt": 0.001,
        "steps": 10,
        "integrator": "euler",
        "wrench": {"force": [0.0, 0.0, -9.8], "moment_at_origin": [0.0, 0.0, 0.0]},
    },
}


def test_full_scene_parses():
    scene = scene_from_dict(FULL_SCENE)
    assert scene.version == 1
    assert len(scene.forces.forces) == 2
    assert scene.forces.forces[1][0] == Point(1.0, 2.0, 3.0)
    assert len(scene.masses.particles) == 2
    assert scene.masses.particles[0].velocity == Vec3(0.0, 1.0, 0.0)
    assert scene.masses.particles[1].velocity is None
    assert len(scene.twists) == 2
    assert scene.rigid_map.translation == Vec3(0.5, 0.0, 1.0)
    assert scene.sim.dt == 0.001
    assert scene.sim.steps == 10
    assert scene.sim.integrator == "euler"
    assert scene.sim.wrench.force == Vec3(0.0, 0.0, -9.8)


def test_sim_without_an_integrator_parses_to_the_config_default():
    assert scene_from_dict({"version": 1, "sim": {"dt": 0.1, "steps": 2}}).sim == SimConfig(0.1, 2)


def test_minimal_scene_parses():
    scene = scene_from_dict({"version": 1})
    assert scene.forces is None
    assert scene.masses is None
    assert scene.twists is None
    assert scene.rigid_map is None
    assert scene.sim is None


def _reject(data, where_prefix):
    with pytest.raises(SceneError) as exc:
        scene_from_dict(data)
    assert exc.value.where.startswith(where_prefix), exc.value
    return exc.value


def test_unknown_keys_are_rejected_with_their_path():
    _reject({"version": 1, "x": 1}, "$")
    _reject({"version": 1, "forces": [{"point": [0, 0, 0], "vector": [1, 0, 0], "x": 1}]}, "$.forces[0]")
    _reject({"version": 1, "masses": [{"m": 1, "position": [0, 0, 0], "x": 1}]}, "$.masses[0]")
    _reject({"version": 1, "twists": [{"omega": [0, 0, 1], "moment_at_origin": [0, 0, 0], "x": 1}]}, "$.twists[0]")
    _reject({"version": 1, "rigid_map": {"rotation": [1, 0, 0, 0, 1, 0, 0, 0, 1], "translation": [0, 0, 0], "x": 1}}, "$.rigid_map")
    _reject({"version": 1, "sim": {"dt": 0.1, "steps": 1, "x": 1}}, "$.sim")
    _reject({"version": 1, "sim": {"dt": 0.1, "steps": 1, "wrench": {"x": 1}}}, "$.sim.wrench")


def test_version_is_mandatory_and_checked():
    _reject({}, "$.version")
    _reject({"version": 2}, "$.version")
    _reject({"version": True}, "$.version")
    _reject({"version": "1"}, "$.version")


def test_wrong_array_lengths():
    _reject({"version": 1, "forces": [{"point": [0, 0], "vector": [1, 0, 0]}]}, "$.forces[0].point")
    _reject({"version": 1, "forces": [{"point": [0, 0, 0, 0], "vector": [1, 0, 0]}]}, "$.forces[0].point")
    _reject(
        {"version": 1, "rigid_map": {"rotation": [1, 0, 0, 0, 1, 0], "translation": [0, 0, 0]}},
        "$.rigid_map.rotation",
    )
    _reject(
        {"version": 1, "twists": [{"omega": [0, 0, 1], "v_at": [[0, 0, 0]]}]},
        "$.twists[0].v_at",
    )


def test_non_numbers_are_rejected():
    _reject({"version": 1, "forces": [{"point": [0, 0, "a"], "vector": [1, 0, 0]}]}, "$.forces[0].point[2]")
    _reject({"version": 1, "forces": [{"point": [0, 0, True], "vector": [1, 0, 0]}]}, "$.forces[0].point[2]")
    _reject({"version": 1, "masses": [{"m": "heavy", "position": [0, 0, 0]}]}, "$.masses[0].m")


def test_missing_required_keys():
    cases = [
        ({"forces": [{"point": [0, 0, 0]}]}, "$.forces[0]", "vector"),
        ({"masses": [{"position": [0, 0, 0]}]}, "$.masses[0]", "m"),
        ({"twists": [{"moment_at_origin": [0, 0, 0]}]}, "$.twists[0]", "omega"),
        ({"rigid_map": {"rotation": [1, 0, 0, 0, 1, 0, 0, 0, 1]}}, "$.rigid_map", "translation"),
        ({"sim": {"dt": 0.1}}, "$.sim", "steps"),
    ]
    for section, where, key in cases:
        err = _reject({"version": 1, **section}, where)
        assert (err.where, err.message) == (where, f"missing key: {key}")


def test_non_finite_numbers_are_rejected():
    # json.loads accepts NaN, Infinity and integers too large for a float
    cases = [
        ('{"version": 1, "forces": [{"point": [NaN, 0, 0], "vector": [0, 0, 1]}]}', "$.forces[0].point[0]"),
        ('{"version": 1, "sim": {"dt": Infinity, "steps": 1}}', "$.sim.dt"),
        ('{"version": 1, "masses": [{"m": 1%s, "position": [0, 0, 0]}]}' % ("0" * 400), "$.masses[0].m"),
    ]
    for text, where in cases:
        with pytest.raises(SceneError) as exc:
            parse_scene(text)
        assert exc.value.where == where
        assert exc.value.message.startswith("expected a finite number")


def test_mass_must_be_positive():
    _reject({"version": 1, "masses": [{"m": 0.0, "position": [0, 0, 0]}]}, "$.masses[0].m")
    _reject({"version": 1, "masses": [{"m": -1.0, "position": [0, 0, 0]}]}, "$.masses[0].m")


def test_twist_needs_exactly_one_field_form():
    base = {"omega": [0, 0, 1]}
    _reject({"version": 1, "twists": [base]}, "$.twists[0]")
    both = dict(base, moment_at_origin=[0, 0, 0], v_at=[[0, 0, 0], [0, 0, 0]])
    _reject({"version": 1, "twists": [both]}, "$.twists[0]")


def test_both_twist_forms_agree():
    """omega about the z axis through (1, 0, 0), written both ways."""
    doc = {
        "version": 1,
        "twists": [
            {"omega": [0.0, 0.0, 2.0], "moment_at_origin": [0.0, -2.0, 0.0]},
            {"omega": [0.0, 0.0, 2.0], "v_at": [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]},
        ],
    }
    t1, t2 = scene_from_dict(doc).twists
    assert t1.screw == t2.screw


def test_sim_validation():
    _reject({"version": 1, "sim": {"dt": 0.0, "steps": 1}}, "$.sim.dt")
    _reject({"version": 1, "sim": {"dt": 0.1, "steps": 0}}, "$.sim.steps")
    _reject({"version": 1, "sim": {"dt": 0.1, "steps": 2.5}}, "$.sim.steps")
    _reject({"version": 1, "sim": {"dt": 0.1, "steps": True}}, "$.sim.steps")
    _reject({"version": 1, "sim": {"dt": 0.1, "steps": 1, "integrator": "rk4"}}, "$.sim.integrator")


def test_bad_rotation_is_a_domain_error_not_a_scene_error():
    doc = {
        "version": 1,
        "rigid_map": {"rotation": [2, 0, 0, 0, 1, 0, 0, 0, 1], "translation": [0, 0, 0]},
    }
    with pytest.raises(InvalidRotationError):
        scene_from_dict(doc)
    # reflections are rejected too: proper rotations only
    doc["rigid_map"]["rotation"] = [1, 0, 0, 0, 1, 0, 0, 0, -1]
    with pytest.raises(InvalidRotationError):
        scene_from_dict(doc)


def test_parse_scene_reports_json_errors_with_position():
    with pytest.raises(SceneError) as exc:
        parse_scene('{"version": 1,\n  "forces": }')
    assert exc.value.where == "$"
    assert "line 2" in exc.value.message


def test_overlong_json_integer_is_a_scene_error():
    # json.loads raises a plain ValueError past the int-string digit limit
    text = '{"version": 1, "forces": [{"point": [%s, 0, 0], "vector": [0, 0, 1]}]}' % ("9" * 5001)
    with pytest.raises(SceneError) as exc:
        parse_scene(text)
    assert exc.value.where == "$"
    assert exc.value.message.startswith("invalid JSON: ")


def test_deeply_nested_json_is_a_scene_error():
    # json.loads raises RecursionError past the interpreter's recursion limit
    text = '{"version": 1, "forces": %s}' % ("[" * 100000 + "]" * 100000)
    with pytest.raises(SceneError) as exc:
        parse_scene(text)
    assert exc.value.where == "$"
    assert exc.value.message.startswith("invalid JSON: ")


def test_scene_sections_must_have_the_right_shape():
    _reject({"version": 1, "forces": {"point": [0, 0, 0]}}, "$.forces")
    _reject({"version": 1, "rigid_map": [1, 2, 3]}, "$.rigid_map")
    _reject({"version": 1, "sim": "fast"}, "$.sim")


def test_the_first_bad_section_in_parse_order_is_reported():
    # Sections are parsed forces, masses, twists, rigid_map, sim, whatever
    # their order in the document.
    order = ["forces", "masses", "twists", "rigid_map", "sim"]
    for i, key in enumerate(order):
        doc = {"version": 1, **{k: "bad" for k in reversed(order[i:])}}
        assert _reject(doc, "$").where == f"$.{key}"


# -- fuzz: whatever the JSON, parsing fails only with a library error ---------

_KEYS = [
    "version", "forces", "masses", "twists", "rigid_map", "sim", "point",
    "vector", "m", "position", "velocity", "omega", "moment_at_origin", "v_at",
    "rotation", "translation", "dt", "steps", "integrator", "wrench", "force", "x",
]
_numbers = st.one_of(st.integers(), st.floats(), st.integers(min_value=10**308, max_value=10**320))
_leaves = st.one_of(
    st.none(), st.booleans(), _numbers, st.text(max_size=4), st.sampled_from(["midpoint", "euler"])
)
_json = st.recursive(
    _leaves,
    lambda kids: st.one_of(st.lists(kids, max_size=9), st.dictionaries(st.sampled_from(_KEYS), kids, max_size=5)),
    max_leaves=30,
)
# Well-shaped sections with arbitrary contents, so that most documents get
# past the first shape check and into the field parsers.
_triples = st.one_of(st.lists(_numbers, min_size=3, max_size=3), _json)


def _section(required, optional=None):
    return st.one_of(st.fixed_dictionaries(required, optional=optional or {}), _json)


_force = _section({"point": _triples, "vector": _triples})
_particle = _section({"m": _numbers, "position": _triples}, {"velocity": _triples})
_twist = _section({"omega": _triples}, {"moment_at_origin": _triples, "v_at": st.lists(_triples, max_size=3)})
_rigid_map = _section(
    {"rotation": st.one_of(st.lists(_numbers, min_size=9, max_size=9), _json), "translation": _triples}
)
_sim = _section(
    {"dt": _numbers, "steps": _numbers},
    {"integrator": _leaves, "wrench": _section({}, {"force": _triples, "moment_at_origin": _triples})},
)
_scenes = st.fixed_dictionaries(
    {"version": st.just(1)},
    optional={
        "forces": st.one_of(st.lists(_force, max_size=3), _json),
        "masses": st.one_of(st.lists(_particle, max_size=3), _json),
        "twists": st.one_of(st.lists(_twist, max_size=3), _json),
        "rigid_map": _rigid_map,
        "sim": _sim,
    },
)
# Two parts well-shaped scenes to one part arbitrary JSON.
_scene_docs = st.one_of(_scenes, _scenes, _json)


@given(_scene_docs)
def test_scene_from_dict_raises_only_library_errors(doc):
    try:
        scene_from_dict(doc)
    except ScrewAlgError:  # SceneError, or a domain error such as a bad rotation
        pass
