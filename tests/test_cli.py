"""End-to-end tests of the command-line tool: exit codes, output documents,
and the exp/log round trip through actual CLI invocations."""

import io
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from screwalg import NonFiniteError, Point, Screw, Vec3, exp_screw
from screwalg import cli
from screwalg.cli import main

TESTS = Path(__file__).resolve().parent
SCENES = TESTS / "scenes"
GOLDENS = TESTS / "goldens"

SINGLE_FORCE = {
    "version": 1,
    "forces": [{"point": [1.0, 0.0, 0.0], "vector": [0.0, 0.0, 2.0]}],
}

ROTATION_COUPLE = {
    "version": 1,
    "twists": [
        {"omega": [0.0, 0.0, 3.0], "moment_at_origin": [0.0, 0.0, 0.0]},
        {"omega": [0.0, 0.0, -3.0], "v_at": [[2.0, 0.0, 0.0], [0.0, 0.0, 0.0]]},
    ],
}

SCREW_MOTION = {
    "version": 1,
    "twists": [{"omega": [0.0, 0.0, 1.0], "moment_at_origin": [0.3, 0.0, 0.5]}],
}

REVOLUTE = {
    "version": 1,
    "twists": [{"omega": [0.0, 0.0, 1.0], "moment_at_origin": [0.0, 0.0, 0.0]}],
}

TUMBLE = {
    "version": 1,
    "masses": [
        {"m": 1.0, "position": [1.0, 0.0, 0.0], "velocity": [0.0, 0.5, 0.0]},
        {"m": 1.0, "position": [-1.0, 0.0, 0.0], "velocity": [0.0, -0.5, 0.0]},
        {"m": 2.0, "position": [0.0, 1.0, 0.0], "velocity": [0.0, 0.0, 0.3]},
        {"m": 1.0, "position": [0.0, 0.0, 1.5], "velocity": [0.2, 0.0, 0.0]},
    ],
    "sim": {"dt": 0.001, "steps": 5},
}


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def scene_file(tmp_path, doc, name="scene.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


# -- reduce -------------------------------------------------------------------


def test_reduce_human_output(tmp_path):
    code, out, err = run_cli("reduce", scene_file(tmp_path, SINGLE_FORCE))
    assert code == 0 and err == ""
    assert "resultant:        [0, 0, 2]" in out
    assert "scalar invariant: 0" in out
    assert "two-vector reduction:" in out
    assert "axis:             line through" in out


def test_reduce_json_output(tmp_path):
    code, out, err = run_cli("reduce", scene_file(tmp_path, SINGLE_FORCE), "--json")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["resultant"] == [0.0, 0.0, 2.0]
    assert doc["amplitude"] == 2.0
    assert doc["pitch"] == {"kind": "finite", "value": 0.0}
    assert doc["axis"]["kind"] == "line"
    # the axis of a single applied force passes through its application point
    assert doc["axis"]["point"] == [1.0, 0.0, 0.0]
    legs = doc["two_vector_reduction"]
    assert len(legs) == 2
    total = [a + b for a, b in zip(legs[0]["vector"], legs[1]["vector"])]
    assert total == [0.0, 0.0, 2.0]


def test_reduce_legs_re_sum_to_the_wrench_at_small_units(tmp_path):
    # The three_forces scene in units 1e-13 of its own: the couple part of
    # its pitch-1.01889 wrench must survive in the two-vector reduction.
    doc = json.loads((SCENES / "three_forces.json").read_text())
    for force in doc["forces"]:
        force["vector"] = [c * 1e-13 for c in force["vector"]]
    code, out, err = run_cli("reduce", scene_file(tmp_path, doc), "--json")
    assert code == 0 and err == ""
    wrench = sum(
        (Screw.from_applied_vector(Point(*f["point"]), Vec3(*f["vector"])) for f in doc["forces"]),
        Screw.zero(),
    )
    legs = sum(
        (
            Screw.from_applied_vector(Point(*leg["point"]), Vec3(*leg["vector"]))
            for leg in json.loads(out)["two_vector_reduction"]
        ),
        Screw.zero(),
    )
    assert (legs * 1e13).isclose(wrench * 1e13, rel=1e-10, abs_=1e-10)
    assert math.isclose(legs.pitch().value, 1.01889491468, rel_tol=1e-10)


def test_reduce_of_cancelling_forces_is_a_domain_error(tmp_path):
    doc = {
        "version": 1,
        "forces": [
            {"point": [1.0, 0.0, 0.0], "vector": [0.0, 0.0, 2.0]},
            {"point": [1.0, 0.0, 0.0], "vector": [0.0, 0.0, -2.0]},
        ],
    }
    code, out, err = run_cli("reduce", scene_file(tmp_path, doc))
    assert code == 3
    assert "domain error (ZeroScrewError)" in err


# -- compose ------------------------------------------------------------------


def test_compose_couple_human(tmp_path):
    code, out, err = run_cli("compose", scene_file(tmp_path, ROTATION_COUPLE))
    assert code == 0
    assert "angular velocity: [0, 0, 0]" in out
    assert "speed 6" in out
    assert "pitch:            infinite (free screw)" in out
    assert "degenerate" in out


def test_compose_couple_json(tmp_path):
    code, out, _ = run_cli("compose", scene_file(tmp_path, ROTATION_COUPLE), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["angular_velocity"] == [0.0, 0.0, 0.0]
    assert doc["axis_speed"] == 6.0
    assert doc["vector_invariant"] == [0.0, 6.0, 0.0]
    assert doc["pitch"] == {"kind": "infinite"}
    assert doc["axis"] == {"kind": "degenerate"}


# -- exp / log ----------------------------------------------------------------


def test_exp_json_matches_library(tmp_path):
    code, out, _ = run_cli("exp", scene_file(tmp_path, SCREW_MOTION), "--t", "0.5", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["t"] == 0.5
    g = exp_screw(Screw(Vec3(0.0, 0.0, 1.0), Vec3(0.3, 0.0, 0.5)), 0.5)
    for got, want in zip(doc["rigid_map"]["rotation"], g.rotation.flat()):
        assert abs(got - want) <= 1e-11
    for got, want in zip(doc["rigid_map"]["translation"], g.translation.components()):
        assert abs(got - want) <= 1e-11


def test_exp_needs_exactly_one_twist(tmp_path):
    code, _, err = run_cli("exp", scene_file(tmp_path, ROTATION_COUPLE))
    assert code == 2
    assert "exactly one twist" in err


@pytest.mark.parametrize("t", ["inf", "-inf", "nan"])
def test_exp_of_non_finite_t_is_an_input_error(tmp_path, t):
    code, out, err = run_cli("exp", str(SCENES / "screw_motion.json"), f"--t={t}")
    assert (code, out) == (2, "")
    assert err == f"input error: --t must be a finite number, got {float(t)}\n"


@pytest.mark.parametrize("t", ["-1e-3", "-2.5E+1", "-7", "-inf", "-nan"])
def test_exp_reads_a_negative_t_given_after_a_space(t):
    scene = str(SCENES / "screw_motion.json")
    code, out, err = run_cli("exp", scene, "--t", t)
    assert (code, out, err) == run_cli("exp", scene, f"--t={t}")
    assert code == (0 if math.isfinite(float(t)) else 2)
    assert err.count("\n") == (0 if code == 0 else 1)


def test_exp_log_round_trip_through_the_cli(tmp_path):
    code, out, _ = run_cli("exp", scene_file(tmp_path, SCREW_MOTION), "--json")
    assert code == 0
    rigid_map = json.loads(out)["rigid_map"]
    log_scene = scene_file(tmp_path, {"version": 1, "rigid_map": rigid_map}, "log.json")
    code, out, _ = run_cli("log", log_scene, "--json")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["angle"] - 1.0) <= 1e-9
    got = doc["screw"]
    for got_c, want_c in zip(got["resultant"], [0.0, 0.0, 1.0]):
        assert abs(got_c - want_c) <= 1e-9
    for got_c, want_c in zip(got["moment_at_origin"], [0.3, 0.0, 0.5]):
        assert abs(got_c - want_c) <= 1e-9


def test_log_human_output(tmp_path):
    doc = {
        "version": 1,
        "rigid_map": {
            "rotation": [0.0, -1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0],
            "translation": [0.0, 0.0, 0.75],
        },
    }
    code, out, err = run_cli("log", scene_file(tmp_path, doc))
    assert code == 0 and err == ""
    assert "angle: 1.5708" in out  # quarter turn
    assert "slide: 0.75" in out


@pytest.mark.parametrize("mode", [[], ["--json"]])
def test_log_of_a_small_rotation_with_a_large_moment(tmp_path, mode):
    g = exp_screw(Screw(Vec3(0.0, 0.0, 1e-4), Vec3(1e6, 0.0, 0.0)))
    rigid_map = {"rotation": list(g.rotation.flat()), "translation": list(g.translation.components())}
    log_scene = scene_file(tmp_path, {"version": 1, "rigid_map": rigid_map})
    code, out, err = run_cli("log", log_scene, *mode)
    assert (code, err) == (0, "")
    if mode:
        assert abs(json.loads(out)["angle"] - 1e-4) <= 1e-16
    else:
        assert out.startswith("angle: 0.0001\n")


def test_log_of_pure_translation(tmp_path):
    doc = {
        "version": 1,
        "rigid_map": {
            "rotation": [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
            "translation": [0.25, -0.5, 1.0],
        },
    }
    code, out, _ = run_cli("log", scene_file(tmp_path, doc), "--json")
    assert code == 0
    parsed = json.loads(out)
    assert parsed["angle"] == 0.0
    assert parsed["axis"] == {"kind": "degenerate"}
    assert parsed["pure_translation"] == [0.25, -0.5, 1.0]


# -- reciprocal ---------------------------------------------------------------


def test_reciprocal_of_a_revolute_joint(tmp_path):
    code, out, _ = run_cli("reciprocal", scene_file(tmp_path, REVOLUTE))
    assert code == 0
    assert "reciprocal subspace dimension: 5" in out
    code, out, _ = run_cli("reciprocal", scene_file(tmp_path, REVOLUTE), "--json")
    doc = json.loads(out)
    assert doc["dimension"] == 5
    assert len(doc["basis"]) == 5


@pytest.mark.parametrize("mode", [[], ["--json"]])
def test_reciprocal_whose_largest_singular_value_overflows(tmp_path, mode):
    # The pairing matrix is finite, but its largest singular value is not:
    # without scaling, the rank cutoff became inf and the dimension 6.
    doc = {
        "version": 1,
        "twists": [
            {"omega": [1.7e308, 1.7e308, 0.0], "moment_at_origin": [0.0, 1.7e308, 1.7e308]},
            {"omega": [0.0, 0.0, 1.0], "moment_at_origin": [1.7e308, 0.0, 0.0]},
        ],
    }
    code, out, err = run_cli("reciprocal", scene_file(tmp_path, doc), *mode)
    assert (code, err) == (0, "")
    if mode:
        assert json.loads(out)["dimension"] == 4
    else:
        assert out.startswith("reciprocal subspace dimension: 4\n")


# -- simulate -----------------------------------------------------------------


def test_simulate_structure(tmp_path):
    code, out, err = run_cli("simulate", scene_file(tmp_path, TUMBLE), "--json")
    assert code == 0, err
    doc = json.loads(out)
    assert doc["steps"] == 5
    assert len(doc["diagnostics"]) == 5
    assert doc["renormalizations"] == 0
    assert set(doc["final"]) == {
        "center",
        "linear_momentum",
        "angular_momentum_at_c",
        "orientation",
    }
    assert len(doc["final"]["orientation"]) == 9


def test_simulate_human_has_a_table(tmp_path):
    code, out, _ = run_cli("simulate", scene_file(tmp_path, TUMBLE))
    assert code == 0
    assert out.splitlines()[0].startswith("step    time")
    assert "final center:" in out
    assert "renormalizations: 0" in out


def test_simulate_mixed_velocities_is_a_domain_error(tmp_path):
    doc = {
        "version": 1,
        "masses": [
            {"m": 1.0, "position": [1.0, 0.0, 0.0], "velocity": [0.0, 1.0, 0.0]},
            {"m": 1.0, "position": [0.0, 1.0, 0.0]},
        ],
        "sim": {"dt": 0.001, "steps": 2},
    }
    code, _, err = run_cli("simulate", scene_file(tmp_path, doc))
    assert code == 3
    assert "MissingVelocitiesError" in err


@pytest.mark.parametrize("mode", [[], ["--json"]])
def test_simulate_with_velocities_on_some_particles_only_is_refused(tmp_path, mode):
    # The body does not start at rest: momentum needs a velocity on every particle.
    doc = {
        "version": 1,
        "masses": [
            {"m": 1.0, "position": [1.0, 0.0, 0.0], "velocity": [0.0, 1.0, 0.0]},
            {"m": 1.0, "position": [0.0, 1.0, 0.0]},
        ],
        "sim": {"dt": 0.001, "steps": 2},
    }
    code, out, err = run_cli("simulate", scene_file(tmp_path, doc), *mode)
    assert (code, out) == (3, "")
    assert err == "domain error (MissingVelocitiesError): momentum needs velocities on all particles\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("s", [1.0, 1e-100, 1e-161])
def test_simulate_collinear_body_is_a_domain_error(tmp_path, s):
    # A rod's inertia is singular at every unit; at 1e-161 its principal
    # moments are subnormal.  No numpy warning may escape, and the message
    # prints plain floats.
    doc = {
        "version": 1,
        "masses": [
            {"m": 1.0, "position": [s, 0.0, 0.0], "velocity": [0.0, 1.0, 0.0]},
            {"m": 1.0, "position": [-s, 0.0, 0.0], "velocity": [0.0, -1.0, 0.0]},
        ],
        "sim": {"dt": 0.001, "steps": 2},
    }
    code, out, err = run_cli("simulate", scene_file(tmp_path, doc))
    assert (code, out) == (3, "")
    assert len(err.splitlines()) == 1 and err.endswith("\n")
    assert err.startswith("domain error (SingularInertiaError): inertia principal values (0.0, ")
    assert "np.float64" not in err


@pytest.mark.filterwarnings("error")
def test_simulate_rod_whose_principal_moment_overflows_is_a_domain_error(tmp_path):
    # Every entry of the moment matrix is finite (at most 4a^2, about
    # 1.49e308), but the two nonzero principal moments, 6a^2, are not.
    a = 6.1e153
    doc = {
        "version": 1,
        "masses": [
            {"m": 1.0, "position": [a, a, a]},
            {"m": 1.0, "position": [-a, -a, -a]},
        ],
        "sim": {"dt": 0.001, "steps": 2},
    }
    code, out, err = run_cli("simulate", scene_file(tmp_path, doc))
    assert (code, out) == (3, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("domain error (SingularInertiaError): inertia principal values (")
    assert err.endswith(") * 2**1024 are not invertible\n")


@pytest.mark.filterwarnings("error")
def test_simulate_body_whose_inverse_inertia_overflows_is_a_domain_error(tmp_path):
    # Not singular, but its principal moments are about 1e-322.
    doc = {
        "version": 1,
        "masses": [
            {"m": 1.0, "position": [1e-161, 0.0, 0.0]},
            {"m": 1.0, "position": [0.0, 1e-161, 0.0]},
            {"m": 1.0, "position": [0.0, 0.0, 1e-161]},
            {"m": 1.0, "position": [0.0, 0.0, 0.0]},
        ],
        "sim": {"dt": 0.001, "steps": 2},
    }
    code, out, err = run_cli("simulate", scene_file(tmp_path, doc))
    assert (code, out) == (3, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("domain error (NonFiniteError): inertia principal values (")
    assert err.endswith(") have no finite inverse\n")


# -- error paths --------------------------------------------------------------


def test_missing_file_is_an_input_error(tmp_path):
    code, _, err = run_cli("reduce", str(tmp_path / "nope.json"))
    assert code == 2
    assert "cannot read scene" in err


def test_malformed_json_reports_position(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"version": 1,\n  "forces": }')
    code, _, err = run_cli("reduce", str(p))
    assert code == 2
    assert "scene error at $" in err
    assert "line 2" in err


def test_missing_section_is_an_input_error(tmp_path):
    code, _, err = run_cli("reduce", scene_file(tmp_path, REVOLUTE))
    assert code == 2
    assert "needs a 'forces' section" in err


def test_unknown_scene_key_reports_its_path(tmp_path):
    code, _, err = run_cli("reduce", scene_file(tmp_path, {"version": 1, "forcez": []}))
    assert code == 2
    assert "scene error at $" in err
    assert "forcez" in err


def test_non_finite_scene_number_is_a_scene_error(tmp_path):
    p = tmp_path / "nan.json"
    p.write_text('{"version": 1, "forces": [{"point": [NaN, 0, 0], "vector": [0, 0, 1]}]}')
    code, out, err = run_cli("reduce", str(p))
    assert (code, out) == (2, "")
    assert err == "scene error at $.forces[0].point[0]: expected a finite number, got nan\n"


def test_overlong_json_integer_is_a_scene_error(tmp_path):
    p = tmp_path / "digits.json"
    p.write_text('{"version": 1, "forces": [{"point": [%s, 0, 0], "vector": [0, 0, 1]}]}' % ("9" * 5001))
    code, out, err = run_cli("reduce", str(p))
    assert (code, out) == (2, "")
    assert err.startswith("scene error at $: invalid JSON: ")
    assert err.count("\n") == 1


def test_deeply_nested_json_is_a_scene_error(tmp_path):
    p = tmp_path / "nested.json"
    p.write_text('{"version": 1, "forces": %s}' % ("[" * 100000 + "]" * 100000))
    code, out, err = run_cli("reduce", str(p))
    assert (code, out) == (2, "")
    assert err.startswith("scene error at $: invalid JSON: ")
    assert err.count("\n") == 1


def test_compose_of_no_twists_is_an_input_error(tmp_path):
    code, out, err = run_cli("compose", scene_file(tmp_path, {"version": 1, "twists": []}))
    assert (code, out) == (2, "")
    assert err == "input error: compose needs at least one twist in the scene\n"


def test_overflow_is_a_domain_error(tmp_path):
    doc = {"version": 1, "forces": [{"point": [1e200, 0.0, 0.0], "vector": [0.0, 1e200, 0.0]}]}
    code, out, err = run_cli("reduce", scene_file(tmp_path, doc))
    assert (code, out) == (3, "")
    assert err.startswith("domain error (NonFiniteError): ")
    assert err.count("\n") == 1


def test_exp_whose_angle_overflows_is_a_domain_error(tmp_path):
    doc = {"version": 1, "twists": [{"omega": [0.0, 0.0, 10.0], "moment_at_origin": [0.0, 0.0, 0.0]}]}
    code, out, err = run_cli("exp", scene_file(tmp_path, doc), "--t", "1e308")
    assert (code, out) == (3, "")
    assert err == "domain error (NonFiniteError): rotation angle must be finite, got inf\n"


def test_simulate_whose_angle_overflows_is_a_domain_error(tmp_path):
    doc = {
        "version": 1,
        "masses": [
            {"m": 1.0, "position": [1.0, 0.0, 0.0], "velocity": [0.0, 1e10, 0.0]},
            {"m": 1.0, "position": [-1.0, 0.0, 0.0], "velocity": [0.0, -1e10, 0.0]},
            {"m": 1.0, "position": [0.0, 1.0, 0.0], "velocity": [-1e10, 0.0, 0.0]},
        ],
        "sim": {"dt": 1e300, "steps": 2},
    }
    code, out, err = run_cli("simulate", scene_file(tmp_path, doc))
    assert (code, out) == (3, "")
    assert err == "domain error (NonFiniteError): rotation angle must be finite, got inf\n"


@pytest.mark.parametrize("mode", [[], ["--json"]])
@pytest.mark.parametrize(
    "command, doc",
    [
        ("reduce", {"version": 1, "forces": [{"point": [0.0, 0.0, 0.0], "vector": [0.0, 1.5e308, 1.5e308]}]}),
        ("compose", {"version": 1, "twists": [{"omega": [0.0, 1.5e308, 1.5e308], "moment_at_origin": [0.0, 0.0, 0.0]}]}),
    ],
)
def test_non_finite_result_is_a_domain_error(tmp_path, command, doc, mode):
    # components are finite, but the true "amplitude", 2.1e308, overflows
    code, out, err = run_cli(command, scene_file(tmp_path, doc), *mode)
    assert (code, out) == (3, "")
    assert err == "domain error (NonFiniteError): non-finite result at $.amplitude\n"


@pytest.mark.parametrize("mode", [[], ["--json"]])
@pytest.mark.parametrize(
    "command, doc",
    [
        ("reduce", {"version": 1, "forces": [{"point": [0.0, 0.0, 0.0], "vector": [0.0, 0.0, 1e160]}]}),
        ("compose", {"version": 1, "twists": [{"omega": [0.0, 0.0, 1e160], "moment_at_origin": [0.0, 0.0, 0.0]}]}),
    ],
)
def test_amplitude_whose_square_overflows_is_finite(tmp_path, command, doc, mode):
    code, out, err = run_cli(command, scene_file(tmp_path, doc), *mode)
    assert (code, err) == (0, "")
    if mode:
        assert json.loads(out)["amplitude"] == 1e160
    else:
        assert "amplitude:        1e+160\n" in out


@pytest.mark.parametrize("mode", [[], ["--json"]])
def test_axis_whose_direct_form_overflows_is_finite(tmp_path, mode):
    doc = {"version": 1, "forces": [{"point": [1.0, 0.0, 0.0], "vector": [0.0, 0.0, 1e160]}]}
    code, out, err = run_cli("reduce", scene_file(tmp_path, doc), *mode)
    assert (code, err) == (0, "")
    if mode:
        assert json.loads(out)["axis"]["point"] == [1.0, 0.0, 0.0]
    else:
        assert "axis:             line through [1, 0, 0] direction [0, 0, 1]\n" in out


@pytest.mark.parametrize("mode", [[], ["--json"]])
@pytest.mark.parametrize(
    "command, doc",
    [
        # a couple of moment (0, 0, -2e160) plus a force of 1e-160 along z
        ("reduce", {"version": 1, "forces": [{"point": [0.0, 1.0, 0.0], "vector": [1e160, 0.0, 0.0]},
                                             {"point": [0.0, -1.0, 0.0], "vector": [-1e160, 0.0, 0.0]},
                                             {"point": [0.0, 0.0, 0.0], "vector": [0.0, 0.0, 1e-160]}]}),
        ("compose", {"version": 1, "twists": [{"omega": [0.0, 0.0, 1e-160], "moment_at_origin": [0.0, 0.0, 1e160]}]}),
    ],
)
def test_pitch_beyond_the_float_range_is_a_domain_error(tmp_path, command, doc, mode):
    code, out, err = run_cli(command, scene_file(tmp_path, doc), *mode)
    assert (code, out) == (3, "")
    assert err.startswith("domain error (NonFiniteError): pitch must be finite, got ")


@pytest.mark.parametrize(
    "argv",
    [["selfcheck"], ["reduce", str(SCENES / "three_forces.json")], ["simulate", str(SCENES / "forced_euler.json")]],
    ids=lambda argv: argv[0],
)
def test_json_mode_renders_no_text(monkeypatch, argv):
    def refuse(doc):
        raise AssertionError("text rendered in --json mode")

    monkeypatch.setitem(cli._TEXT, argv[0], refuse)
    code, out, err = run_cli(*argv, "--json")
    assert (code, err) == (0, "")
    assert json.loads(out)


def test_non_finite_result_names_its_path():
    doc = {"steps": 2, "legs": [{"v": [0.0, 1.0, 2.0]}, {"v": [0.0, 1.0, -math.inf]}]}
    with pytest.raises(NonFiniteError, match=r"^non-finite result at \$\.legs\[1\]\.v\[2\]$"):
        cli._require_finite(doc)


def test_non_utf8_scene_is_an_input_error(tmp_path):
    p = tmp_path / "latin1.json"
    p.write_bytes(b'{"version": 1, "forces": [], "note": "\xff"}')
    code, out, err = run_cli("reduce", str(p))
    assert (code, out) == (2, "")
    assert err.startswith("input error: cannot read scene: 'utf-8' codec can't decode byte 0xff")
    assert err.count("\n") == 1


def test_unknown_subcommand_exits_via_argparse():
    with pytest.raises(SystemExit):
        run_cli("frobnicate")


# -- selfcheck and stability --------------------------------------------------


def test_selfcheck_passes():
    code, out, err = run_cli("selfcheck")
    assert code == 0 and err == ""
    assert out == (
        "ok pairing table\n"
        "ok commutation table\n"
        "ok jacobi identity\n"
        "ok killing form\n"
        "ok pairing invariance\n"
        "ok dual pairing\n"
        "ok flow round trip\n"
    )


def test_failed_selfcheck_exits_1(monkeypatch):
    monkeypatch.setattr(cli, "_selfcheck_checks", lambda: [("pairing table", True), ("broken", False)])
    code, out, err = run_cli("selfcheck")
    assert (code, out, err) == (1, "ok pairing table\nFAIL broken\n", "")
    code, out, err = run_cli("selfcheck", "--json")
    assert (code, err) == (1, "")
    assert '"all_ok": false' in out


def test_selfcheck_json():
    code, out, _ = run_cli("selfcheck", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_ok"] is True
    assert len(doc["checks"]) == 7
    assert all(c["ok"] for c in doc["checks"])


def test_json_output_is_byte_stable(tmp_path):
    path = scene_file(tmp_path, SINGLE_FORCE)
    _, first, _ = run_cli("reduce", path, "--json")
    _, second, _ = run_cli("reduce", path, "--json")
    assert first == second
    assert first.endswith("\n")


def test_module_entry_point(tmp_path):
    path = scene_file(tmp_path, SINGLE_FORCE)
    proc = subprocess.run(
        [sys.executable, "-m", "screwalg.cli", "reduce", path, "--json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["amplitude"] == 2.0


# -- goldens beyond criterion 12 ------------------------------------------------
# Every file in tests/goldens/ is checked; each is named
# <subcommand>_<scene>.<json|txt> after its fixture scene and output mode and
# written by scripts/regenerate_goldens.py, which keeps the list of cases.


@pytest.mark.parametrize(
    "command, scene_name, golden",
    [(*p.stem.split("_", 1), p.name) for p in sorted(GOLDENS.iterdir())],
)
def test_output_matches_golden(command, scene_name, golden):
    argv = [command, str(SCENES / f"{scene_name}.json")]
    if golden.endswith(".json"):
        argv.append("--json")
    code, out, err = run_cli(*argv)
    assert code == 0 and err == ""
    assert out == (GOLDENS / golden).read_text(encoding="utf-8")
