"""End-to-end tests of the command-line tool: exit codes, output documents,
and the exp/log round trip through actual CLI invocations."""

import errno
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from screwalg import (
    Mat3, NonFiniteError, Point, Screw, Vec3, exp_screw, inertia_of, momentum_screw, parse_scene,
)
from screwalg import cli, sim
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


def test_exp_leaves_a_t_after_a_space_that_is_no_number_to_argparse(capsys):
    code, out, err = run_cli("exp", str(SCENES / "screw_motion.json"), "--t", "-abc")
    assert (code, out) == (2, "")
    assert err.startswith("usage: screwalg") and "argument --t: expected one argument" in err
    assert capsys.readouterr() == ("", "")


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


@pytest.mark.parametrize("mode", [[], ["--json"]])
def test_log_of_a_rotation_with_a_huge_entry_is_an_invalid_rotation(tmp_path, mode):
    # The entry's square overflows; the block is refused before R^T R is formed.
    doc = {
        "version": 1,
        "rigid_map": {
            "rotation": [1e200, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
            "translation": [0.0, 0.0, 0.0],
        },
    }
    code, out, err = run_cli("log", scene_file(tmp_path, doc), *mode)
    assert (code, out) == (3, "")
    assert err == "domain error (InvalidRotationError): rotation block is not orthonormal within 1e-10\n"


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


@pytest.mark.parametrize("mode", [[], ["--json"]])
@pytest.mark.parametrize("integrator", ["midpoint", "euler"])
def test_simulate_failing_mid_run_writes_nothing(tmp_path, integrator, mode):
    # A couple of 1e153 spins the body up until the kinetic energy of step 69
    # overflows: the rows of the steps before it never reach stdout.
    doc = {
        "version": 1,
        "masses": [
            {"m": 1.0, "position": p}
            for p in ([1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 2.0, 0.0],
                      [0.0, -2.0, 0.0], [0.0, 0.0, 3.0], [0.0, 0.0, -3.0])
        ],
        "sim": {"dt": 1.0, "steps": 300, "integrator": integrator,
                "wrench": {"moment_at_origin": [1e153, 0.0, 0.0]}},
    }
    code, out, err = run_cli("simulate", scene_file(tmp_path, doc), *mode)
    assert (code, out) == (3, "")
    assert err == "domain error (NonFiniteError): non-finite result at $.diagnostics[69].kinetic_energy\n"


@pytest.mark.parametrize("integrator", ["midpoint", "euler"])
def test_simulate_reports_what_run_returns(tmp_path, monkeypatch, integrator):
    # With no drift tolerance nearly every step renormalizes, so the count
    # the CLI keeps from the stream is checked as well as its rows.
    monkeypatch.setattr(sim, "_ORTHO_DRIFT_TOL", 0.0)
    doc = dict(TUMBLE, sim={"dt": 0.01, "steps": 40, "integrator": integrator})
    path = scene_file(tmp_path, doc)
    scene = parse_scene(json.dumps(doc))
    inertia = inertia_of(scene.masses)
    l0 = momentum_screw(scene.masses)
    traj = sim.run(scene.sim, sim.BodyState(
        Mat3.identity(), inertia.center, l0.linear_momentum,
        l0.angular_momentum_at(inertia.center), inertia,
    ))
    assert traj.renormalizations >= 30
    code, out, err = run_cli("simulate", path, "--json")
    assert (code, err) == (0, "")
    got = json.loads(out)
    final = traj.states[-1]
    assert got == cli._finished({
        "steps": 40,
        "dt": 0.01,
        "integrator": integrator,
        "diagnostics": [
            {
                "time": d.time,
                "kinetic_energy": d.kinetic_energy,
                "power": d.power,
                "omega_idot_omega": d.omega_idot_omega,
                "balance_residual": d.balance_residual,
            }
            for d in traj.diagnostics
        ],
        "final": {
            "center": list(final.center.components()),
            "linear_momentum": list(final.linear_momentum.components()),
            "angular_momentum_at_c": list(final.angular_momentum_at_c.components()),
            "orientation": list(final.orientation.flat()),
        },
        "renormalizations": traj.renormalizations,
    }, cli.MACHINE_DIGITS)
    code, out, err = run_cli("simulate", path)
    assert (code, err) == (0, "")
    assert out.endswith(f"\nrenormalizations: {traj.renormalizations}\n")


class _CountingSink:
    """A stdout that keeps only the number of characters written to it."""

    def __init__(self):
        self.size = 0

    def write(self, text):
        self.size += len(text)

    def flush(self):
        pass


# Bytes per step that a 10^4-step simulate may hold at its peak beyond its
# output: about 1000 when the run keeps its whole trajectory and a doc row per
# step, about 70 when it keeps only its rendered rows.
RETAINED_BYTES_PER_STEP = 300


@pytest.mark.parametrize("mode", [[], ["--json"]])
def test_simulate_keeps_only_the_rows_it_prints(tmp_path, mode):
    steps = 10_000
    doc = dict(TUMBLE, sim={"dt": 0.001, "steps": steps, "integrator": "euler",
                            "wrench": {"force": [0.0, 0.0, -9.8], "moment_at_origin": [0.5, 0.0, 0.2]}})
    # A one-step run first, so the lazy imports and caches are not counted.
    short = scene_file(tmp_path, dict(doc, sim=dict(doc["sim"], steps=1)), "short.json")
    assert main(["simulate", short, *mode], stdout=_CountingSink(), stderr=io.StringIO()) == 0
    path = scene_file(tmp_path, doc)
    out = _CountingSink()
    tracemalloc.start()
    try:
        code = main(["simulate", path, *mode], stdout=out, stderr=io.StringIO())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert (peak - out.size) / steps < RETAINED_BYTES_PER_STEP


class _WriteCounter(io.StringIO):
    """A stdout that counts its ``write`` calls."""

    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
def test_simulate_writes_its_rows_in_blocks(tmp_path, mode):
    """A few hundred rows a ``write``, not one or two a row, and the bytes
    that one ``print`` a line or ``json.dump(indent=2)`` would write."""
    steps = 10_000
    path = scene_file(tmp_path, dict(TUMBLE, sim={"dt": 0.001, "steps": steps}))
    out = _WriteCounter()
    assert main(["simulate", path, *mode], stdout=out, stderr=io.StringIO()) == 0
    assert out.writes <= math.ceil(steps / cli._BLOCK_ROWS) + 4
    text = out.getvalue()
    if mode:
        assert text == json.dumps(json.loads(text), indent=2) + "\n"
    else:
        lines = text.split("\n")
        assert (len(lines), lines[-1]) == (steps + 5, "")
        assert lines[steps].startswith(f"{steps - 1:<7d} ")


def _cli_env(unbuffered):
    """The environment of a ``python -m screwalg.cli`` child, with or
    without ``PYTHONUNBUFFERED=1``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(TESTS.parent / "src"), os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def _status_when_the_reader_leaves(argv, unbuffered, after_bytes):
    """Exit status and stderr of ``python -m screwalg.cli *argv`` whose
    reader closes the pipe after reading ``after_bytes`` bytes of stdout."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "screwalg.cli", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=_cli_env(unbuffered),
    )
    assert len(proc.stdout.read(after_bytes)) == after_bytes
    proc.stdout.close()
    # A traceback, the only stderr a failure writes, fits in the pipe.
    code = proc.wait(timeout=60)
    with proc.stderr:
        return code, proc.stderr.read()


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
def test_a_reader_that_closes_the_pipe_early_ends_the_run_with_141(tmp_path, mode, unbuffered):
    """As ``simulate ... | head -1`` does: exit 128 + SIGPIPE, and no
    traceback or "Exception ignored" from the flush at exit.  The output,
    several hundred kB, is far more than a pipe holds."""
    path = scene_file(tmp_path, dict(TUMBLE, sim={"dt": 0.001, "steps": 9000}))
    assert _status_when_the_reader_leaves(["simulate", path, *mode], unbuffered, 1) == (141, b"")


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_a_reader_gone_before_a_short_output_ends_the_run_with_141(unbuffered):
    """The whole output fits in stdout's buffer, so a buffered run meets the
    closed pipe only when it flushes."""
    assert _status_when_the_reader_leaves(["selfcheck"], unbuffered, 0) == (141, b"")


def _status_with_a_closed_stream(argv, unbuffered, closed, redirect=None):
    """Exit status of ``python -m screwalg.cli *argv`` and what it wrote to
    its other stream, when the reader of ``closed`` ("stdout" or "stderr")
    has gone before it wrote, or, with a shell ``redirect`` such as
    ``2>&-``, when it starts with that descriptor redirected."""
    command = [sys.executable, "-m", "screwalg.cli", *argv]
    if redirect is not None:
        command = ["sh", "-c", f'exec "$@" {redirect}', "sh", *command]
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_cli_env(unbuffered))
    gone, other = (proc.stdout, proc.stderr) if closed == "stdout" else (proc.stderr, proc.stdout)
    gone.close()
    with other:
        written = other.read()
    return proc.wait(timeout=60), written


_OVERFLOW = {"version": 1, "forces": [{"point": [1e200, 0.0, 0.0], "vector": [0.0, 1e200, 0.0]}]}


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv, closed, status", [
    (["--help"], "stdout", 141),
    (["simulate", "--help"], "stdout", 141),
    (["frobnicate"], "stderr", 2),
    (["reduce", "/nonexistent.json"], "stderr", 2),
    (["reduce", "OVERFLOW"], "stderr", 3),
], ids=["help", "simulate-help", "usage", "input-error", "domain-error"])
def test_a_closed_stream_keeps_the_exit_status(tmp_path, argv, closed, status, unbuffered):
    """Help goes to stdout, whose reader gone makes the status 141 as for
    any output; a message goes to stderr, whose reader gone leaves the
    command's own status, 2 or 3.  Nothing reaches the other stream."""
    argv = [scene_file(tmp_path, _OVERFLOW) if a == "OVERFLOW" else a for a in argv]
    assert _status_with_a_closed_stream(argv, unbuffered, closed) == (status, b"")


class _Gone(io.StringIO):
    """A stream whose reader has gone."""

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))


def test_a_gone_or_missing_stream_keeps_the_exit_status(monkeypatch):
    """In process: output to a stream whose reader has gone returns 141, a
    message to one returns the command's own status, and so does a message
    when the process has no stderr at all."""
    assert main(["selfcheck"], stdout=_Gone(), stderr=io.StringIO()) == 141
    assert main(["--help"], stdout=_Gone(), stderr=io.StringIO()) == 141
    assert main(["reduce", "/nonexistent.json"], stdout=io.StringIO(), stderr=_Gone()) == 2
    monkeypatch.setattr(sys, "stderr", None)
    out = io.StringIO()
    assert main(["reduce", "/nonexistent.json"], stdout=out) == 2
    assert out.getvalue() == ""


class _Full(io.StringIO):
    """A stream on a full disk."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_a_failed_write_is_not_taken_for_a_gone_reader():
    """Only a reader that has gone (EPIPE) or a closed descriptor (EBADF)
    ends a command with its gone status; any other write error is raised."""
    with pytest.raises(OSError) as raised:
        main(["selfcheck"], stdout=_Full(), stderr=io.StringIO())
    assert raised.value.errno == errno.ENOSPC


@pytest.mark.parametrize("redirect", ["2>&-", "2</dev/null"], ids=["closed", "read-only"])
@pytest.mark.parametrize("argv, status", [
    (["reduce", "/nonexistent.json"], 2),
    (["reduce", "OVERFLOW"], 3),
], ids=["input-error", "domain-error"])
def test_a_stderr_closed_from_the_start_keeps_the_exit_status(tmp_path, argv, status, redirect):
    """Started with stderr closed, Python has no sys.stderr; started with a
    descriptor 2 that is not open for writing, as a closed one is once a
    launcher reuses it, a write fails with EBADF.  Either way the message
    is dropped, and not written to stdout."""
    argv = [scene_file(tmp_path, _OVERFLOW) if a == "OVERFLOW" else a for a in argv]
    assert _status_with_a_closed_stream(argv, False, "stderr", redirect) == (status, b"")


@pytest.mark.parametrize("mode", [[], ["--json"]])
def test_an_overflowing_simulate_names_the_step_and_the_quantity(tmp_path, mode):
    """forced_euler under a force of 1e306 along x: the momentum grows by
    1e304 a step, the force's moment about the center spins the body up to
    about 1e303 rad/s in the first, and at step 1 omega x p, in [k, l],
    overflows."""
    doc = json.loads((SCENES / "forced_euler.json").read_text())
    doc["sim"].update(steps=2000, wrench=dict(doc["sim"]["wrench"], force=[1e306, 0.0, 0.0]))
    code, out, err = run_cli("simulate", scene_file(tmp_path, doc), *mode)
    assert (code, out) == (3, "")
    assert err == (
        "domain error (NonFiniteError): step 1 (t = 0.01): d + [k, l] or the linear balance residual is not finite\n"
    )


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
    assert err == "domain error (NonFiniteError): step 0 (t = 0): rotation angle must be finite, got inf\n"


@pytest.mark.parametrize("mode", [[], ["--json"]])
@pytest.mark.parametrize(
    "command, doc",
    [
        ("reduce", {"version": 1, "forces": [{"point": [0.0, 0.0, 0.0], "vector": [0.0, 1.5e308, 1.5e308]}]}),
        ("compose", {"version": 1, "twists": [{"omega": [0.0, 1.5e308, 1.5e308], "moment_at_origin": [0.0, 0.0, 0.0]}]}),
    ],
)
def test_non_finite_result_is_a_domain_error(tmp_path, command, doc, mode):
    # components are finite, but the true "amplitude", 2.1e308, overflows, so
    # the axis has no unit direction
    code, out, err = run_cli(command, scene_file(tmp_path, doc), *mode)
    assert (code, out) == (3, "")
    assert err == "domain error (NonFiniteError): norm of the screw direction is not finite\n"


@pytest.mark.parametrize("mode", [[], ["--json"]])
def test_couple_whose_moment_norm_overflows_is_a_domain_error(tmp_path, mode):
    # a couple of moment (-1.5e308, -1.5e308, 0): its two-vector split has no
    # unit direction to work along
    doc = {"version": 1, "forces": [{"point": [1.0, -1.0, 0.0], "vector": [0.0, 0.0, 1.5e308]},
                                    {"point": [0.0, 0.0, 0.0], "vector": [0.0, 0.0, -1.5e308]}]}
    code, out, err = run_cli("reduce", scene_file(tmp_path, doc), *mode)
    assert (code, out) == (3, "")
    assert err == "domain error (NonFiniteError): norm of the screw direction is not finite\n"


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


@pytest.mark.parametrize("mode", [[], ["--json"]])
@pytest.mark.parametrize(
    "command, doc",
    [
        # couples of moment (1e200, 0, 0) and (0, 1e200, 0) plus a force of 1e-150 along x
        ("reduce", {"version": 1, "forces": [{"point": [0.0, 1.0, 0.0], "vector": [0.0, 0.0, 1e200]},
                                             {"point": [0.0, 0.0, 0.0], "vector": [0.0, 0.0, -1e200]},
                                             {"point": [0.0, 0.0, 1.0], "vector": [1e200, 0.0, 0.0]},
                                             {"point": [0.0, 0.0, 0.0], "vector": [-1e200, 0.0, 0.0]},
                                             {"point": [0.0, 0.0, 0.0], "vector": [1e-150, 0.0, 0.0]}]}),
        ("compose", {"version": 1, "twists": [{"omega": [1e-150, 0.0, 0.0], "moment_at_origin": [1e200, 1e200, 0.0]}]}),
    ],
)
def test_an_overflowing_axis_point_is_refused_before_the_pitch(tmp_path, command, doc, mode):
    # u x m / |w| and 2 pi (m . u) / |w| both overflow; the one report of
    # both commands builds the axis point before the pitch.
    code, out, err = run_cli(command, scene_file(tmp_path, doc), *mode)
    assert (code, out) == (3, "")
    assert err == "domain error (NonFiniteError): Point components must be finite, got (0.0, 0.0, inf)\n"


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
        cli._finished(doc, None)


def test_non_utf8_scene_is_an_input_error(tmp_path):
    p = tmp_path / "latin1.json"
    p.write_bytes(b'{"version": 1, "forces": [], "note": "\xff"}')
    code, out, err = run_cli("reduce", str(p))
    assert (code, out) == (2, "")
    assert err.startswith("input error: cannot read scene: 'utf-8' codec can't decode byte 0xff")
    assert err.count("\n") == 1


def test_unknown_subcommand_exits_via_argparse(capsys):
    code, out, err = run_cli("frobnicate")
    assert (code, out) == (2, "")
    assert err.startswith("usage: screwalg") and "invalid choice: 'frobnicate'" in err
    assert capsys.readouterr() == ("", "")


def test_help_goes_to_the_given_stdout(capsys):
    code, out, err = run_cli("--help")
    assert (code, err) == (0, "")
    assert out.startswith("usage: screwalg") and "selfcheck" in out
    assert capsys.readouterr() == ("", "")


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
