"""Command-line front end.

    screwalg reduce     scene.json   invariants, axis and two-vector reduction
    screwalg compose    scene.json   screw sum of the scene's twists
    screwalg exp        scene.json --t 0.5   rigid map of the twist's flow
    screwalg log        scene.json   rotation-plus-slide decomposition
    screwalg reciprocal scene.json   zero-power subspace of the scene's screws
    screwalg simulate   scene.json   momentum time stepping with diagnostics
    screwalg selfcheck               built-in algebra identities

Output is human-oriented text (6 significant digits) by default; ``--json``
switches to a stable machine-readable document with 12 significant digits.
Exit codes: 0 on success, 1 for a failed selfcheck, 2 for malformed input,
3 for domain errors, a non-finite result included, and 141 (128 + SIGPIPE)
when the reader of stdout, the help text's included, closes it before the
output is written.  A message whose stderr is closed is dropped, and the
status stays 2 or 3.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import io
import json
import math
import os
import re
import sys

from .dynamics import (
    MomentumScrew,
    inertia_of,
    momentum_screw,
    reciprocal_subspace,
    wrench_of,
)
from .errors import NonFiniteError, SceneError, ScrewAlgError
from .kinematics import MotionChain, compose_chain
from .lie import Frame, basis_screws, commutator, killing_form, klein_product, to_dual, to_frame, pairing, ad
from .reduction import _report, decompose_two_applied
from .rigid import chasles, exp_screw
from .scene import Scene, parse_scene
from .screw import DegenerateAxis, FinitePitch, InfinitePitch, Screw
from .sim import BodyState, StepDiagnostics, _stream
from .vecmath import Mat3, Vec3

__all__ = ["main"]

MACHINE_DIGITS = 12
HUMAN_DIGITS = 6


def _round_sig(x: float, digits: int) -> float:
    x = x + 0.0  # normalize -0.0
    return float(f"{x:.{digits}g}")


def _finished(value, digits: int | None, where: str = "$"):
    """``value`` with every float checked finite, refusing one that is not
    with its path, and rounded to ``digits`` significant digits unless
    ``digits`` is None."""
    if isinstance(value, float):
        if not math.isfinite(value):
            raise NonFiniteError(f"non-finite result at {where}")
        return value if digits is None else _round_sig(value, digits)
    if isinstance(value, dict):
        return {k: _finished(v, digits, f"{where}.{k}") for k, v in value.items()}
    if isinstance(value, list):
        return [_finished(v, digits, f"{where}[{i}]") for i, v in enumerate(value)]
    return value


class _Rows:
    """Items, at least one, of a top-level doc list, each checked for
    finiteness and rendered for the output mode as it was made: JSON text at
    the depth of the list, or a text line.  ``_finished``, the one walk that
    checks and rounds the rest of the doc, passes it by."""

    __slots__ = ("rendered",)

    def __init__(self, rendered: list[str]):
        self.rendered = rendered


# How ``json`` writes the stand-in for a ``_Rows`` value.
_ROWS_MARK = json.dumps("\0rows")

# Rows or lines joined into one ``write``: a few hundred make the calls few,
# where one join of a long run's output would hold a second copy of it.
_BLOCK_ROWS = 512


def _json_chunks(doc: dict):
    """``doc`` as ``json.dump(doc, out, indent=2)`` would write it, and a
    newline, in chunks to write.  A top-level ``_Rows`` value, JSON already,
    goes out in the place of its list, ``_BLOCK_ROWS`` rows a chunk."""
    rows = [v.rendered for v in doc.values() if isinstance(v, _Rows)]
    head, *tails = (json.dumps(doc, indent=2, default=lambda _: "\0rows") + "\n").split(_ROWS_MARK)
    yield head
    for rendered, tail in zip(rows, tails):
        sep = "[\n"
        for i in range(0, len(rendered), _BLOCK_ROWS):
            yield sep + ",\n".join(rendered[i : i + _BLOCK_ROWS])
            sep = ",\n"
        yield "\n  ]" + tail


def _line_chunks(lines: list[str]):
    """Each line and a newline, as ``print`` would write them, in chunks of
    ``_BLOCK_ROWS`` lines."""
    for i in range(0, len(lines), _BLOCK_ROWS):
        yield "\n".join(lines[i : i + _BLOCK_ROWS]) + "\n"


def _emit(stream, chunks, status: int, gone: int | None = None) -> int:
    """Write ``chunks`` to ``stream``, flush it and return ``status``: the one
    output path of ``main``, for results, messages, help and usage.  A
    stream whose reader has gone (EPIPE), as ``head`` does, or whose
    descriptor is closed (None, or EBADF where the descriptor was reused
    for a file not open for writing) returns ``gone`` instead, if given.
    Such a process stream is pointed at the null device, so that the flush
    at exit cannot fail too."""
    gone = status if gone is None else gone
    if stream is None:
        return gone
    try:
        for chunk in chunks:
            stream.write(chunk)
        stream.flush()
    except OSError as e:
        if e.errno not in (errno.EPIPE, errno.EBADF):
            raise
        if stream is sys.stdout or stream is sys.stderr:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, stream.fileno())
            os.close(devnull)
        return gone
    return status


_KIND_TEXT = {
    "infinite": "infinite (free screw)",
    "zero-screw": "undefined (zero screw)",
    "degenerate": "degenerate (every point)",
}


def _fmt(value) -> str:
    """Text form of a doc value: a number, a vector list, or a pitch or axis
    dict from ``_pitch_doc``/``_axis_doc``."""
    if isinstance(value, list):
        return "[" + ", ".join(_fmt(c) for c in value) + "]"
    if isinstance(value, dict):
        if value["kind"] == "finite":
            return _fmt(value["value"])
        if value["kind"] == "line":
            return f"line through {_fmt(value['point'])} direction {_fmt(value['direction'])}"
        return _KIND_TEXT[value["kind"]]
    return f"{value + 0.0:.{HUMAN_DIGITS}g}"


def _vec_doc(v) -> list:
    return list(v.components())


def _axis_doc(axis) -> dict:
    if isinstance(axis, DegenerateAxis):
        return {"kind": "degenerate"}
    return {
        "kind": "line",
        "point": _vec_doc(axis.point),
        "direction": _vec_doc(axis.direction),
    }


def _pitch_doc(pitch) -> dict:
    if isinstance(pitch, FinitePitch):
        return {"kind": "finite", "value": pitch.value}
    if isinstance(pitch, InfinitePitch):
        return {"kind": "infinite"}
    return {"kind": "zero-screw"}


def _screw_doc(s: Screw) -> dict:
    return {
        "resultant": _vec_doc(s.resultant),
        "moment_at_origin": _vec_doc(s.moment_at_origin),
    }


def _screw_text(doc: dict) -> str:
    return f"resultant {_fmt(doc['resultant'])}, moment at origin {_fmt(doc['moment_at_origin'])}"


class _InputError(Exception):
    """Scene is valid JSON but unusable for the requested subcommand."""


def _need(scene: Scene, section: str):
    value = getattr(scene, section)
    if value is None:
        raise _InputError(f"this subcommand needs a '{section}' section in the scene")
    return value


# -- subcommand handlers: each returns its machine doc -------------------------
# The doc holds every result.  In text mode ``main`` renders it through the
# subcommand's ``_text_*`` function, from the doc alone.  ``simulate`` is the
# exception: it renders each diagnostics row for the output mode from the
# floats the step kernel yields, and its doc holds them as ``_Rows``.


def _cmd_reduce(scene: Scene, args) -> dict:
    s = wrench_of(_need(scene, "forces")).screw
    report = _report(s)
    doc = {
        "resultant": _vec_doc(report.resultant),
        "amplitude": report.amplitude,
        "scalar_invariant": report.scalar_invariant,
        "vector_invariant": _vec_doc(report.vector_invariant),
        "pitch": _pitch_doc(report.pitch),
        "axis": _axis_doc(report.axis),
    }
    pair = decompose_two_applied(s)
    doc["two_vector_reduction"] = [
        {"point": _vec_doc(pair.point1), "vector": _vec_doc(pair.vector1)},
        {"point": _vec_doc(pair.point2), "vector": _vec_doc(pair.vector2)},
    ]
    return doc


def _text_reduce(doc: dict) -> list[str]:
    lines = [
        f"resultant:        {_fmt(doc['resultant'])}",
        f"amplitude:        {_fmt(doc['amplitude'])}",
        f"scalar invariant: {_fmt(doc['scalar_invariant'])}",
        f"vector invariant: {_fmt(doc['vector_invariant'])}",
        f"pitch:            {_fmt(doc['pitch'])}",
        f"axis:             {_fmt(doc['axis'])}",
        "two-vector reduction:",
    ]
    for leg in doc["two_vector_reduction"]:
        lines.append(f"  at {_fmt(leg['point'])} apply {_fmt(leg['vector'])}")
    return lines


def _cmd_compose(scene: Scene, args) -> dict:
    twists = _need(scene, "twists")
    if not twists:
        raise _InputError("compose needs at least one twist in the scene")
    report = _report(compose_chain(MotionChain(twists)).screw)
    return {
        "angular_velocity": _vec_doc(report.resultant),
        "amplitude": report.amplitude,
        "vector_invariant": _vec_doc(report.vector_invariant),
        "axis_speed": report.vector_invariant.norm(),
        "pitch": _pitch_doc(report.pitch),
        "axis": _axis_doc(report.axis),
    }


def _text_compose(doc: dict) -> list[str]:
    return [
        f"angular velocity: {_fmt(doc['angular_velocity'])}",
        f"amplitude:        {_fmt(doc['amplitude'])}",
        f"vector invariant: {_fmt(doc['vector_invariant'])} (speed {_fmt(doc['axis_speed'])})",
        f"pitch:            {_fmt(doc['pitch'])}",
        f"axis:             {_fmt(doc['axis'])}",
    ]


def _cmd_exp(scene: Scene, args) -> dict:
    twists = _need(scene, "twists")
    if len(twists) != 1:
        raise _InputError("exp needs exactly one twist in the scene")
    if not math.isfinite(args.t):
        raise _InputError(f"--t must be a finite number, got {args.t}")
    g = exp_screw(twists[0].screw, args.t)
    return {
        "t": args.t,
        "rigid_map": {
            "rotation": [float(x) for x in g.rotation.flat()],
            "translation": _vec_doc(g.translation),
        },
    }


def _text_exp(doc: dict) -> list[str]:
    rotation = doc["rigid_map"]["rotation"]
    return [
        f"flow parameter t: {_fmt(doc['t'])}",
        "rotation (rows):",
        *(f"  {_fmt(rotation[i:i + 3])}" for i in (0, 3, 6)),
        f"translation:      {_fmt(doc['rigid_map']['translation'])}",
    ]


def _cmd_log(scene: Scene, args) -> dict:
    g = _need(scene, "rigid_map")
    dec = chasles(g)
    return {
        "angle": dec.angle,
        "slide": dec.slide,
        "axis": _axis_doc(dec.axis),
        "pure_translation": (
            _vec_doc(dec.pure_translation) if dec.pure_translation is not None else None
        ),
        "screw": _screw_doc(dec.to_screw()),
    }


def _text_log(doc: dict) -> list[str]:
    lines = [
        f"angle: {_fmt(doc['angle'])}",
        f"slide: {_fmt(doc['slide'])}",
        f"axis:  {_fmt(doc['axis'])}",
    ]
    if doc["pure_translation"] is not None:
        lines.append(f"pure translation: {_fmt(doc['pure_translation'])}")
    lines.append(f"screw: {_screw_text(doc['screw'])}")
    return lines


def _cmd_reciprocal(scene: Scene, args) -> dict:
    twists = _need(scene, "twists")
    basis = reciprocal_subspace([tw.screw for tw in twists], Frame.standard())
    return {
        "dimension": len(basis),
        "basis": [_screw_doc(z) for z in basis],
    }


def _text_reciprocal(doc: dict) -> list[str]:
    lines = [f"reciprocal subspace dimension: {doc['dimension']}"]
    for i, z in enumerate(doc["basis"]):
        lines.append(f"  z{i + 1}: {_screw_text(z)}")
    return lines


# A diagnostics row keys the fields of a step's ``StepDiagnostics``; in JSON
# it is written as ``json.dump(indent=2)`` writes it in a top-level list.  A
# row is rendered by C-level ``%`` calls: %.12g rounds as ``_round_sig`` does,
# and %.6g is ``_fmt``.  json writes the rounded float p as repr(float(p)),
# and that is p itself, with ".0" appended when p has neither "." nor an
# exponent, unless p's exponent is e+12 to e+15 or e-308 and below.
# Proof: p has at most 12 significant digits and no trailing zeros.  Two
# distinct decimals of at most 12 digits differ by at least 1e-12 of the
# larger.  Every real that rounds to a normal double d lies within 2**-53 |d|
# of it, so two that round to d differ by at most 2**-52 |d|.  So p is the
# only decimal of 12 digits or fewer that rounds to float(p), and repr, the
# shortest decimal that does, has p's digits.  It lays them out as %g does
# (fixed from e-4 up, else an exponent of at least two digits with its sign)
# except that it stays fixed up to e+15 and ends an integral fixed form in
# ".0".  From e-308 down float(p) may be subnormal, spaced too widely for
# the argument, and repr may need fewer digits.  Those two exponent ranges,
# each matched at the end of its field, keep the float and its repr.  A row
# is searched for them only when it holds "e+1" or "e-3", so a process that
# prints no such row does not compile the pattern.
_JSON_ROW = (
    "    {\n" + ",\n".join(f'      "{key}": %s' for key in StepDiagnostics.__slots__) + "\n    }"
)
_JSON_ROUND = ",".join([f"%.{MACHINE_DIGITS}g"] * len(StepDiagnostics.__slots__))
_REPR_EXPONENT = r"e(?:\+1[2-5]|-(?:30[89]|3[12]\d))(?=,|$)"
_TEXT_ROW = "%-7d " + f"%-13.{HUMAN_DIGITS}g " * 4 + f"%.{HUMAN_DIGITS}g"


def _simulate_row(n: int, values: tuple[float, ...], machine: bool) -> str:
    """The row of step n's diagnostics, ``values`` in ``StepDiagnostics``
    field order, refusing the first that is not finite with its path."""
    if not math.isfinite(sum(values)):
        for key, x in zip(StepDiagnostics.__slots__, values):
            if not math.isfinite(x):
                raise NonFiniteError(f"non-finite result at $.diagnostics[{n}].{key}")
    t, ke, pw, wdw, res = values
    values = (t + 0.0, ke + 0.0, pw + 0.0, wdw + 0.0, res + 0.0)  # normalize -0.0
    if machine:
        rounded = _JSON_ROUND % values
        if ("e+1" in rounded or "e-3" in rounded) and re.search(_REPR_EXPONENT, rounded):
            return _JSON_ROW % tuple(map(float, rounded.split(",")))
        return _JSON_ROW % tuple([p if "." in p or "e" in p else p + ".0" for p in rounded.split(",")])
    return _TEXT_ROW % (n, *values)


def _cmd_simulate(scene: Scene, args) -> dict:
    masses = _need(scene, "masses")
    config = _need(scene, "sim")
    inertia = inertia_of(masses)
    moving = any(p.velocity is not None for p in masses.particles)
    l0 = momentum_screw(masses) if moving else MomentumScrew.zero()
    state = BodyState(
        orientation=Mat3.identity(),
        center=inertia.center,
        linear_momentum=l0.linear_momentum,
        angular_momentum_at_c=l0.angular_momentum_at(inertia.center),
        body=inertia,
    )
    # Of the run, only the final state (R, c, p, L), the renormalization
    # count and the printed rows are kept.
    rows = []
    renormalizations = 0
    for n, (final, diagnostics, renormed) in enumerate(_stream(config, state)):
        rows.append(_simulate_row(n, diagnostics, args.json))
        renormalizations += renormed
    r, cx, cy, cz, px, py, pz, lx, ly, lz = final
    return {
        "steps": config.steps,
        "dt": config.dt,
        "integrator": config.integrator,
        "diagnostics": _Rows(rows),
        "final": {
            "center": [cx, cy, cz],
            "linear_momentum": [px, py, pz],
            "angular_momentum_at_c": [lx, ly, lz],
            "orientation": list(r),
        },
        "renormalizations": renormalizations,
    }


def _text_simulate(doc: dict) -> list[str]:
    return [
        "step    time          T             power         w.dI(w)       residual",
        *doc["diagnostics"].rendered,
        f"final center:   {_fmt(doc['final']['center'])}",
        f"final momentum: {_fmt(doc['final']['linear_momentum'])}",
        f"renormalizations: {doc['renormalizations']}",
    ]


def _selfcheck_checks() -> list[tuple[str, bool]]:
    frame = Frame.standard()
    f1, f2, f3, m1, m2, m3 = basis_screws(frame)
    checks: list[tuple[str, bool]] = []

    # Pairing table of the basis screws.
    ok = True
    fs, ms = (f1, f2, f3), (m1, m2, m3)
    for i in range(3):
        for j in range(3):
            want = 1.0 if i == j else 0.0
            ok &= abs(klein_product(fs[i], ms[j]) - want) < 1e-14
            ok &= abs(klein_product(fs[i], fs[j])) < 1e-14
            ok &= abs(klein_product(ms[i], ms[j])) < 1e-14
    checks.append(("pairing table", ok))

    # Commutation relations.
    eps = {(0, 1): 2, (1, 2): 0, (2, 0): 1}
    ok = True
    for (i, j), k in eps.items():
        ok &= commutator(ms[i], ms[j]).isclose(Screw.zero(), abs_=1e-14)
        ok &= commutator(fs[i], ms[j]).isclose(-1.0 * ms[k], abs_=1e-14)
        ok &= commutator(fs[i], fs[j]).isclose(-1.0 * fs[k], abs_=1e-14)
    checks.append(("commutation table", ok))

    # Jacobi identity and Killing form on a fixed triple.
    x = Screw(Vec3(0.3, -1.2, 0.7), Vec3(1.0, 0.4, -0.2))
    y = Screw(Vec3(-0.8, 0.5, 1.1), Vec3(0.6, -1.3, 0.9))
    z = Screw(Vec3(1.4, 0.2, -0.5), Vec3(-0.7, 0.8, 0.3))
    jac = (
        commutator(x, commutator(y, z))
        + commutator(y, commutator(z, x))
        + commutator(z, commutator(x, y))
    )
    checks.append(("jacobi identity", jac.isclose(Screw.zero(), abs_=1e-12)))

    ax, ay = ad(x, frame), ad(y, frame)
    trace = sum(ax[i][k] * ay[k][i] for i in range(6) for k in range(6))
    checks.append(("killing form", abs(trace - killing_form(x, y)) < 1e-9))

    inv = abs(
        klein_product(commutator(z, x), y) + klein_product(x, commutator(z, y))
    )
    checks.append(("pairing invariance", inv < 1e-12))

    dual_ok = abs(pairing(to_dual(x, frame), to_frame(y, frame)) - klein_product(x, y)) < 1e-12
    checks.append(("dual pairing", dual_ok))

    g = exp_screw(x, 1.0)
    back = chasles(g).to_screw()
    checks.append(("flow round trip", back.isclose(x, rel=1e-9, abs_=1e-9)))
    return checks


def _cmd_selfcheck(args) -> dict:
    checks = _selfcheck_checks()
    return {
        "checks": [{"name": name, "ok": ok} for name, ok in checks],
        "all_ok": all(ok for _, ok in checks),
    }


def _text_selfcheck(doc: dict) -> list[str]:
    return [("ok " if c["ok"] else "FAIL ") + c["name"] for c in doc["checks"]]


_HANDLERS = {
    "reduce": _cmd_reduce,
    "compose": _cmd_compose,
    "exp": _cmd_exp,
    "log": _cmd_log,
    "reciprocal": _cmd_reciprocal,
    "simulate": _cmd_simulate,
}

_TEXT = {
    "reduce": _text_reduce,
    "compose": _text_compose,
    "exp": _text_exp,
    "log": _text_log,
    "reciprocal": _text_reciprocal,
    "simulate": _text_simulate,
    "selfcheck": _text_selfcheck,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="screwalg", description="screw-algebra computations on scene files"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in [*_HANDLERS, "selfcheck"]:
        p = sub.add_parser(name)
        if name in _HANDLERS:
            p.add_argument("scene", help="path to a scene JSON file")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        if name == "exp":
            p.add_argument("--t", type=float, default=1.0, help="flow parameter")
    return parser


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def main(argv: list[str] | None = None, stdout=None, stderr=None) -> int:
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes a value such as -1e-3 or -inf for an option; attach it to --t.
    for i in range(len(argv) - 2, -1, -1):
        if argv[i] == "--t" and argv[i + 1].startswith("-") and _is_number(argv[i + 1]):
            argv[i : i + 2] = [f"--t={argv[i + 1]}"]
    # argparse writes help and usage itself, and swallows an OSError on the
    # way, so they are taken as text and written here.
    help_text, usage = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(help_text), contextlib.redirect_stderr(usage):
            args = _build_parser().parse_args(argv)
    except SystemExit as e:  # argparse refused the command line, or printed --help
        if help_text.getvalue():
            return _emit(out, [help_text.getvalue()], e.code, 141)
        return _emit(err, [usage.getvalue()], e.code)

    try:
        if args.command == "selfcheck":
            doc = _cmd_selfcheck(args)
        else:
            try:
                with open(args.scene, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except (OSError, UnicodeDecodeError) as e:
                raise _InputError(f"cannot read scene: {e}") from None
            scene = parse_scene(text)
            doc = _HANDLERS[args.command](scene, args)
        doc = _finished(doc, MACHINE_DIGITS if args.json else None)
    except SceneError as e:
        return _emit(err, [f"scene error at {e.where}: {e.message}\n"], 2)
    except _InputError as e:
        return _emit(err, [f"input error: {e}\n"], 2)
    except ScrewAlgError as e:
        return _emit(err, [f"domain error ({type(e).__name__}): {e}\n"], 3)

    chunks = _json_chunks(doc) if args.json else _line_chunks(_TEXT[args.command](doc))
    status = 1 if args.command == "selfcheck" and not doc["all_ok"] else 0
    # 141 is 128 + SIGPIPE, the shell's status for a reader that has gone.
    return _emit(out, chunks, status, 141)


if __name__ == "__main__":
    sys.exit(main())
