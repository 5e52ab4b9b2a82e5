"""Per-layer probes of the traced run.

``run(ctx)`` is called by ``run.py``: it times ``import screwalg.cli`` in
fresh interpreters with ``-X importtime``, then starts this file as one child
process that imports screwalg and measures each layer through its public
functions on fixed inputs (drawn from ``PROBE_SEED``, not from the run's
seed, so the numbers compare across runs):

    python perfbench/probes.py --work perfbench/.work

The child prints one JSON object of metrics as its last line.  Counts
(``vecmath.values_per_step``, ``cli.stdout_bytes``) are exact and repeat from
run to run; times are medians of repeated blocks.
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

import gen
from harness import median, spawn

PROBE_SEED = 0
IMPORT_REPEATS = 5
SIM_STEPS = 300
CLI_SIM_STEPS = 1000
REPEATS = 5


def _importtime_ms(stderr: bytes) -> tuple[float, float]:
    """Cumulative import time of screwalg.cli and of numpy (0 when numpy
    is not imported), from ``-X importtime`` output."""
    cli = numpy = 0.0
    for line in stderr.splitlines():
        parts = line.split(b"|")
        if len(parts) != 3 or not parts[0].startswith(b"import time:"):
            continue
        name = parts[2].strip()
        if name == b"screwalg.cli":
            cli = int(parts[1]) / 1e3
        elif name == b"numpy":
            numpy = int(parts[1]) / 1e3
    return cli, numpy


def run(ctx) -> dict:
    cli_ms, numpy_ms = [], []
    for _ in range(IMPORT_REPEATS):
        sp = spawn([ctx.python, "-X", "importtime", "-c", "import screwalg.cli"],
                   ctx.env, ctx.root, ctx.work)
        if sp.code != 0:
            raise SystemExit(f"benchmark: import screwalg.cli exited with {sp.code}")
        c, n = _importtime_ms(sp.stderr)
        cli_ms.append(c)
        numpy_ms.append(n)
    sp = spawn([ctx.python, str(Path(__file__).resolve()), "--work", str(ctx.work)],
               ctx.env, ctx.root, ctx.work)
    if sp.code != 0:
        sys.stderr.write(sp.stderr.decode(errors="replace"))
        raise SystemExit(f"benchmark: probes exited with {sp.code}")
    metrics = json.loads(sp.stdout.decode().splitlines()[-1])
    metrics["import.cli_ms"] = median(cli_ms)
    metrics["import.numpy_ms"] = median(numpy_ms)
    return metrics


# -- the child --------------------------------------------------------------------

def _per_call(fn, number: int, repeats: int = REPEATS) -> float:
    """Median over ``repeats`` blocks of the seconds per call of ``fn()``."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        times.append((time.perf_counter() - t0) / number)
    return median(times)


def _child(work: Path) -> dict:
    import io
    import tracemalloc

    import screwalg
    from screwalg import (
        BodyState, Frame, Mat3, MotionChain, Point, Screw, SimConfig, Twist, Vec3, Wrench,
        chasles, commutator, compose_chain, decompose_two_applied, exp_screw, inertia_of,
        klein_product, momentum_screw, moving_frame_derivative, parse_scene,
        reciprocal_subspace, rodrigues, run, step,
    )
    from screwalg import cli

    rng = random.Random(PROBE_SEED)
    m = {}

    def screw():
        return Screw(Vec3(*gen._gauss3(rng)), Vec3(*gen._gauss3(rng)))

    a, b = screw(), screw()
    p = Point(0.3, -1.2, 0.8)
    ma = Mat3(*(rng.gauss(0, 1) for _ in range(9)))
    mb = Mat3(*(rng.gauss(0, 1) for _ in range(9)))
    m["vecmath.vec3_new_ns"] = _per_call(lambda: Vec3(0.1, 0.2, 0.3), 20000) * 1e9
    m["vecmath.mat3_matmul_ns"] = _per_call(lambda: ma.matmul(mb), 5000) * 1e9
    m["screw.value_at_ns"] = _per_call(lambda: a.value_at(p), 10000) * 1e9
    m["screw.axis_ns"] = _per_call(a.axis, 10000) * 1e9
    m["screw.pitch_ns"] = _per_call(a.pitch, 10000) * 1e9
    m["lie.commutator_ns"] = _per_call(lambda: commutator(a, b), 10000) * 1e9
    m["lie.klein_product_ns"] = _per_call(lambda: klein_product(a, b), 20000) * 1e9
    triple = [screw() for _ in range(3)]
    frame = Frame.standard()
    m["lie.reciprocal_subspace_us"] = _per_call(lambda: reciprocal_subspace(triple, frame), 300) * 1e6
    u = Vec3(*gen.unit(gen._gauss3(rng)))
    m["rigid.rodrigues_us"] = _per_call(lambda: rodrigues(u, 0.7), 2000) * 1e6
    g = exp_screw(a, 1.0)
    m["rigid.exp_screw_us"] = _per_call(lambda: exp_screw(a, 1.0), 2000) * 1e6
    m["rigid.chasles_us"] = _per_call(lambda: chasles(g), 2000) * 1e6
    m["reduction.decompose_two_applied_us"] = _per_call(lambda: decompose_two_applied(a), 2000) * 1e6
    chain = MotionChain(tuple(Twist(screw()) for _ in range(6)))
    m["kinematics.compose_chain_us"] = _per_call(lambda: compose_chain(chain), 2000) * 1e6

    scenes = gen.cli_requests(random.Random(PROBE_SEED), 2, {}, {})
    texts = [r["text"] for r in scenes if r["text"] is not None]
    m["scene.parse_us"] = _per_call(lambda: [parse_scene(t) for t in texts], 20) / len(texts) * 1e6

    # Simulator: a fixed torque-free tumble.
    scene_dict, _ = gen.sim_scene(random.Random(PROBE_SEED), "tumble", 4, SIM_STEPS)
    scene = parse_scene(json.dumps(scene_dict))
    inertia = inertia_of(scene.masses)
    l0 = momentum_screw(scene.masses)
    state0 = BodyState(orientation=Mat3.identity(), center=inertia.center,
                       linear_momentum=l0.linear_momentum,
                       angular_momentum_at_c=l0.angular_momentum_at(inertia.center),
                       body=inertia)
    dt = scene.sim.dt
    twist = Twist(Screw(Vec3(0.1, 1.0, -0.2), Vec3(0.0, 0.3, 0.1)))
    wrench = Wrench.zero()
    m["dynamics.moving_frame_derivative_us"] = _per_call(
        lambda: moving_frame_derivative(l0, twist, wrench), 2000) * 1e6

    def steps():
        s = state0
        for _ in range(SIM_STEPS):
            s = step(s, None, dt, "midpoint")

    config = SimConfig(dt=dt, steps=SIM_STEPS, integrator="midpoint")
    # Step and run blocks alternate, so a shift in machine speed between
    # them does not leak into the diagnostics share.
    step_s, run_s = [], []
    for _ in range(REPEATS):
        step_s.append(_per_call(steps, 1, repeats=1))
        run_s.append(_per_call(lambda: run(config, state0), 1, repeats=1))
    step_us = median(step_s) / SIM_STEPS * 1e6
    run_us = median(run_s) / SIM_STEPS * 1e6
    m["sim.step_us"] = step_us
    m["sim.run_us_per_step"] = run_us
    m["sim.diagnostics_share"] = 1.0 - step_us / run_us

    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    traj = run(config, state0)
    m["sim.bytes_retained_per_step"] = (tracemalloc.get_traced_memory()[0] - before) / SIM_STEPS
    tracemalloc.stop()
    del traj

    # Exact count of value-object constructions per run step, keyed on the
    # Python-level constructors of the vecmath classes.
    codes = {fn.__code__ for cls in (Vec3, Point, Mat3)
             for fn in (cls.__dict__.get("__init__"), cls.__dict__.get("__new__"))
             if hasattr(fn, "__code__")}
    count = 0

    def hook(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code in codes:
            count += 1

    sys.setprofile(hook)
    run(config, state0)
    sys.setprofile(None)
    m["vecmath.values_per_step"] = count / SIM_STEPS

    # In-process CLI on fixed scenes: the fixture scenes of the goldens and
    # a short tumble; parse and compute are timed by wrapping the module's
    # parse function and subcommand handlers.
    root = Path(screwalg.__file__).resolve().parents[2]
    sim_dict = dict(scene_dict, sim=dict(scene_dict["sim"], steps=CLI_SIM_STEPS))
    sim_path = work / "probe_simulate.json"
    sim_path.write_text(json.dumps(sim_dict), encoding="utf-8")
    argvs = {
        "reduce": ["reduce", str(root / "tests/scenes/three_forces.json")],
        "compose": ["compose", str(root / "tests/scenes/rotation_couple.json")],
        "exp": ["exp", str(root / "tests/scenes/screw_motion.json")],
        "log": ["log", str(root / "tests/scenes/screw_motion.json")],
        "reciprocal": ["reciprocal", str(root / "tests/scenes/revolute_joint.json")],
        "simulate": ["simulate", str(sim_path)],
        "selfcheck": ["selfcheck"],
    }

    def main_once(argv):
        out = io.StringIO()
        if cli.main(argv + ["--json"], stdout=out, stderr=io.StringIO()) != 0:
            raise SystemExit(f"probe: cli {argv[0]} failed")
        return out.getvalue()

    stdout_bytes = 0
    for sub, argv in argvs.items():
        times = []
        for _ in range(3 if sub == "simulate" else REPEATS):
            t0 = time.perf_counter()
            text = main_once(argv)
            times.append(time.perf_counter() - t0)
        m[f"cli.main_ms.{sub}"] = median(times) * 1e3
        stdout_bytes += len(text.encode("utf-8"))

    spent = {"parse": 0.0, "compute": 0.0}

    def timed(kind, fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[kind] += time.perf_counter() - t0
        return wrapper

    handlers = getattr(cli, "_HANDLERS", {})
    originals = (cli.parse_scene, dict(handlers), getattr(cli, "_cmd_selfcheck", None))
    cli.parse_scene = timed("parse", originals[0])
    handlers.update({name: timed("compute", fn) for name, fn in originals[1].items()})
    if originals[2] is not None:
        cli._cmd_selfcheck = timed("compute", originals[2])
    try:
        t0 = time.perf_counter()
        for argv in argvs.values():
            main_once(argv)
        render_ms = (time.perf_counter() - t0 - spent["parse"] - spent["compute"]) * 1e3
    finally:
        cli.parse_scene = originals[0]
        handlers.update(originals[1])
        if originals[2] is not None:
            cli._cmd_selfcheck = originals[2]
    m["cli.render_ms"] = render_ms
    m["cli.stdout_bytes"] = float(stdout_bytes)
    return m


if __name__ == "__main__":
    import argparse
    ap = argparse.ArgumentParser()
    ap.add_argument("--work", required=True)
    print(json.dumps(_child(Path(ap.parse_args().work))))
