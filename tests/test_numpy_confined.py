"""numpy is not a dependency of the package.

No module imports it, at module level or inside a function: the package
works on plain floats, and its three factorizations (the inertia inverse,
the reciprocal subspace's null space and the polar projection of a drifted
orientation) rest on one pure-Python Jacobi SVD.  No subcommand loads
numpy, ``dataclasses`` or ``inspect``, and neither does a run that projects
its orientation.  Importing the command line loads no ``logging``, which
``sim`` imports at its first warning, and no ``typing``.  numpy stays in the
``test`` extra, as an oracle.
"""

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "screwalg"
SCENES = ROOT / "tests" / "scenes"


def _imports_numpy(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        if any(name == "numpy" or name.startswith("numpy.") for name in names):
            return True
    return False


def _sources() -> dict[str, ast.Module]:
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 2
    return {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sources}


def test_no_module_imports_numpy():
    importers = {name for name, tree in _sources().items() if _imports_numpy(tree)}
    assert not importers, f"numpy imported by {sorted(importers)}"


def test_the_guard_sees_nested_and_from_imports():
    assert _imports_numpy(ast.parse("def f():\n    import numpy.linalg as la\n"))
    assert _imports_numpy(ast.parse("from numpy import array\n"))
    assert not _imports_numpy(ast.parse("import numbers\nfrom .numpyish import x\n"))


# Each call runs through screwalg.cli.main in one fresh interpreter; after
# each, numpy, dataclasses and inspect must all be absent: no module of the
# package imports them.
_PROBE = textwrap.dedent(
    """
    import io, sys
    from screwalg.cli import main

    scenes = sys.argv[1]
    calls = [
        ["reduce", scenes + "/three_forces.json"],
        ["compose", scenes + "/rotation_couple.json"],
        ["exp", scenes + "/screw_motion.json", "--t", "0.5"],
        ["log", scenes + "/screw_motion.json"],
        ["reciprocal", scenes + "/revolute_joint.json"],
        ["selfcheck"],
        ["simulate", scenes + "/tumble_midpoint.json"],
        ["simulate", scenes + "/forced_euler.json"],
    ]
    for argv in calls + [argv + ["--json"] for argv in calls]:
        code = main(argv, stdout=io.StringIO(), stderr=io.StringIO())
        loaded = [m for m in ("numpy", "dataclasses", "inspect") if m in sys.modules]
        if code != 0 or loaded:
            sys.exit(f"{argv}: exit {code}, loaded: {loaded}")
    """
)

# A library run from an orientation off SO(3), as in
# test_trajectory_bits._forced_euler: its first step projects the orientation
# back onto SO(3), in a fresh interpreter, and must not load numpy.
_PROJECTING_RUN = textwrap.dedent(
    """
    import sys
    from screwalg import BodyState, InertiaOperator, Mat3, Point, SimConfig, Vec3, run

    body = InertiaOperator(2.5, Point(0.0, 0.0, 0.0), Mat3(1.25, 0.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0, 3.5))
    s0 = BodyState(Mat3.identity() * (1.0 + 1e-7), Point(0.0, 0.0, 0.0), Vec3.zero(), Vec3.zero(), body)
    traj = run(SimConfig(dt=2e-3, steps=3, integrator="euler"), s0)
    if traj.renormalizations != 1 or "numpy" in sys.modules:
        sys.exit(f"renormalizations: {traj.renormalizations}, numpy loaded: {'numpy' in sys.modules}")
    """
)


def _run_probe(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def test_no_subcommand_loads_numpy():
    proc = _run_probe("-c", _PROBE, str(SCENES))
    assert proc.returncode == 0, proc.stderr


def test_a_run_that_projects_its_orientation_does_not_load_numpy():
    proc = _run_probe("-c", _PROJECTING_RUN)
    assert proc.returncode == 0, proc.stderr


def test_importing_the_cli_does_not_load_logging():
    # -S keeps site out, whose .pth files may import either themselves.
    probe = (
        "import sys, screwalg.cli\n"
        "loaded = [m for m in ('logging', 'typing') if m in sys.modules]\n"
        "sys.exit(f'loaded: {loaded}' if loaded else 0)"
    )
    proc = _run_probe("-S", "-c", probe)
    assert proc.returncode == 0, proc.stderr
