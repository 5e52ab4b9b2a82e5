"""numpy stays behind the three matrix factorizations.

Only ``dynamics`` (the reciprocal-subspace SVD) and ``sim`` (the inertia
eigendecomposition and the polar projection) may import it, and only inside
the functions that factorize: no module imports it at module level, so a
process that never factorizes never loads it.  The rest of the package works
on plain floats.  No subcommand loads ``dataclasses``, and one that never
factorizes does not load ``inspect`` either.  Importing the command line
loads no ``logging``: ``sim`` imports it at its first warning.
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
ALLOWED = {"dynamics.py", "sim.py"}


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


def _imports_numpy_at_module_level(tree: ast.Module) -> bool:
    """An import outside every function body, including one under a module
    level ``if`` or ``try``."""
    stack: list[ast.AST] = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)) and _imports_numpy(node):
            return True
        stack.extend(ast.iter_child_nodes(node))
    return False


def _sources() -> dict[str, ast.Module]:
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 2
    return {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sources}


def test_numpy_is_imported_only_by_the_factorizing_modules():
    importers = {name for name, tree in _sources().items() if _imports_numpy(tree)}
    assert importers <= ALLOWED, f"numpy imported by {sorted(importers - ALLOWED)}"


def test_no_module_imports_numpy_at_module_level():
    eager = {name for name, tree in _sources().items() if _imports_numpy_at_module_level(tree)}
    assert not eager, f"numpy imported at module level by {sorted(eager)}"


def test_the_guard_sees_nested_and_from_imports():
    assert _imports_numpy(ast.parse("def f():\n    import numpy.linalg as la\n"))
    assert _imports_numpy(ast.parse("from numpy import array\n"))
    assert not _imports_numpy(ast.parse("import numbers\nfrom .numpyish import x\n"))


def test_the_module_level_guard_skips_function_bodies_only():
    assert _imports_numpy_at_module_level(ast.parse("import numpy as np\n"))
    assert _imports_numpy_at_module_level(ast.parse("try:\n    import numpy\nexcept ImportError:\n    pass\n"))
    assert _imports_numpy_at_module_level(ast.parse("class C:\n    from numpy import array\n"))
    assert not _imports_numpy_at_module_level(ast.parse("def f():\n    import numpy as np\n"))
    assert not _imports_numpy_at_module_level(
        ast.parse("class C:\n    def f(self):\n        from numpy import linalg\n")
    )


# Each call runs through screwalg.cli.main in one fresh interpreter; after
# each, numpy must still be absent, and so must dataclasses and inspect, which
# no module of the package imports.  reciprocal and simulate come last and must
# load numpy, which shows the probe can see it arrive; numpy itself imports
# inspect, but never dataclasses.
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
        ["selfcheck"],
    ]
    for argv in calls + [argv + ["--json"] for argv in calls]:
        code = main(argv, stdout=io.StringIO(), stderr=io.StringIO())
        loaded = [m for m in ("numpy", "dataclasses", "inspect") if m in sys.modules]
        if code != 0 or loaded:
            sys.exit(f"{argv}: exit {code}, loaded: {loaded}")
    for argv in (["reciprocal", scenes + "/revolute_joint.json"],
                 ["simulate", scenes + "/tumble_midpoint.json"]):
        code = main(argv, stdout=io.StringIO(), stderr=io.StringIO())
        if code != 0 or "dataclasses" in sys.modules:
            sys.exit(f"{argv}: exit {code}, dataclasses loaded: {'dataclasses' in sys.modules}")
        if "numpy" not in sys.modules:
            sys.exit(f"{argv}: numpy not loaded")
    """
)


def test_subcommands_without_a_factorization_never_load_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, str(SCENES)], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr


def test_importing_the_cli_does_not_load_logging():
    # -S keeps site out, whose .pth files may import logging themselves.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    probe = "import sys, screwalg.cli; sys.exit('logging loaded' if 'logging' in sys.modules else 0)"
    proc = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
