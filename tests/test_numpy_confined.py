"""numpy stays behind the three matrix factorizations.

Only ``dynamics`` (the reciprocal-subspace SVD) and ``sim`` (the inertia
eigendecomposition and the polar projection) may import it; the rest of the
package works on plain floats.  An import anywhere inside those two modules,
at module level or in a function, is allowed.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "screwalg"
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


def test_numpy_is_imported_only_by_the_factorizing_modules():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 2
    importers = {
        path.name
        for path in sources
        if _imports_numpy(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert importers <= ALLOWED, f"numpy imported by {sorted(importers - ALLOWED)}"


def test_the_guard_sees_nested_and_from_imports():
    assert _imports_numpy(ast.parse("def f():\n    import numpy.linalg as la\n"))
    assert _imports_numpy(ast.parse("from numpy import array\n"))
    assert not _imports_numpy(ast.parse("import numbers\nfrom .numpyish import x\n"))
