#!/usr/bin/env python3
"""Drop one group refusal at a time and see whether the tests notice.

Each ``_refuse(...)`` call statement of the module, the one refusal of a
group of float values, is a mutant: in a temporary copy of the repository the
call is replaced by ``pass``, so the group's values go on unchecked, and the
test files run with ``-x`` (default hypothesis profile, a fixed hypothesis seed,
the example database cleared after each mutant), two mutants at a time.  A mutant is killed when the
tests fail on it, and survives when they pass.  Prints one line per call
site, then the tally, and exits 1 when any mutant survives.

    python3 scripts/drop_checks.py src/screwalg/sim.py tests/test_sim.py tests/test_trajectory_bits.py

Run it from the repository root.  CI runs the line above, which takes about
20 s on two CPUs, and the same check of ``rigid.py``, ``lie.py`` and
``vecmath.py`` against their own test files (a few seconds each), so a group
refusal that no test reaches fails the build.
"""

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from queue import Queue

WORKERS = 2
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", ".work")


def check_calls(source: str) -> list[tuple[int, int]]:
    """(first line, last line) of each statement that is a bare
    ``_refuse(...)`` call, in source order."""
    return sorted(
        (node.lineno, node.end_lineno)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Call)
        and isinstance(node.value.func, ast.Name)
        and node.value.func.id == "_refuse"
    )


def dropped(lines: list[str], first: int, last: int) -> str:
    """The source with lines first..last (1-based) replaced by one ``pass``
    at the statement's indentation."""
    head = lines[first - 1]
    indent = head[: len(head) - len(head.lstrip())]
    return "".join(lines[: first - 1] + [f"{indent}pass\n"] + lines[last:])


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("module", help="the module whose checks are dropped, e.g. src/screwalg/sim.py")
    ap.add_argument("tests", nargs="+", help="the test files to run against each mutant")
    args = ap.parse_args()

    root = Path.cwd()
    module = Path(args.module).resolve().relative_to(root)
    source = (root / module).read_text()
    lines = source.splitlines(keepends=True)
    sites = check_calls(source)
    if not sites:
        sys.exit(f"{module}: no _refuse call")

    scratch = Path(tempfile.mkdtemp(prefix="drop_checks-"))
    copies: Queue[Path] = Queue()
    for n in range(WORKERS):
        copy = scratch / str(n)
        shutil.copytree(root, copy, ignore=IGNORED)
        copies.put(copy)
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               "--hypothesis-seed=0", *args.tests]

    def killed(site: tuple[int, int]) -> bool:
        copy = copies.get()
        try:
            (copy / module).write_text(dropped(lines, *site))
            result = subprocess.run(command, cwd=copy, env=env, capture_output=True)
            return result.returncode != 0
        finally:
            (copy / module).write_text(source)
            shutil.rmtree(copy / ".hypothesis", ignore_errors=True)
            copies.put(copy)

    try:
        with ThreadPoolExecutor(WORKERS) as pool:
            outcomes = list(pool.map(killed, sites))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for (first, _), dead in zip(sites, outcomes):
        print(f"{module}:{first} {'killed' if dead else 'survived'}")
    print(f"killed {sum(outcomes)} of {len(sites)}")
    if not all(outcomes):
        sys.exit(1)


if __name__ == "__main__":
    main()
