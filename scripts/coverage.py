#!/usr/bin/env python3
"""Print the lines of ``src/screwalg`` that the tier-1 tests never run.

A ``sys.settrace`` tracer, standard library only, records every line that
runs in a package module while pytest runs the tests in this process.  The
lines a module could run are the line numbers of the ``co_lines()`` of its
code objects, the module's own and every one nested in it.  Prints one line
per module with a line not run, then the tally, and exits 0 whatever the
tests do: it measures, it does not gate.

    python3 scripts/coverage.py                    # tests/, --hypothesis-seed=0
    python3 scripts/coverage.py tests/test_screw.py

Run it from the repository root; arguments go to pytest in place of
``tests``.  Lines that only a subprocess runs (``cli.main`` on a closed
stream, the ``__main__`` guard) are reported as not run.  Tracing makes the
tests several times slower: tier-1 takes about 2.5 minutes on one CPU, so
this is not a CI step.
"""

import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "screwalg"


def runnable_lines(path: Path) -> set[int]:
    """The line numbers of the code objects compiled from ``path``."""
    lines: set[int] = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def ranges(lines: list[int]) -> str:
    """Sorted line numbers as ``a–b`` runs: "136–138, 586"."""
    runs: list[list[int]] = []
    for line in lines:
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}–{b}" for a, b in runs)


def main() -> None:
    modules = {str(p): runnable_lines(p) for p in sorted(PACKAGE.glob("*.py"))}
    ran: dict[str, set[int]] = {name: set() for name in modules}
    # co_filename -> the set of lines run in it, or None outside the package.
    seen: dict[str, set[int] | None] = {}

    def local(frame, event, arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in seen:
            seen[filename] = ran.get(os.path.abspath(filename))
        lines = seen[filename]
        if lines is None:
            return None
        lines.add(frame.f_lineno)
        return local

    # The tests import the package from src/, and so do the subprocesses they start.
    sys.path.insert(0, str(PACKAGE.parent))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    import pytest

    args = sys.argv[1:] or ["tests"]
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        pytest.main(["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = missed = 0
    for name, lines in modules.items():
        left = sorted(lines - ran[name])
        total += len(lines)
        missed += len(left)
        if left:
            print(f"{Path(name).relative_to(ROOT)}: {ranges(left)}")
    print(f"{missed} of {total} lines not run")


if __name__ == "__main__":
    main()
