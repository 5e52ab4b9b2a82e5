#!/usr/bin/env python3
"""Count the code lines and the docstring lines of each module of a package.

A docstring line is a line of a module's, class's or function's docstring,
found with ``ast``.  A code line is any other line that holds a token
(``tokenize``) other than a comment: a statement, an expression, a string
that is no docstring, or a line of a bracketed expression.  Blank lines and
comment-only lines are neither.  Prints one line per module, then the total;
it exits 0 whatever the counts are.

    python3 scripts/loc.py                 # src/screwalg
    python3 scripts/loc.py path/to/package
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int, int]:
    """(all lines, code lines, docstring lines) of one module's source."""
    docs = docstring_lines(ast.parse(source))
    tokens = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            tokens.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(tokens - docs), len(docs)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("package", nargs="?", default="src/screwalg", help="a directory of modules (default src/screwalg)")
    args = ap.parse_args()
    totals = [0, 0, 0]
    print(f"{'module':<16} {'lines':>6} {'code':>6} {'docs':>6}")
    for path in sorted(Path(args.package).glob("*.py")):
        counts = count(path.read_text())
        totals = [a + b for a, b in zip(totals, counts)]
        print(f"{path.name:<16} {counts[0]:>6} {counts[1]:>6} {counts[2]:>6}")
    print(f"{'total':<16} {totals[0]:>6} {totals[1]:>6} {totals[2]:>6}")


if __name__ == "__main__":
    main()
