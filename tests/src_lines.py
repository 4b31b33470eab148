"""Count the lines of the package's source, with and without its docs.

    python tests/src_lines.py [DIR]

prints two figures for each ``.py`` file under ``DIR`` (default
``src/flagtke``), one row ``<lines> <code lines> <path>`` per file with
its path relative to ``DIR``, and then the two totals: the number of
lines, as ``wc -l`` counts them, and the number left once docstrings,
comments and blank lines are removed.  A docstring is the leading
string statement of a module, a class or a function, found with `ast`;
a comment line or a blank line is one that holds no token but comments
and line ends, found with `tokenize`.  Stdlib only; the file name keeps it out of pytest's
collection.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "flagtke"

# Tokens that a comment line or a blank line may hold.
_NON_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> tuple[int, int]:
    """(total lines, code lines) of one Python source text."""
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NON_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return text.count("\n"), len(code - _docstring_lines(ast.parse(text)))


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else SRC
    total = code = 0
    for path in sorted(root.rglob("*.py")):
        t, c = count(path.read_text(encoding="utf-8"))
        print(f"{t} {c} {path.relative_to(root).as_posix()}")
        total += t
        code += c
    print(f"{total} lines")
    print(f"{code} without docstrings, comments and blank lines")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
