"""Print the code lines of each module of a package, and their total.

A code line is a line that holds some token other than a comment and is not
part of a docstring (the first statement of a module, class or function,
when that statement is a string). Blank lines, comment lines and docstrings
are not counted. Only ``ast`` and ``tokenize`` are used.

Usage: python tools/code_lines.py [package directory, default src/nodalseries]
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    with path.open("rb") as f:
        tokens = list(tokenize.tokenize(f.readline))
    lines: set[int] = set()
    for tok in tokens:
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(path.read_bytes())))


def main(argv: list[str]) -> int:
    package = Path(argv[0] if argv else "src/nodalseries")
    total = 0
    for path in sorted(package.glob("*.py")):
        n = code_lines(path)
        total += n
        print(f"{n:6,}  {path.name}")
    print(f"{total:6,}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
