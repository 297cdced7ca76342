"""Count the code lines of Python sources: lines that hold code, not
docstrings, comments or blank lines.

A line counts when a token other than a comment or a line break starts or
runs on it, so every line of a call written over several lines counts, and
so does every line of a string that is not a docstring. A docstring is the
string expression that opens a module, class or function body. Run:

    python tests/code_lines.py src/qpusched

It prints the count of each module and the total.
"""

from __future__ import annotations

import ast
import io
import pathlib
import sys
import tokenize

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every docstring in ``tree``."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in ``source``."""
    docstrings = _docstring_lines(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main(paths: list[str]) -> int:
    files = sorted(f for p in map(pathlib.Path, paths)
                   for f in ([p] if p.is_file() else p.rglob("*.py")))
    total = 0
    for f in files:
        count = code_lines(f.read_text())
        total += count
        print(f"{count:6d} {f}")
    print(f"{total:6d} total")
    return total


if __name__ == "__main__":
    main(sys.argv[1:] or ["src"])
