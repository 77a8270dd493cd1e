"""Code lines of the package: the size metric the ROADMAP tracks.

Run from anywhere, with the standard library alone:

    python tests/code_lines.py

It counts the modules of src/dyckflip and prints each module's count
and then the total. A code line is a line that holds a token other than
a comment, unless it is part of a module's, class's or function's
docstring; blank lines, comment lines and docstrings are not counted,
and every line of a statement or string that spans lines is.

The file is not named test_*.py, so the test suite does not collect it.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# the tokens that a blank or comment-only line holds
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of code lines of one module's source."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            value = first.value if isinstance(first, ast.Expr) else None
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                lines -= set(range(first.lineno, first.end_lineno + 1))
    return len(lines)


if __name__ == "__main__":
    total = 0
    for path in sorted((ROOT / "src" / "dyckflip").glob("*.py")):
        count = code_lines(path.read_text())
        print(f"{path.name} {count}")
        total += count
    print(f"total {total}")
