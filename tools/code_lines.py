"""Count the lines of each module of ``src/wsld``: all of them, and code only.

Usage, from anywhere:

    python3 tools/code_lines.py [ROOT]

``ROOT`` is a checkout root (default: the one holding this script).  A code
line is a line that holds a token other than a comment, and that is not part
of a docstring: the string that opens a module, class or function body.
Blank lines and comment-only lines are not code.  Prints one line per module,
``name total code``, and the sums.  Standard library only.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers spanned by the docstrings in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """``(total, code)`` lines of the Python ``source``."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= _docstring_lines(ast.parse(source))
    return len(source.splitlines()), len(code)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent
    sums = [0, 0]
    for path in sorted((root / "src" / "wsld").glob("*.py")):
        total, code = count(path.read_text(encoding="utf-8"))
        print(f"{path.stem} {total} {code}")
        sums[0] += total
        sums[1] += code
    print(f"total {sums[0]} {sums[1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
