"""Count the code lines of Python sources: every line that holds a token
other than a comment, leaving out blank lines, comment-only lines and
docstrings (of modules, classes and functions).

Usage:
    python scripts/count_code_lines.py            # the files under src/
    python scripts/count_code_lines.py src/reachfuzz/frontend.py tests

Prints one line per file, `<count> <path>`, then `<total> total`.
"""

from __future__ import annotations

import ast
import io
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


def _docstring_lines(tree: ast.AST) -> "set[int]":
    lines = set()
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def count_code_lines(source: str) -> int:
    """Number of code lines in source, by the rule of the module docstring."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - _docstring_lines(ast.parse(source)))


def main(argv: "list[str]") -> int:
    files = []
    for arg in argv or ["src"]:
        path = Path(arg)
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    total = 0
    for path in files:
        n = count_code_lines(path.read_text())
        total += n
        print(f"{n} {path}")
    print(f"{total} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
