"""Count the code lines of Python sources: the measure behind every line count
that CHANGES.md and ROADMAP.md give for a simplicity change.

    python3 tools/code_lines.py [PATH ...]

A code line holds at least one token other than a comment.  Blank lines,
comment-only lines and the lines of module, class and function docstrings do
not count; a line that continues a bracket or a multi-line string does.  For
a directory it prints the count of every .py file below it, then the total.
Only the standard library is used.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

# Tokens that are layout or commentary, not code.
_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers taken by module, class and function docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        body = node.body
        if (body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in one module's source text."""
    skip = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories (default: src)")
    args = parser.parse_args(argv)
    total = 0
    for arg in args.paths:
        root = Path(arg)
        files = sorted(root.rglob("*.py")) if root.is_dir() else [root]
        for path in files:
            count = code_lines(path.read_text())
            total += count
            print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
