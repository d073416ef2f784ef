#!/usr/bin/env python3
"""Count the code lines of a package, per module and in total.

A code line holds at least one token that is not a comment, a line break or
indentation; the lines of a module's, class's or function's docstring do not
count.  A token spanning several lines, such as a multi-line string that is
not a docstring, counts every line it spans.  This is the count the design
goals in ROADMAP.md and the entries in CHANGES.md quote.

    python scripts/code_lines.py              # src/ndfronts
    python scripts/code_lines.py path/to/pkg
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import sys
import tokenize
from pathlib import Path

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
HAS_DOCSTRING = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source: str) -> set[int]:
    """The line numbers of every docstring in ``source``."""
    lines: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, HAS_DOCSTRING) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in ``source``, a module's text."""
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(source))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("package", nargs="?", type=Path, default=Path(__file__).resolve().parent.parent / "src" / "ndfronts")
    args = parser.parse_args()
    total = 0
    for path in sorted(args.package.glob("*.py")):
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{path.name:<16} {n:>5}")
    print(f"{'total':<16} {total:>5}")


if __name__ == "__main__":
    try:
        main()
        sys.stdout.flush()  # a closed stdout fails here, not in the interpreter's last flush
    except BrokenPipeError:
        # as the CLI does when the reader closes stdout early: exit 141
        # quietly, with stdout on devnull so the last flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(141)
