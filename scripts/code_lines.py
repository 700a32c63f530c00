#!/usr/bin/env python3
"""Count the code lines of each module of the package, and their total.

A code line holds a token other than a comment.  Blank lines, comment-only
lines and the lines of module, class and function docstrings are left out;
any other string, and a docstring's line that also holds code, counts.

    python scripts/code_lines.py

Prints one row per module of ``src/cmld``, sorted by name, then the total.
"""

import ast
import io
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def _docstrings(tree: ast.Module) -> set[tuple[int, int]]:
    """The start (line, column) of each docstring's string token."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.lineno, first.col_offset))
    return starts


def code_lines(path: Path) -> int:
    source = path.read_text(encoding="utf-8")
    docs = _docstrings(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE or (tok.type == tokenize.STRING and tok.start in docs):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main() -> None:
    pkg = Path(__file__).resolve().parents[1] / "src" / "cmld"
    counts = {p.name: code_lines(p) for p in sorted(pkg.glob("*.py"))}
    width = max(map(len, counts), default=5)
    for name, n in counts.items():
        print(f"{name:<{width}}  {n:>6}")
    print(f"{'total':<{width}}  {sum(counts.values()):>6}")


if __name__ == "__main__":
    main()
