r"""Count the lines of each module of a source tree, and its code lines.

    python3 scripts/count_lines.py            # the modules under src/
    python3 scripts/count_lines.py src/tollshare/model.py tests

A code line is a non-blank line that is neither part of a module, class or
function docstring nor a line holding only a comment.  Prints one row per
module, ``lines code path``, and the totals last.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_DEFINITIONS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, _DEFINITIONS) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """``(lines, code lines)`` of one module's text."""
    text = source.splitlines()
    with_code: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            with_code.update(range(token.start[0], token.end[0] + 1))
    code = with_code - docstring_lines(ast.parse(source))
    return len(text), sum(1 for line in code if text[line - 1].strip())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", type=Path, default=[ROOT / "src"],
                        help="modules or directories to count (default: src/)")
    args = parser.parse_args(argv)
    modules = sorted(module for path in args.paths
                     for module in ([path] if path.is_file() else path.rglob("*.py")))
    totals = [0, 0]
    for module in modules:
        lines, code = count(module.read_text())
        totals[0] += lines
        totals[1] += code
        shown = module.relative_to(ROOT) if module.is_relative_to(ROOT) else module
        print(f"{lines:6d} {code:6d} {shown}")
    print(f"{totals[0]:6d} {totals[1]:6d} total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
