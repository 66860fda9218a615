r"""Count the lines of each module of a source tree, and its code lines.

    python3 scripts/count_lines.py            # the modules under src/
    python3 scripts/count_lines.py src/tollshare/model.py tests
    python3 scripts/count_lines.py --against HEAD~1   # src/ then and now

A code line is a non-blank line that is neither part of a module, class or
function docstring nor a line holding only a comment.  Prints one row per
module, ``lines code path``, and the totals last.  With ``--against REV``
each row starts with the module's ``lines code`` at the git revision REV,
read with ``git show``, and a ``-`` pair stands for a module missing on
one side.
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
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


def git(where: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(where), *args], check=True,
                          capture_output=True, text=True).stdout


def at_revision(rev: str, paths: list[Path]) -> dict[Path, str]:
    """The text at ``rev`` of each module under ``paths``, keyed by its path
    in the working tree."""
    texts: dict[Path, str] = {}
    for path in (path.resolve() for path in paths):
        top = Path(git(path if path.is_dir() else path.parent,
                       "rev-parse", "--show-toplevel").strip())
        listed = git(top, "ls-tree", "-r", "-z", "--name-only", rev, "--",
                     str(path.relative_to(top)))
        for name in filter(None, listed.split("\0")):
            if name.endswith(".py"):
                texts[top / name] = git(top, "show", f"{rev}:{name}")
    return texts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", type=Path, default=[ROOT / "src"],
                        help="modules or directories to count (default: src/)")
    parser.add_argument("--against", metavar="REV",
                        help="also count the modules at the git revision REV")
    args = parser.parse_args(argv)
    modules = (module for path in args.paths
               for module in ([path] if path.is_file() else path.rglob("*.py")))
    sides = [{module.resolve(): count(module.read_text()) for module in modules}]
    if args.against is not None:
        try:
            texts = at_revision(args.against, args.paths)
        except subprocess.CalledProcessError as exc:
            parser.error(f"--against {args.against}: {exc.stderr.strip()}")
        sides.insert(0, {module: count(text) for module, text in texts.items()})
    totals = [[0, 0] for _ in sides]
    for module in sorted(set().union(*sides)):
        cells = []
        for side, total in zip(sides, totals):
            lines, code = side.get(module, ("-", "-"))
            if module in side:
                total[0] += lines
                total[1] += code
            cells.append(f"{lines:>6} {code:>6}")
        shown = module.relative_to(ROOT) if module.is_relative_to(ROOT) else module
        print(*cells, shown)
    print(*(f"{lines:6d} {code:6d}" for lines, code in totals), "total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
