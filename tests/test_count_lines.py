"""Tests of ``scripts/count_lines.py``, with and without ``--against``."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "count_lines.py"


@pytest.fixture
def count_lines():
    spec = importlib.util.spec_from_file_location("count_lines", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _git(repo: Path, *args: str) -> None:
    subprocess.run(["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t",
                    "-c", "commit.gpgsign=false", *args], check=True, capture_output=True)


def _commit(repo: Path, files: dict[str, str | None]) -> None:
    for name, text in files.items():
        path = repo / name
        if text is None:
            path.unlink()
        else:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "step")


def test_counts_docstrings_comments_and_blanks_apart(count_lines):
    source = ('"""Module.\n\nMore."""\n\n# a comment\nx = 1  # trailing\n\n\n'
              'def f():\n    """Doc."""\n    return (1,\n            2)\n')
    assert count_lines.count(source) == (12, 4)


def test_against_a_revision_prints_both_sides(count_lines, tmp_path, capsys):
    repo = tmp_path / "repo"
    repo.mkdir()
    _git(repo, "init", "-q")
    _commit(repo, {"pkg/a.py": '"""A."""\n\nx = 1\n', "pkg/b.py": "y = 2\nz = 3\n",
                   "pkg/notes.txt": "not python\n"})
    _commit(repo, {"pkg/a.py": '"""A."""\n\nx = 1\ny = 2\n', "pkg/b.py": None,
                   "pkg/c.py": "# only a comment\n"})
    (repo / "pkg" / "a.py").write_text('"""A."""\n\nx = 1\ny = 2\nz = 3\n')  # not committed

    assert count_lines.main(["--against", "HEAD~1", str(repo / "pkg")]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"     3      1      5      3 {repo / 'pkg' / 'a.py'}",
        f"     2      2      -      - {repo / 'pkg' / 'b.py'}",
        f"     -      -      1      0 {repo / 'pkg' / 'c.py'}",
        "     5      3      6      3 total",
    ]

    assert count_lines.main(["--against", "HEAD", str(repo / "pkg" / "c.py")]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"     1      0      1      0 {repo / 'pkg' / 'c.py'}",
        "     1      0      1      0 total",
    ]


def test_without_a_revision_prints_the_working_tree(count_lines, tmp_path, capsys):
    (tmp_path / "m.py").write_text("a = 1\n\nb = 2\n")
    assert count_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"     3      2 {tmp_path / 'm.py'}",
        "     3      2 total",
    ]


def test_an_unknown_revision_is_a_usage_error(count_lines, tmp_path, capsys):
    repo = tmp_path / "repo"
    repo.mkdir()
    _git(repo, "init", "-q")
    _commit(repo, {"m.py": "a = 1\n"})
    with pytest.raises(SystemExit) as exc:
        count_lines.main(["--against", "no-such-rev", str(repo)])
    assert exc.value.code == 2
    assert "error: --against no-such-rev: " in capsys.readouterr().err
