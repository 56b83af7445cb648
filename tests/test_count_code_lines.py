"""scripts/count_code_lines.py counts code lines the way CHANGES.md cites them."""

from __future__ import annotations

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "count_code_lines.py"
_spec = importlib.util.spec_from_file_location("count_code_lines", SCRIPT)
count_code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(count_code_lines)

FIXTURE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment leaves the line a code line


# a comment-only line
def f(x):
    """Function docstring."""
    s = """a string
that is not a docstring"""
    return x


class C:
    "Class docstring."
    y = 1
'''
# import, def, the two lines of s, return, class, y
FIXTURE_CODE_LINES = 7


def test_counts_code_lines_only(tmp_path, capsys):
    assert count_code_lines.count_code_lines(FIXTURE) == FIXTURE_CODE_LINES
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    assert count_code_lines.main([str(tmp_path / "pkg"), str(tmp_path / "b.py")]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"7 {tmp_path / 'pkg' / 'a.py'}",
        f"1 {tmp_path / 'b.py'}",
        "8 total",
    ]
