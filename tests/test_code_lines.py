"""tools/code_lines.py on a synthetic file."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""A module docstring
over two lines."""

import math  # a trailing comment counts its line once

# a comment line


def area(r):
    """A function docstring."""
    label = """a string
    that is not a docstring"""
    return (
        math.pi
        * r ** 2
    ), label
'''


def test_docstrings_comments_and_blank_lines_are_not_counted(tmp_path, capsys):
    # import, def, the two lines of `label` and the four of the return
    assert code_lines.code_lines(SOURCE) == 8
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SOURCE)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n")
    code_lines.main([str(tmp_path / "pkg")])
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["8", "1", "9"]
    assert lines[0].endswith("a.py") and lines[1].endswith("b.py") and lines[2] == "9 total"
