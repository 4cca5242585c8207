"""tools/codelines.py counts code lines: no blanks, comments or docstrings."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "codelines.py"

FIXTURE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment leaves the line code

# a comment line


class Box:
    """Class docstring."""

    side = 2

    def area(self):
        """Function docstring,

        with a blank line inside."""
        text = """a string that is
        no docstring"""
        return self.side**2, text


def solo(): return "not a docstring"
'''


def _load_tool():
    spec = importlib.util.spec_from_file_location("codelines_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skip_blanks_comments_and_docstrings():
    tool = _load_tool()
    # import, class, side, def, text (two lines), return, def solo
    assert tool.code_lines(FIXTURE) == 8
    assert tool.code_lines("") == 0
    assert tool.code_lines('"""Only a docstring."""\n# and a comment\n') == 0


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    tool = _load_tool()
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("x = 1\n\ny = 2\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert tool.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "     8 a.py\n     2 b.py\n    10 total\n"
