"""tools/linetrace.py lists the code lines that a traced call did not run."""

import importlib.util
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "linetrace.py"

FIXTURE = '''"""Module docstring."""


def sign(x):
    """Function docstring, no code."""
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


def never():
    return None
'''


def _load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_are_the_lines_with_instructions(tmp_path):
    tool = _load(TOOL, "linetrace_tool")
    (tmp_path / "toy.py").write_text(FIXTURE)
    # the module docstring is an assignment; a function's docstring is not
    assert tool.code_lines(tmp_path / "toy.py") == {1, 4, 6, 7, 8, 9, 10, 13, 14}


def test_traced_call_leaves_the_untaken_branches_not_run(tmp_path):
    tool = _load(TOOL, "linetrace_tool")
    (tmp_path / "toy.py").write_text(FIXTURE)
    (tmp_path / "other.py").write_text("x = 1\n")
    before = sys.gettrace()

    def call():
        return _load(tmp_path / "toy.py", "linetrace_toy").sign(5)

    result, ran = tool.traced(tmp_path, call)
    assert result == 1 and sys.gettrace() is before
    missed, total = tool.not_run(tmp_path, ran)
    assert missed == [
        "other.py:1: x = 1",
        "toy.py:8: if x < 0:",
        "toy.py:9: return -1",
        "toy.py:10: return 0",
        "toy.py:14: return None",
    ]
    assert total == 10
