"""Line trace of the tier-1 suite: the lines of `src/binsum` that no test ran.

    python3 tools/linetrace.py [PYTEST ARGS...]

Runs pytest in this process (by default `-q -p no:cacheprovider
--continue-on-collection-errors` on the `tests` directory of the checkout
it sits in, with `src` first on sys.path) under a `sys.settrace` tracer, so
it needs no coverage package.  Then it prints each line of `src/binsum`
that holds code and did not run, as

    module.py:line: source text

and a last line with the count of such lines, the count of lines that hold
code, and pytest's exit status.  It exits 0 whatever pytest returns: a test
may fail under the tracer alone (a memory or time bound).  Code run in other
processes (the worker pool, `subprocess` tests) counts as not run.

A line holds code when the compiled module maps an instruction to it
(`co_lines`), as a function's `def` line and a decorator line do; a
docstring of a function or class does not.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent


def code_lines(path: Path) -> set[int]:
    """The lines of the module at `path` that some instruction maps to."""
    lines: set[int] = set()
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        # line 0 (or None) marks an instruction that belongs to no line
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def traced(directory: Path, call: Callable[[], object]) -> tuple[object, dict[str, set[int]]]:
    """call()'s result and the lines that ran, by file, of the files under
    `directory`, in this thread and the threads it starts."""
    prefix = str(directory.resolve())
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        ran.setdefault(name, set()).add(frame.f_code.co_firstlineno)
        return local

    previous = sys.gettrace(), threading.gettrace()
    sys.settrace(tracer)
    threading.settrace(tracer)
    try:
        result = call()
    finally:
        sys.settrace(previous[0])
        threading.settrace(previous[1])
    return result, ran


def not_run(directory: Path, ran: dict[str, set[int]]) -> tuple[list[str], int]:
    """`module.py:line: text` of each code line of the `*.py` files of
    `directory` that is not in `ran`, and the count of code lines."""
    out, total = [], 0
    for path in sorted(directory.glob("*.py")):
        lines = code_lines(path)
        total += len(lines)
        text = path.read_text(encoding="utf-8").splitlines()
        seen = ran.get(str(path.resolve()), set())
        out.extend(f"{path.name}:{n}: {text[n - 1].strip()}" for n in sorted(lines - seen))
    return out, total


def main(argv: list[str] | None = None) -> int:
    import pytest

    args = sys.argv[1:] if argv is None else argv
    args = args or ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors", str(ROOT / "tests")]
    sys.path.insert(0, str(ROOT / "src"))
    package = ROOT / "src" / "binsum"
    status, ran = traced(package, lambda: pytest.main(args))
    missed, total = not_run(package, ran)
    print("\n".join(missed))
    print(f"{len(missed)} of {total} code lines not run; pytest exit status {int(status)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
