"""List every function-body line of src/regionrank that the tier-1 tests do not run.

Run from the repository root (standard library plus pytest):

    python tools/reached_lines.py [extra pytest arguments]

It runs the tier-1 tests in this process with a line tracer on every thread
(sys.settrace and threading.settrace), then, for every function, method,
lambda and comprehension of src/regionrank, prints each line that holds
code and never ran, as path:line followed by the function's name. A line
runs when the tracer sees a "line" event for it. The line of a def itself is
left out: it runs when the module loads, not when the function is called.
The tracer does not follow child processes, so a line counts only if a test
runs it in this process. Exits 0 when the tests pass and every line ran, 1
otherwise.
"""

from __future__ import annotations

import inspect
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "regionrank"


def function_lines(path: Path) -> dict[tuple[str, int], set[int]]:
    """(qualified name, first line) -> the lines with code of each function defined in path."""
    found = {}
    pending = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while pending:
        code = pending.pop()
        pending.extend(const for const in code.co_consts if inspect.iscode(const))
        if code.co_flags & inspect.CO_OPTIMIZED:  # a function's body, not a module's or a class's
            lines = {line for _, _, line in code.co_lines() if line is not None}
            found[(getattr(code, "co_qualname", code.co_name), code.co_firstlineno)] = lines - {code.co_firstlineno}
    return found


def trace_tests(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest under the line tracer; (its exit code, lines run per resolved source path)."""
    ran: dict[str, set[int]] = {}
    by_filename: dict[str, set[int] | None] = {}
    package = str(PACKAGE) + os.sep

    def lines_of(filename: str):
        if filename not in by_filename:
            resolved = os.path.realpath(filename)
            by_filename[filename] = ran.setdefault(resolved, set()) if resolved.startswith(package) else None
        return by_filename[filename]

    def on_call(frame, event, arg):
        lines = lines_of(frame.f_code.co_filename)
        if lines is None:
            return None

        def on_line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return on_line

        return on_line

    import pytest

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        status = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), ran


def main(argv: list[str]) -> int:
    os.chdir(ROOT)
    # the traced sources, in this process and in the tests' child processes
    sys.path.insert(0, str(ROOT / "src"))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    status, ran = trace_tests(["-q", "-p", "no:cacheprovider", *argv])
    unreached = 0
    for path in sorted(PACKAGE.glob("*.py")):
        run = ran.get(str(path), set())
        for (name, _), lines in sorted(function_lines(path).items(), key=lambda item: item[0][1]):
            for line in sorted(lines - run):
                unreached += 1
                print(f"{path.relative_to(ROOT)}:{line}: {name}")
    print(f"{unreached} unreached line(s), pytest exit {status}")
    return 0 if status == 0 and unreached == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
