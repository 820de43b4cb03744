"""List the lines of the stclab package that no tier-1 test runs.

    python tests/golden/untested.py [PYTEST_ARGS...]

Runs the test suite (``tests``, or PYTEST_ARGS) in this process under a
``sys.settrace`` line tracer that follows only code in ``src/stclab``, and
prints, per module, the executable lines that no test ran: the line
numbers that ``co_lines()`` gives for the module's code objects, less
those the tracer saw.  No coverage package is needed.  Lines that only a
subprocess started by a test runs (the CLI's set-up probe, the pytest
config test) count as not run.

The script only reports: it exits 0 whatever the tests do, and writes no
cache, bytecode or Hypothesis database.  pytest does not collect it.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
PACKAGE = REPO / "src" / "stclab"


def executable_lines(path: Path) -> set:
    """Line numbers that the code objects of the module at path execute."""
    todo, lines = [compile(path.read_text(), str(path), "exec")], set()
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)     # 0: no source line
        todo.extend(c for c in code.co_consts if isinstance(c, type(code)))
    return lines


def spans(lines) -> str:
    """Sorted line numbers as comma-separated runs, such as '63, 71-72'."""
    runs = []
    for line in sorted(lines):
        if runs and runs[-1][1] == line - 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else "%d-%d" % (a, b) for a, b in runs)


class NoDatabase:
    """pytest plugin: Hypothesis keeps no example database and no deadline."""

    @staticmethod
    def pytest_configure(config):
        from hypothesis import settings

        settings.register_profile("untested", database=None, deadline=None)
        settings.load_profile("untested")


def main(argv) -> int:
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(REPO / "src"))
    import pytest
    ran, ours = {}, {}

    def follow(frame, event, _arg):
        """Global trace function: a line tracer for frames of the package only."""
        name = frame.f_code.co_filename
        if name not in ours:
            ours[name] = Path(name).resolve().is_relative_to(PACKAGE)
        if not ours[name]:
            return None
        seen = ran.setdefault(str(Path(name).resolve()), set())
        seen.add(frame.f_lineno)

        def line(frame, event, _arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return line
        return line

    threading.settrace(follow)
    sys.settrace(follow)
    try:
        pytest.main(["-q", "--tb=no", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
                    + (argv or [str(REPO / "tests")]), plugins=[NoDatabase()])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    print("\nlines of src/stclab that no test runs:")
    total = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        missed = executable_lines(path) - ran.get(str(path.resolve()), set())
        total += len(missed)
        print("  %s: %s" % (path.relative_to(REPO), spans(missed) or "none"))
    print("%d lines in all" % total)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
