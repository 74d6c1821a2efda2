"""Every line of src/nilco that holds code is run by the tier-1 suite.

Turns on `sys.monitoring` LINE events before anything imports nilco, runs
the tier-1 suite in this interpreter through `pytest.main`, then compiles
each src/nilco/*.py and prints every line that holds code and that no test
ran, as `path:line: source`.  Exits nonzero on any such line, or with
pytest's code when the suite fails.  Needs Python 3.12 or later (for
`sys.monitoring`).  From the repository root:

    PYTHONPATH=src python tests/line_reach.py

Further arguments go to pytest.  Code that a test runs in a child
interpreter is not seen, so a line reached only there is printed.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "nilco"
TOOL = sys.monitoring.COVERAGE_ID


def code_lines(code):
    """Line numbers of the instructions of `code` and of every code object
    nested in it."""
    lines = {line for _, _, line in code.co_lines() if line}  # not None, nor a module's line 0
    for const in code.co_consts:
        if isinstance(const, type(code)):
            lines |= code_lines(const)
    return lines


def main(args):
    mon = sys.monitoring
    reached = {}  # file name as compiled -> line numbers run

    def on_line(code, line):
        reached.setdefault(code.co_filename, set()).add(line)
        return mon.DISABLE  # one event per location is enough

    mon.use_tool_id(TOOL, "line_reach")
    mon.register_callback(TOOL, mon.events.LINE, on_line)
    mon.set_events(TOOL, mon.events.LINE)
    try:
        status = pytest.main(["-q", "--continue-on-collection-errors", *args])
    finally:
        mon.set_events(TOOL, mon.events.NO_EVENTS)
        mon.register_callback(TOOL, mon.events.LINE, None)
        mon.free_tool_id(TOOL)

    run = {}
    for name, lines in reached.items():
        run.setdefault(Path(name).resolve(), set()).update(lines)
    missed = 0
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        for line in sorted(code_lines(compile(source, str(path), "exec")) - run.get(path, set())):
            print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
            missed += 1
    return status or int(missed > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
