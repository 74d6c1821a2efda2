"""Every line of src/nilco that holds code is run by the tier-1 suite.

Records LINE events before anything imports nilco, runs the tier-1 suite
in this interpreter through `pytest.main`, then compiles each
src/nilco/*.py and prints every line that holds code and that no test ran,
as `path:line: source`.  Exits nonzero on any such line, or with pytest's
code when the suite fails.  Python 3.12 and later record through
`sys.monitoring`; 3.10 and 3.11 through `sys.settrace`, with a line tracer
on src/nilco frames only, which slows the suite down a few times.  From
the repository root:

    PYTHONPATH=src python tests/line_reach.py

Further arguments go to pytest.  Code that a test runs in a child
interpreter is not seen, so a line reached only there is printed.
"""

import sys
import threading
from contextlib import contextmanager
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "nilco"


def code_lines(code):
    """Line numbers of the instructions of `code` and of every code object
    nested in it."""
    lines = {line for _, _, line in code.co_lines() if line}  # not None, nor a module's line 0
    for const in code.co_consts:
        if isinstance(const, type(code)):
            lines |= code_lines(const)
    return lines


@contextmanager
def monitored(reached):
    """Record into `reached` through `sys.monitoring` (3.12+)."""
    mon = sys.monitoring
    tool = mon.COVERAGE_ID

    def on_line(code, line):
        reached.setdefault(code.co_filename, set()).add(line)
        return mon.DISABLE  # one event per location is enough

    mon.use_tool_id(tool, "line_reach")
    mon.register_callback(tool, mon.events.LINE, on_line)
    mon.set_events(tool, mon.events.LINE)
    try:
        yield
    finally:
        mon.set_events(tool, mon.events.NO_EVENTS)
        mon.register_callback(tool, mon.events.LINE, None)
        mon.free_tool_id(tool)


@contextmanager
def traced(reached):
    """Record into `reached` through `sys.settrace` (3.10, 3.11): frames of
    other files get no line tracer."""
    in_src = {}  # file name as compiled -> whether it lies in src/nilco

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in in_src:
            in_src[name] = Path(name).resolve().parent == SRC
        if not in_src[name]:
            return None
        lines = reached.setdefault(name, set())

        def on_line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return on_line

        return on_line

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        yield
    finally:
        sys.settrace(None)
        threading.settrace(None)


def main(args):
    reached = {}  # file name as compiled -> line numbers run
    with (monitored if hasattr(sys, "monitoring") else traced)(reached):
        status = pytest.main(["-q", "--continue-on-collection-errors", *args])

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
