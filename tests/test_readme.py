"""The README's Library example runs, and prints what its comments state."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"

# a comment that states a value: a number or a quoted string, then prose
STATED = re.compile(r'#\s*(-?\d+|"[^"]*")')


def library_block():
    text = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return text.split("```python\n", 1)[1].split("```", 1)[0]


def test_library_example_states_what_it_computes():
    block = library_block()
    lines = block.splitlines()
    namespace = {}
    checked = []
    for stmt in ast.parse(block).body:
        code = compile(ast.Module(body=[stmt], type_ignores=[]), "README.md", "exec")
        stated = STATED.search(lines[stmt.end_lineno - 1])
        if not isinstance(stmt, ast.Expr) or stated is None:
            exec(code, namespace)
            continue
        value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        assert value == ast.literal_eval(stated.group(1)), lines[stmt.end_lineno - 1]
        checked.append(value)
    assert checked == [16, 16, "no", 16, "unknown", 2, 4]
