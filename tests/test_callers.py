"""Every function or method that src/nilco defines is named somewhere else in
src/nilco, read with `ast` as test_imports.py reads imports: a function
that only tests reach belongs in the tests.  An import does not name a
function, so a re-export from `__init__` does not count.  Dunder methods,
which Python calls itself, and the public entry points below are exempt."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "nilco"

# README's lattice API, the oracle's matrix check, the console script and
# the library's INFRA builder (`decide_infra(infra_action(infra, phi, psi))`;
# the parser builds the same action itself)
PUBLIC = {"identity", "multiply", "inverse", "power", "apply_hom", "cokernel_oracle",
          "entrypoint", "infra_action"}


def uncalled(trees):
    """(module, function) of each function or method defined in `trees` (a
    module name -> ast mapping) that no Name or Attribute node names,
    except in its own definition."""
    defined = []
    named = {}
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.append((module, node))
            elif isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                named.setdefault(name, []).append(node)
    out = []
    for module, func in defined:
        name = func.name
        if name in PUBLIC or (name.startswith("__") and name.endswith("__")):
            continue
        inside = set(map(id, ast.walk(func)))
        if all(id(node) in inside for node in named.get(name, ())):  # a recursive call is no caller
            out.append((module, name))
    return sorted(out)


def test_every_src_function_has_a_src_caller():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    assert uncalled(trees) == []


def test_the_scan_sees_functions_without_a_caller():
    source = (
        "class A:\n"
        "    def __eq__(self, other): return self.used() == other\n"
        "    def used(self): return 1\n"
        "    def orphan(self): return self.orphan\n"
        "def helper(): return A().used()\n"
        "def identity(): pass\n"
    )
    assert uncalled({"m.py": ast.parse(source)}) == [("m.py", "helper"), ("m.py", "orphan")]
