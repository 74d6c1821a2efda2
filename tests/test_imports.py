"""Every name a module of nilco imports is used in that module, read with
`ast` as test_knobs.py reads environment variables.  The package's
`__init__` imports only to re-export, so it is not scanned."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "nilco"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(tree):
    """Names bound by an import statement that no Name node reads; an
    attribute chain such as `os.environ` reads its base name."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_the_scan_sees_unused_imports():
    source = (
        "import os, sys\n"
        "import importlib.resources\n"
        "from .errors import NilcoError, ShapeError as SE\n"
        "def f():\n"
        "    from json import dumps\n"
        "    return os.environ, importlib.resources, SE\n"
    )
    assert unused_imports(ast.parse(source)) == ["NilcoError", "dumps", "sys"]
