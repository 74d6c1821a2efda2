"""Every setting nilco reads, in one list: the options of each `nilco`
subcommand and the environment variables of the package.  A new knob has to
be added here by hand."""

import argparse
import ast
from pathlib import Path

from nilco.cli import build_parser

SRC = Path(__file__).resolve().parent.parent / "src" / "nilco"


def parser_options(parser):
    """Long options of a parser and of every subparser below it."""
    options = set()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                options |= parser_options(sub)
        elif not isinstance(action, argparse._HelpAction):
            options.update(s for s in action.option_strings if s.startswith("--"))
    return options


def _is_os(node, name):
    return (
        isinstance(node, ast.Attribute) and node.attr == name
        and isinstance(node.value, ast.Name) and node.value.id == "os"
    )


def _key(node):
    return node.value if isinstance(node, ast.Constant) else f"<{ast.unparse(node)}>"


def environment_reads(tree):
    """Keys of os.getenv(...), os.environ.get(...) and os.environ[...] calls;
    any other use of os.environ or os.getenv shows as `<...>`."""
    keys, seen = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and node.args and (
            _is_os(node.func, "getenv")
            or (isinstance(node.func, ast.Attribute) and node.func.attr == "get"
                and _is_os(node.func.value, "environ"))
        ):
            keys.add(_key(node.args[0]))
            seen.add(id(node.func if _is_os(node.func, "getenv") else node.func.value))
        elif isinstance(node, ast.Subscript) and _is_os(node.value, "environ"):
            keys.add(_key(node.slice))
            seen.add(id(node.value))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            keys.update(f"<from os import {a.name}>" for a in node.names)
    for node in ast.walk(tree):
        if (_is_os(node, "environ") or _is_os(node, "getenv")) and id(node) not in seen:
            keys.add(f"<{ast.unparse(node)}>")
    return keys


def test_command_line_options():
    assert parser_options(build_parser()) == {"--output", "--modulus", "--check", "--dir"}


def test_environment_variables():
    keys = set()
    for path in sorted(SRC.glob("*.py")):
        keys |= environment_reads(ast.parse(path.read_text(encoding="utf-8")))
    assert keys == {"NILCO_MAX_ORDER"}


def test_the_scan_sees_every_form_of_read():
    source = (
        "import os\n"
        "os.getenv('A'); os.environ.get('B', 1); os.environ['C']; os.environ.get(name)\n"
        "env = os.environ\n"
    )
    assert environment_reads(ast.parse(source)) == {"A", "B", "C", "<name>", "<os.environ>"}
