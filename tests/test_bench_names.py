"""Every nilco name the benchmark reaches still exists: the functions and
methods `bench/tracer.py` wraps (its TARGETS) and the names the cases of
`bench/calibrate.py` import.  The files under bench/ are only read."""

import ast
import importlib
import runpy
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_tracer_target_can_be_wrapped():
    tracer = runpy.run_path(str(BENCH / "tracer.py"))["Tracer"]()
    try:
        tracer.install()  # raises on a target that no longer exists
    finally:
        tracer.uninstall()


def test_every_calibration_import_exists():
    calibrate = runpy.run_path(str(BENCH / "calibrate.py"))
    sources = [calibrate["PRELUDE"], *(body for _, _, body in calibrate["CASES"].values())]
    names = [
        (node.module, alias.name)
        for source in sources
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "nilco"
        for alias in node.names
    ]
    assert names
    for module, name in names:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"
