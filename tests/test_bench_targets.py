"""Every name the benchmark uses still exists: each (module, dotted path)
in ``TARGETS`` of ``bench/tracing.py`` resolves by ``getattr`` on
``alexinv.<module>``, and so does each name that a file of ``bench/``
imports with ``from alexinv.<module> import ...``.  The files are read,
not imported."""

import ast
import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACING = BENCH / "tracing.py"


def _targets():
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracing.py defines no TARGETS")


def test_every_traced_target_resolves():
    targets = _targets()
    assert targets
    for module, path in targets:
        obj = importlib.import_module(f"alexinv.{module}")
        for name in path.split("."):
            assert hasattr(obj, name), f"alexinv.{module}.{path}"
            obj = getattr(obj, name)
        assert callable(obj), f"alexinv.{module}.{path}"


def test_every_benchmark_import_resolves():
    imported = [
        (path.name, node.module, alias.name)
        for path in sorted(BENCH.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("alexinv.")
        for alias in node.names
    ]
    assert imported
    for source, module, name in imported:
        assert hasattr(importlib.import_module(module), name), f"{source}: {module}.{name}"
