"""Every callable that the benchmark's tracer wraps still exists: each
(module, dotted path) in ``TARGETS`` of ``bench/tracing.py`` resolves by
``getattr`` on ``alexinv.<module>``.  The file is read, not imported."""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


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
