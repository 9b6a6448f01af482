"""Every name the benchmark uses still exists: each (module, dotted path)
in ``TARGETS`` of ``bench/tracing.py`` resolves by ``getattr`` on
``alexinv.<module>``, and so does each name that a file of ``bench/``
imports with ``from alexinv.<module> import ...``; and every call the
benchmark makes to such a name binds to its signature.  The files are
read, not imported."""

import ast
import importlib
import inspect
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


def _bench_imports():
    """(file name, module, name, syntax tree) of each name a file of bench/
    imports from an alexinv module."""
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("alexinv."):
                for alias in node.names:
                    yield path.name, node.module, alias.name, tree


def test_every_benchmark_import_resolves():
    imported = [(source, module, name) for source, module, name, _ in _bench_imports()]
    assert imported
    for source, module, name in imported:
        assert hasattr(importlib.import_module(module), name), f"{source}: {module}.{name}"


def test_every_benchmark_call_binds():
    """Each call in bench/ to an imported alexinv name, or to a method of
    an imported alexinv class (``PlaneCurveGerm.from_strings``), binds to
    that callable's signature with placeholder arguments: a constructor
    whose fields were reordered, renamed or dropped fails here rather
    than in the benchmark.  A call with *args or **kwargs is not checked."""
    checked = set()
    for source, module, name, tree in _bench_imports():
        obj = getattr(importlib.import_module(module), name)
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            if isinstance(func, ast.Name) and func.id == name:
                callee, label = obj, name
            elif (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                  and func.value.id == name and inspect.isclass(obj)):
                callee, label = getattr(obj, func.attr), f"{name}.{func.attr}"
            else:
                continue
            if any(isinstance(a, ast.Starred) for a in call.args) or any(
                k.arg is None for k in call.keywords
            ):
                continue
            try:
                inspect.signature(callee).bind(*call.args, **{k.arg: k for k in call.keywords})
            except TypeError as exc:
                raise AssertionError(f"{source}:{call.lineno}: {label}(...): {exc}") from None
            checked.add(label)
    # the constructors of the benchmark's records are among the calls checked
    assert {"BraidWord", "MonodromyData", "GroupPresentation", "ProjectiveCurveSpec",
            "SingularPoint", "PlaneCurveGerm.from_strings"} <= checked, checked
