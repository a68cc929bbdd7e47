"""The benchmark harness in perfbench/ reaches into cvfade by name.

perfbench/tracer.py wraps each function in TARGETS by module attribute, and the
harness modules import cvfade names directly.  A deletion or rename that breaks
either fails here, before it breaks a traced benchmark run.
"""
import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def tracer_targets():
    tree = ast.parse((PERFBENCH / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


def cvfade_imports():
    """(file, module, name) for every `from cvfade... import name` in perfbench/."""
    found = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "cvfade":
                found += [(path.name, node.module, alias.name) for alias in node.names]
    return found


def test_tracer_targets_resolve():
    targets = tracer_targets()
    assert "keyrate.key_rate" in targets
    for target in targets:
        module_name, attr = target.split(".")
        module = importlib.import_module(f"cvfade.{module_name}")
        assert callable(getattr(module, attr, None)), f"TARGETS entry {target} does not resolve"


def test_harness_imports_resolve():
    found = cvfade_imports()
    assert ("checks.py", "cvfade.keyrate", "key_rate_equivalent_fixed") in found
    for path, module_name, name in found:
        module = importlib.import_module(module_name)
        assert hasattr(module, name), f"perfbench/{path}: from {module_name} import {name}"
