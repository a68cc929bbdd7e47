"""No public function or method of the package is there only for the tests."""
import ast
import re
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
# referenced only by tests on purpose: release-gate criterion 6 checks
# transmittance, and docs/scenario_schema.json is generated from
# schema_document, which test_scenario keeps in sync with it
ALLOWED = {"transmittance", "schema_document"}
DOTTED = re.compile(r"\w+(\.\w+)+")


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def public_definitions(tree: ast.Module) -> set[str]:
    """Public functions defined at module level or in a module-level class."""
    bodies = [tree.body] + [node.body for node in tree.body if isinstance(node, ast.ClassDef)]
    return {node.name for body in bodies for node in body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_")}


def referenced_names(paths) -> set[str]:
    """Every name the files read: as a bare name, an attribute, an import or
    the last part of a dotted string such as perfbench's "keyrate.key_rate"."""
    names = set()
    for path in paths:
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and DOTTED.fullmatch(node.value):
                names.add(node.value.rpartition(".")[2])
    return names


def python_files(*dirs: str) -> list[Path]:
    return sorted(p for d in dirs for p in (REPO / d).rglob("*.py"))


def test_no_public_name_is_referenced_only_by_tests():
    defined = set().union(*(public_definitions(parse(p)) for p in python_files("src/cvfade")))
    used = referenced_names(python_files("src", "scripts", "perfbench"))
    test_only = (defined & referenced_names(python_files("tests"))) - used - ALLOWED
    assert not test_only, f"public names referenced only under tests/: {sorted(test_only)}"
