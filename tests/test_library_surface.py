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


def public_functions(body) -> set[str]:
    return {node.name for node in body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_")}


def public_definitions(tree: ast.Module) -> tuple[set[str], set[str]]:
    """Public functions defined at module level, and public methods of the
    module-level classes."""
    classes = [node.body for node in tree.body if isinstance(node, ast.ClassDef)]
    return public_functions(tree.body), set().union(*map(public_functions, classes))


def referenced_names(paths) -> tuple[set[str], set[str]]:
    """Every name the files read: as a bare name, an attribute, an import or
    the last part of a dotted string such as perfbench's "keyrate.key_rate";
    and apart, the names they read as an attribute (`x.name`) or as the last
    part of a dotted string, the only ways to reach a method."""
    names, attributes = set(), set()
    for path in paths:
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and DOTTED.fullmatch(node.value):
                attributes.add(node.value.rpartition(".")[2])
    return names | attributes, attributes


def python_files(*dirs: str) -> list[Path]:
    return sorted(p for d in dirs for p in (REPO / d).rglob("*.py"))


def test_no_public_name_is_referenced_only_by_tests():
    """A method counts as used only where a file outside tests/ reads it as an
    attribute: a parameter or variable of the same name does not use it."""
    functions, methods = set(), set()
    for path in python_files("src/cvfade"):
        module_functions, class_methods = public_definitions(parse(path))
        functions |= module_functions
        methods |= class_methods
    used, used_as_attribute = referenced_names(python_files("src", "scripts", "perfbench"))
    test_only = ((functions - used) | (methods - used_as_attribute)) & referenced_names(python_files("tests"))[0]
    test_only -= ALLOWED
    assert not test_only, f"public names referenced only under tests/: {sorted(test_only)}"
