"""No public function, method or dataclass field of the package is there only
for the tests, and no private module-level name is there for nobody."""
import ast
import re
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
# referenced only by tests on purpose: release-gate criterion 6 checks
# transmittance, which reads EllipticSample's fields through
# dataclasses.astuple, and docs/scenario_schema.json is generated from
# schema_document, which test_scenario keeps in sync with it
ALLOWED = {"transmittance", "schema_document",
           *(f"EllipticSample.{name}" for name in ("x0", "y0", "theta1", "theta2", "phi"))}
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


def referenced_names(trees) -> tuple[set[str], set[str]]:
    """Every name the syntax trees read: as a bare name, an attribute, an
    import or the last part of a dotted string such as perfbench's
    "keyrate.key_rate"; and apart, the names they read as an attribute
    (`x.name`) or as the last part of a dotted string, the only ways to reach
    a method."""
    names, attributes = set(), set()
    for tree in trees:
        for node in ast.walk(tree):
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
    used, used_as_attribute = referenced_names(map(parse, python_files("src", "scripts", "perfbench")))
    in_tests = referenced_names(map(parse, python_files("tests")))[0]
    test_only = ((functions - used) | (methods - used_as_attribute)) & in_tests
    test_only -= ALLOWED
    assert not test_only, f"public names referenced only under tests/: {sorted(test_only)}"


def is_dataclass(node: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "dataclass"
               for d in node.decorator_list)


def public_fields(tree: ast.Module) -> set[str]:
    """`Class.field` for each public field of the module-level dataclasses."""
    return {f"{node.name}.{statement.target.id}"
            for node in tree.body if isinstance(node, ast.ClassDef) and is_dataclass(node)
            for statement in node.body
            if isinstance(statement, ast.AnnAssign) and not statement.target.id.startswith("_")}


def attribute_reads(tree: ast.Module) -> set[tuple[str, str | None]]:
    """(name, owner) for each name the tree reads as an attribute or as the
    last part of a dotted string; owner is the class whose __post_init__ the
    read is in, else None."""
    owners = {id(node): cls.name
              for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
              for method in cls.body if isinstance(method, ast.FunctionDef) and method.name == "__post_init__"
              for node in ast.walk(method)}
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.add((node.attr, owners.get(id(node))))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and DOTTED.fullmatch(node.value):
            reads.add((node.value.rpartition(".")[2], owners.get(id(node))))
    return reads


def test_every_dataclass_field_is_read_outside_tests():
    """Each public field of a dataclass of the package is read as an attribute
    by a file outside tests/, other than in the class's own __post_init__,
    whose checks run on every instance whether or not anyone reads it."""
    fields = set().union(*(public_fields(parse(path)) for path in python_files("src/cvfade")))
    reads = set().union(*map(attribute_reads, map(parse, python_files("src", "scripts", "perfbench"))))

    def is_read(field):
        cls, _, name = field.partition(".")
        return any(read == name and owner != cls for read, owner in reads)

    unread = {field for field in fields if not is_read(field)} - ALLOWED
    assert not unread, f"dataclass fields nothing outside tests/ reads: {sorted(unread)}"


def private_definitions(statement) -> set[str]:
    """Private names a module-level statement defines (dunder names aside)."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = {statement.name}
    elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
        targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
        names = {node.id for target in targets for node in ast.walk(target) if isinstance(node, ast.Name)}
    else:
        names = set()
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def test_no_private_name_is_unread():
    """Each private function, class or constant at module level of the package
    is read by some statement of src/ other than its own definition."""
    defined, reads = [], []  # (file, statement index, names)
    for path in python_files("src"):
        for i, statement in enumerate(parse(path).body):
            defined += [(path, i, name) for name in private_definitions(statement)]
            reads.append((path, i, referenced_names([statement])[0]))
    unread = sorted(f"{path.relative_to(REPO)}: {name}" for path, i, name in defined
                    if not any(name in names for other, j, names in reads if (other, j) != (path, i)))
    assert not unread, f"private names nothing under src/ reads: {unread}"

