"""Every public name in the package has a caller outside the tests.

A function, class or method that only tests reach is either dead or a test
oracle; oracles live in tests/reference.py. A name passes when src/ or
perfbench/ refers to it in code: as a name, an attribute, an imported name,
or a string constant that is exactly the name (as the tracer's patch lists
name what they wrap). Words in comments and docstrings do not count, and
neither does the definition itself, nor an attribute read off a module
from outside the package (``np.linalg.norm`` is no caller of a ``norm``).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "offline_simon"

# Names kept without a caller, each for a stated reason.
ALLOWED = {
    "classical_em_attack": "the classical D*T = 2^n baseline the tradeoff curve is to be set against",
    "structured_predict": "the exact per-branch prediction the exact p_bad work extends",
    "load_permutation": "reads the permutation files `gen permutation` writes",
    "load_function_table": "reads the table files `gen function-table` writes",
    "instance_from_json": "reads the instance descriptors `gen <kind>` writes",
}


def public_definitions():
    """(module path, dotted name, line) of every public top-level function
    and class, and of every public method of those classes."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            yield path, node.name, node.lineno
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        yield path, f"{node.name}.{sub.name}", sub.lineno


def _docstrings(tree: ast.AST) -> set[int]:
    """ids of the docstring constants of a module and of its classes and
    functions."""
    ids = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                ids.add(id(first.value))
    return ids


def _foreign_imports(tree: ast.AST) -> set[str]:
    """The names a module binds by importing from outside the package."""
    foreign = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            foreign.update((alias.asname or alias.name).split(".")[0] for alias in node.names
                           if alias.name.split(".")[0] != PACKAGE.name)
        elif (isinstance(node, ast.ImportFrom) and node.level == 0
              and node.module.split(".")[0] != PACKAGE.name):
            foreign.update(alias.asname or alias.name for alias in node.names)
    return foreign


def _root(node: ast.Attribute) -> ast.AST:
    """The expression an attribute chain such as np.linalg.norm starts from."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return node


def code_references(tree: ast.AST) -> set[str]:
    """The identifiers a module's code refers to: names, attributes not
    read off a module from outside the package, imported names and their
    aliases, and identifier-shaped string constants that are not
    docstrings."""
    docstrings = _docstrings(tree)
    foreign = _foreign_imports(tree)
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            root = _root(node)
            if not (isinstance(root, ast.Name) and root.id in foreign):
                refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.update(part for name in (node.name, node.asname) if name
                        for part in name.split("."))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier() and id(node) not in docstrings):
            refs.add(node.value)
    return refs


def uncalled_names() -> dict[str, str]:
    """Dotted name -> "module:line" of each public definition that no code
    in src/ or perfbench/ refers to."""
    refs = set()
    for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        refs |= code_references(ast.parse(path.read_text()))
    return {name: f"{path.name}:{lineno}" for path, name, lineno in public_definitions()
            if name.rsplit(".", 1)[-1] not in refs}


def test_every_public_name_has_a_caller_outside_the_tests():
    uncalled = uncalled_names()
    extra = sorted(f"{where} {name}" for name, where in uncalled.items() if name not in ALLOWED)
    assert not extra, "only the tests reach: " + ", ".join(extra)


def test_every_allowed_name_is_defined_and_still_uncalled():
    # a name that gains a caller leaves the allowlist
    assert set(ALLOWED) <= set(uncalled_names())


def test_comments_and_docstrings_are_not_callers():
    tree = ast.parse('"""make_it in a docstring"""\n'
                     '# make_it in a comment\n'
                     'def f():\n'
                     '    """make_it"""\n'
                     '    return g.attr, "tracer_name", "not an identifier"\n')
    refs = code_references(tree)
    assert {"g", "attr", "tracer_name"} <= refs
    assert "make_it" not in refs and "f" not in refs


def test_attributes_of_foreign_modules_are_not_callers():
    tree = ast.parse('import numpy as np\n'
                     'from math import sqrt as root\n'
                     'from . import qsim\n'
                     'from offline_simon import search\n'
                     'np.linalg.norm(v), root.real\n'
                     'qsim.apply_h, search.screen.cache, state.norm(), np.asarray(v).copy()\n')
    refs = code_references(tree)
    assert {"apply_h", "screen", "cache", "norm", "copy", "np", "qsim", "search"} <= refs
    assert not {"linalg", "real"} & refs
    refs = code_references(ast.parse("import numpy as np\nnp.linalg.norm(v)\n"))
    assert "norm" not in refs and "linalg" not in refs
