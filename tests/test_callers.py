"""Every public name in the package has a caller outside the tests.

A function, class or method that only tests reach is either dead or a test
oracle; oracles live in tests/reference.py. A name passes when it occurs as
a whole word in src/ or perfbench/ on any line but its own definition.
"""

import ast
import re
from collections import defaultdict
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


def uncalled_names() -> dict[str, str]:
    """Dotted name -> "module:line" of each public definition whose name
    occurs nowhere in src/ or perfbench/ but on its own definition line."""
    sites = defaultdict(set)  # word -> the (file, line) pairs it occurs on
    for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        for i, line in enumerate(path.read_text().splitlines(), 1):
            for word in re.findall(r"\w+", line):
                sites[word].add((path, i))
    return {name: f"{path.name}:{lineno}" for path, name, lineno in public_definitions()
            if not sites[name.rsplit(".", 1)[-1]] - {(path, lineno)}}


def test_every_public_name_has_a_caller_outside_the_tests():
    uncalled = uncalled_names()
    extra = sorted(f"{where} {name}" for name, where in uncalled.items() if name not in ALLOWED)
    assert not extra, "only the tests reach: " + ", ".join(extra)


def test_every_allowed_name_is_defined_and_still_uncalled():
    # a name that gains a caller leaves the allowlist
    assert set(ALLOWED) <= set(uncalled_names())
