"""Every public name in the package has a caller outside the tests.

A function, class or method that only tests reach is either dead or a test
oracle; oracles live in tests/reference.py. A name passes when code that is
itself live refers to it: as a name, an attribute read (a write such as
``plan.lower = 2`` calls nothing), an imported name, or a string constant
that is exactly the name (as the tracer's patch lists name what they
wrap). Live code is module-level code, the bodies of private
definitions, all of perfbench/, the bodies of the ALLOWED names, and the
bodies of public names that pass, found by iterating to a fixed point, so
a chain of dead definitions fails whole rather than one link at a time.
Each attack target's ``entry`` counts as a reference from live code: the
CLI looks its attack function up by that name, built at run time.
Words in comments and docstrings do not count, and neither does the
definition itself, nor an attribute read off a module from outside the
package (``np.linalg.norm`` is no caller of a ``norm``), nor a name that
an enclosing function binds, as a parameter or an assignment target
(``def f(scale): return scale`` is no caller of a ``scale`` method).

A reference names no owner, so it is a caller of a public definition only
when nothing else in the package defines the same bare name: no other
definition, private ones included, no class attribute or field, and no
``self.<name>`` assignment (``report.as_dict()`` cannot say whose
``as_dict`` it reads, nor ``budget.lower`` that it reads a field and not
a ``Plan.lower`` method). A bare name that is defined more than once is listed in
AMBIGUOUS, with the public definitions its references reach and why.
"""

import ast
from collections import Counter
from pathlib import Path

from offline_simon import attacks

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "offline_simon"

# Names kept without a caller, each for a stated reason.
ALLOWED = {
    "classical_em_attack": "the classical D*T = 2^n baseline the tradeoff curve is to be set against",
    "load_permutation": "reads the permutation files `gen permutation` writes",
    "load_function_table": "reads the table files `gen function-table` writes",
    "instance_from_json": "reads the instance descriptors `gen <kind>` writes",
}

# Public names that only the string constants of perfbench's tracer keep
# alive: its patch lists name them, and nothing else that is live refers to
# them. They go when the tracer stops naming them (ROADMAP item 17).
TRACER_ONLY = {
    "QState.copy", "QState.scale", "apply_h", "apply_indexed_oracle", "apply_oracle_xor",
    "apply_reflection_about_zero", "apply_x", "init_zero", "marginal", "distance",
    "collision_probabilities",
}

# Bare name -> {dotted name: the reference that reaches it} for every bare
# name of a public definition that the package defines more than once; a
# public definition left out of its name's entry is reached by no reference.
AMBIGUOUS = {
    "as_dict": {
        "AttackReport.as_dict": "cli._attack_trial serializes each attack trial's report",
        "Report.as_dict": "AttackReport.as_dict extends it; perfbench's exact-circuit workload reads it",
    },
    "grover_iterations": {
        "grover_iterations": "search._run_offline, check_capacity and verify-bounds "
                             "count the iterations",
    },
    "rank": {"Gf2Basis.rank": "gf2.solve_period reads basis.rank"},
}


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _is_def(node) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))


def definition_code(tree: ast.Module):
    """(dotted name, line, nodes) of every public top-level function and
    class, and of every public method of those classes, with the nodes of
    its code; then (None, 0, nodes) for the rest: module-level code and
    private definitions. A class's code is its header and its body but its
    public methods."""
    rest = []
    for node in tree.body:
        if not _is_def(node) or node.name.startswith("_"):
            rest.append(node)
            continue
        if not isinstance(node, ast.ClassDef):
            yield node.name, node.lineno, [node]
            continue
        own = [*node.decorator_list, *node.bases, *node.keywords]
        for sub in node.body:
            if not _is_def(sub):
                own.append(sub)
            elif sub.name.startswith("_"):
                rest.append(sub)
            else:
                yield f"{node.name}.{sub.name}", sub.lineno, [sub]
        yield node.name, node.lineno, own
    yield None, 0, rest


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


def code_references(tree: ast.AST, strings: bool = True) -> set[str]:
    """The identifiers a module's code refers to: names, attributes read
    (not written) and not off a module from outside the package, imported
    names and their aliases, and, if `strings`, identifier-shaped string
    constants that are not docstrings."""
    return _references([tree], _docstrings(tree), _foreign_imports(tree), strings)


def _bound_names(func) -> set[str]:
    """The names a function or lambda binds itself: its parameters and the
    targets it assigns, outside any function nested in it."""
    args = func.args
    names = {arg.arg for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                 args.vararg, args.kwarg) if arg}
    todo = list(func.body) if isinstance(func.body, list) else [func.body]
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif not isinstance(node, _SCOPES):
            todo.extend(ast.iter_child_nodes(node))
    return names


def _walk_unbound(node, bound: frozenset = frozenset()):
    """``ast.walk`` in depth-first order, leaving out each name that an
    enclosing function binds: a parameter or local is no caller of a
    definition of the same name."""
    if isinstance(node, _SCOPES):
        bound = bound | _bound_names(node)
    if isinstance(node, ast.Name) and node.id in bound:
        return
    yield node
    for child in ast.iter_child_nodes(node):
        yield from _walk_unbound(child, bound)


def _references(nodes, docstrings: set[int], foreign: set[str],
                strings: bool = True) -> set[str]:
    """``code_references`` of the given nodes of a module whose docstrings
    and foreign imports are given."""
    refs = set()
    for node in (sub for top in nodes for sub in _walk_unbound(top)):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            root = _root(node)
            if not (isinstance(root, ast.Name) and root.id in foreign):
                refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.update(part for name in (node.name, node.asname) if name
                        for part in name.split("."))
        elif (strings and isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier() and id(node) not in docstrings):
            refs.add(node.value)
    return refs


def _bare(name: str) -> str:
    return name.rsplit(".", 1)[-1]


def _defined_names(tree: ast.AST):
    """Every name a module defines that an attribute read can reach: its
    functions and classes, public or not, at any depth, the names assigned
    in class bodies (fields and class attributes), and ``self.<name>``
    assignments."""
    for node in ast.walk(tree):
        if _is_def(node):
            yield node.name
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    targets = ([sub.target] if isinstance(sub, ast.AnnAssign)
                               else sub.targets if isinstance(sub, ast.Assign) else [])
                    yield from (t.id for t in targets if isinstance(t, ast.Name))
        elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
              and isinstance(node.value, ast.Name) and node.value.id == "self"):
            yield node.attr


def ambiguous_names(package: dict[str, str]) -> dict[str, set[str]]:
    """Bare name -> dotted names of the public definitions that carry it,
    for each bare name of a public definition that the package's sources
    define more than once."""
    trees = [ast.parse(text) for text in package.values()]
    public = [name for tree in trees for name, _, _ in definition_code(tree) if name]
    counts = Counter(name for tree in trees for name in _defined_names(tree))
    return {_bare(name): {n for n in public if _bare(n) == _bare(name)}
            for name in public if counts[_bare(name)] > 1}


def uncalled_names(package: dict[str, str], outside: list[str],
                   allowed=ALLOWED, ambiguous=AMBIGUOUS, entries=(),
                   outside_strings: bool = True) -> dict[str, str]:
    """Dotted name -> "module:line" of each public definition in the
    package's sources (file name -> text) that no live code refers to;
    `outside` (perfbench's sources, whose string constants count only if
    `outside_strings`) and the names in `entries` are live throughout. A
    reference to a bare name that the package defines more than once
    reaches only the definitions listed under it in `ambiguous`."""
    live = set(entries).union(*(code_references(ast.parse(text), outside_strings)
                                for text in outside))
    public = {}
    for file, text in package.items():
        tree = ast.parse(text)
        docstrings, foreign = _docstrings(tree), _foreign_imports(tree)
        for name, lineno, nodes in definition_code(tree):
            refs = _references(nodes, docstrings, foreign)
            if name is None:
                live |= refs
            else:
                public[name] = (f"{file}:{lineno}", refs)
    shared = ambiguous_names(package)
    for name in set(allowed) & set(public):
        live |= public[name][1]
    reached, grown = set(), True
    while grown:
        grown = False
        for name, (_, refs) in public.items():
            bare = _bare(name)
            if (name not in reached and bare in live
                    and (bare not in shared or name in ambiguous.get(bare, ()))):
                reached.add(name)
                live |= refs
                grown = True
    return {name: where for name, (where, _) in public.items() if name not in reached}


def repo_uncalled_names(tracer_strings: bool = True) -> dict[str, str]:
    """``uncalled_names`` over src/ and perfbench/ (its string constants
    only if `tracer_strings`), with every attack target's entry live."""
    package = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    outside = [path.read_text() for path in sorted((ROOT / "perfbench").glob("*.py"))]
    entries = {target.entry for target in attacks.TARGETS.values()}
    return uncalled_names(package, outside, entries=entries, outside_strings=tracer_strings)


def test_every_public_name_has_a_caller_outside_the_tests():
    uncalled = repo_uncalled_names()
    extra = sorted(f"{where} {name}" for name, where in uncalled.items() if name not in ALLOWED)
    assert not extra, "only the tests reach: " + ", ".join(extra)


def test_every_allowed_name_is_defined_and_still_uncalled():
    # a name that gains a caller leaves the allowlist
    assert set(ALLOWED) <= set(repo_uncalled_names())


def test_only_the_listed_names_live_on_the_tracer_strings_alone():
    """Without perfbench's string constants, exactly the TRACER_ONLY names
    lose their last caller; the attack entry points keep theirs."""
    assert set(repo_uncalled_names(tracer_strings=False)) - set(repo_uncalled_names()) \
        == TRACER_ONLY


def test_an_entry_name_is_a_caller():
    # run_it is looked up by a name built at run time, and calls helper
    source = 'def run_it():\n    return helper()\n\ndef helper():\n    return 1\n'
    assert set(uncalled_names({"m.py": source}, [], {})) == {"run_it", "helper"}
    assert uncalled_names({"m.py": source}, [], {}, entries={"run_it"}) == {}
    # a string constant outside the package counts only when strings do
    outside = ['PATCH = "run_it"\n']
    assert uncalled_names({"m.py": source}, outside, {}) == {}
    assert set(uncalled_names({"m.py": source}, outside, {},
                              outside_strings=False)) == {"run_it", "helper"}


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


def test_a_local_of_a_public_name_is_no_caller():
    # f's parameter and g's local share Q.scale's bare name; h reads the
    # global name, lam's parameter hides it in the lambda's body only
    source = ('class Q:\n    def scale(self):\n        return 1\n\n'
              'def f(scale):\n    return scale\n\n'
              'def g():\n    scale = 2\n    return [scale for _ in range(scale)]\n\n'
              'lam = lambda scale: scale\n'
              'VALUE = f, g, lam, Q\n')
    assert "scale" not in code_references(ast.parse(source))
    assert set(uncalled_names({"m.py": source}, [], {})) == {"Q.scale"}
    for reader in ('def h():\n    return scale\n', 'def h(n=scale):\n    return n\n'):
        assert uncalled_names({"m.py": source + reader + 'USE = h\n'}, [], {}) == {}


def test_a_dead_chain_is_reported_whole():
    # head calls link, link calls tail; only dead code calls head
    dead = ('def head():\n    return link()\n\n'
            'def link():\n    return tail()\n\n'
            'def tail():\n    return 1\n')
    assert set(uncalled_names({"dead.py": dead}, [], {})) == {"head", "link", "tail"}
    live = dead + 'VALUE = head()\n'
    assert uncalled_names({"dead.py": live}, [], {}) == {}
    assert uncalled_names({"dead.py": dead}, ["head"], {}) == {}
    assert set(uncalled_names({"dead.py": dead}, [], {"head": "kept"})) == {"head"}


def test_private_definitions_and_class_code_are_live_as_stated():
    source = ('class Kept:\n'
              '    size: Width = 1\n'
              '    def __init__(self):\n        self.run = helper\n'
              '    def method(self):\n        return other()\n\n'
              'class Width:\n    pass\n\n'
              'def helper():\n    return Kept()\n\n'
              'def other():\n    return 2\n\n'
              'def _private():\n    return orphan_target()\n\n'
              'def orphan_target():\n    return 3\n')
    # __init__ is private, so helper is reached, then Kept and its class
    # code (Width); method and other have no live caller
    assert set(uncalled_names({"m.py": source}, [], {})) == {"Kept.method", "other"}


def test_every_shared_bare_name_is_listed():
    """AMBIGUOUS names exactly the bare names of public definitions that
    the package defines more than once, and lists only definitions that
    carry them."""
    package = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    shared = ambiguous_names(package)
    assert set(AMBIGUOUS) == set(shared)
    for bare, reached in AMBIGUOUS.items():
        assert set(reached) <= shared[bare]


def test_a_shared_method_name_reaches_only_the_listed_definitions():
    # two classes carry `run`; a read of `run` cannot say whose it is
    source = ('class Fast:\n    def run(self):\n        return 1\n\n'
              'class Slow:\n    def run(self):\n        return 2\n\n'
              '    def stop(self):\n        return 3\n\n'
              'VALUE = Fast().run(), Slow().stop()\n')
    package = {"m.py": source}
    assert ambiguous_names(package) == {"run": {"Fast.run", "Slow.run"}}
    assert set(uncalled_names(package, [], {}, {})) == {"Fast.run", "Slow.run"}
    listed = {"run": {"Fast.run": "VALUE calls it"}}
    assert set(uncalled_names(package, [], {}, listed)) == {"Slow.run"}
    # a name that one definition carries still passes on its bare read
    assert "Slow.stop" not in uncalled_names(package, [], {}, {})


def test_a_field_read_is_no_caller_of_a_method_of_its_name():
    # Budget.lower is a field and Plan.lower a dead property; so is the
    # function `rate`, whose name an instance attribute also takes
    source = ('class Budget:\n    lower: float = 0.0\n\n'
              'class Plan:\n    @property\n    def lower(self):\n        return 1\n\n'
              'class Meter:\n    def __init__(self):\n        self.rate = 2\n\n'
              'def rate():\n    return 3\n\n'
              'VALUE = Budget().lower, Meter().rate, Plan\n')
    package = {"m.py": source}
    assert ambiguous_names(package) == {"lower": {"Plan.lower"}, "rate": {"rate"}}
    assert set(uncalled_names(package, [], {}, {})) == {"Plan.lower", "rate"}


def test_an_attribute_write_is_no_caller():
    # Plan.lower is a dead property; a write of budget.lower, inside live
    # code or out, reads nothing
    source = ('class Plan:\n    @property\n    def lower(self):\n        return 1\n\n'
              'def tune(budget):\n    budget.lower = 2\n    del budget.lower\n\n'
              'VALUE = tune, Plan\n')
    package = {"m.py": source}
    assert "lower" not in code_references(ast.parse(source))
    assert set(uncalled_names(package, [], {}, {})) == {"Plan.lower"}
    assert set(uncalled_names({"m.py": source + 'READ = Plan().lower\n'}, [], {}, {})) == set()
