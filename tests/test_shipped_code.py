"""The package ships only what the product calls.

Every top-level definition of ``src/icgram/*.py``, and every method and
property of its classes (dunders aside), must be referenced from the
product: ``src/``, ``bench/`` or ``demos/``.  Code that only the tests call
belongs in ``tests/``, as an oracle or a helper.  A reference is an
identifier (a name, an attribute or an imported name), or a string equal to
the name in a tuple, list or set display, as ``bench/`` calls the ``is_*``
predicates by the names in its ``IS_FNS``; a dict key or a subscript that
spells a name calls nothing.  A definition's own body does not count, so a
recursive function is not its own caller.

No function of the package calls itself: Python's stack holds about a
thousand frames, so a walk that recurses once per state or per search node
fails on inputs well inside the caps.  Each walk keeps its own stack.

Every field of ``SearchCaps`` is read by some other module of the package,
so each cap bounds a search.  The package also parses under the grammar of
the oldest Python that ``pyproject.toml`` admits, whichever interpreter
runs the tests.
"""

import ast
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CALLERS = ("src", "bench", "demos")

# public names kept although only the tests call them
EXCEPTIONS = {
    # the paper's finite-plus-suffix split of a definite selection, which
    # acceptance criterion 5 exercises
    ("contextual", "split_definite_selection"),
    # the readers of the texts that ``convert --to rlgrammar`` and
    # ``convert --to dfa`` write
    ("rlgrammar", "parse_grammar"),
    ("automata", "parse_dfa_table"),
    # the engine tests' independent check of a selected infix on the pair's
    # DFA as given; moving it would take ``automata.accepts`` along
    ("contextual", "SelectionPair.selects"),
}


def _defined(statement: ast.stmt) -> list[str]:
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
        return [statement.name]
    if isinstance(statement, (ast.Assign, ast.AnnAssign)):
        targets = (statement.targets if isinstance(statement, ast.Assign)
                   else [statement.target])
        return [n.id for t in targets for n in ast.walk(t)
                if isinstance(n, ast.Name)]
    return []


def _methods(cls: ast.ClassDef, callers: set[str]) -> list[tuple]:
    """``(Class.method, method, its callers)`` for each method or property of
    ``cls``: ``callers`` of the class, and what its other statements
    reference."""
    refs = [_referenced(s) for s in cls.body]
    return [(f"{cls.name}.{s.name}", s.name,
             callers.union(*refs[:k], *refs[k + 1:]))
            for k, s in enumerate(cls.body)
            if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef))]


def _referenced(tree: ast.AST) -> set[str]:
    out = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name.rpartition(".")[2])
        elif isinstance(n, (ast.Tuple, ast.List, ast.Set)):
            out.update(e.value for e in n.elts if isinstance(e, ast.Constant)
                       and isinstance(e.value, str))
    return out


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def test_every_definition_in_the_package_has_a_caller_outside_the_tests():
    # per file, the names each top-level statement references
    refs = {path: [_referenced(s) for s in ast.parse(path.read_text()).body]
            for top in CALLERS for path in sorted((ROOT / top).rglob("*.py"))}
    unused = []
    for path in sorted((ROOT / "src" / "icgram").glob("*.py")):
        body = ast.parse(path.read_text()).body
        elsewhere = set().union(*(names for other, r in refs.items()
                                  if other != path for names in r))
        for i, statement in enumerate(body):
            callers = elsewhere.union(*(r for j, r in enumerate(refs[path])
                                        if j != i))
            defined = [(name, name, callers) for name in _defined(statement)]
            if isinstance(statement, ast.ClassDef):
                defined += _methods(statement, callers)
            unused += [f"{path.stem}.{shown}" for shown, name, c in defined
                       if not _dunder(name) and name not in c
                       and (path.stem, shown) not in EXCEPTIONS]
    assert not unused, f"referenced only from tests/, or nowhere: {unused}"


def test_a_string_counts_only_where_a_name_is_called_by_it():
    # bench/ calls the is_* predicates by the names in a tuple; a JSON key,
    # a dict value or a subscript that spells a name calls nothing
    refs = _referenced(ast.parse(
        'FNS = ("is_finite",) + tuple(["is_definite"]) + tuple({"is_suffix_closed"})\n'
        'record = {"min_states": 1, "kind": "measure"}\n'
        'print(record["dfa_to_grammar"])\n'))
    assert {"is_finite", "is_definite", "is_suffix_closed"} <= refs
    assert not refs & {"min_states", "measure", "dfa_to_grammar"}


def test_a_method_counts_only_where_another_statement_calls_it():
    (cls,) = ast.parse(
        "class C:\n"
        "    def used(self):\n        return self.used()\n"
        "    def caller(self):\n        return self.used()\n"
        "    @property\n    def shown(self):\n        return self.shown\n").body
    callers = {shown: c for shown, _, c in _methods(cls, set())}
    assert "used" in callers["C.used"]
    assert "caller" not in callers["C.caller"]
    assert "shown" not in callers["C.shown"]


def _self_callers(tree: ast.AST) -> list[str]:
    """The functions in ``tree`` that call themselves: a function by its own
    name, a method as ``self.<its name>``."""
    methods = {id(s) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
               for s in c.body}
    out = []
    for f in ast.walk(tree):
        if not isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        own = f"self.{f.name}" if id(f) in methods else f.name
        if any(isinstance(n, ast.Call) and ast.unparse(n.func) == own
               for n in ast.walk(f)):
            out.append(f.name)
    return out


def test_no_function_in_the_package_calls_itself():
    recursive = [f"{path.stem}.{name}"
                 for path in sorted((ROOT / "src" / "icgram").glob("*.py"))
                 for name in _self_callers(ast.parse(path.read_text()))]
    assert not recursive, f"recursive, so bounded by the call stack: {recursive}"


def test_a_self_call_is_a_call_by_the_own_name_or_through_self():
    tree = ast.parse(
        "def walk(n):\n    return walk(n - 1)\n"
        "def outer():\n    def rec(k):\n        rec(k)\n    rec(0)\n"
        "class C:\n"
        "    def again(self):\n        return self.again()\n"
        "    def complement(self):\n        return automata.complement(self)\n"
        "    def other(self):\n        return other.other()\n")
    assert _self_callers(tree) == ["walk", "rec", "again"]


def test_every_search_cap_is_read_outside_its_record():
    # a field of SearchCaps that only families.py reads bounds no search
    package = ROOT / "src" / "icgram"
    (caps,) = [s for s in ast.parse((package / "families.py").read_text()).body
               if isinstance(s, ast.ClassDef) and s.name == "SearchCaps"]
    fields = [s.target.id for s in caps.body if isinstance(s, ast.AnnAssign)]
    read = {n.attr for path in package.glob("*.py") if path.name != "families.py"
            for n in ast.walk(ast.parse(path.read_text()))
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    assert fields and not set(fields) - read, sorted(set(fields) - read)


def test_the_package_parses_at_its_python_floor():
    spec = tomllib.loads((ROOT / "pyproject.toml").read_text())
    floor = spec["project"]["requires-python"].removeprefix(">=")
    version = tuple(int(part) for part in floor.split("."))
    for path in sorted((ROOT / "src" / "icgram").glob("*.py")):
        ast.parse(path.read_text(), str(path), feature_version=version)
