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

Inside the package, automata are walked on state positions and the
integer letter rows of ``Dfa.rows``: no attribute named ``delta`` or
``step`` is read outside ``class Dfa`` and ``dfa_to_table``, the text
form, so no search steps through the ``(state, symbol)``-keyed dict.
Nor does a search translate state names: no ``.states.index(...)`` is
called anywhere, and an attribute named ``initial`` or ``accepting`` is
read only in the places that take or print names, ``_NAME_READERS``:
``class Dfa``, which computes ``start`` and ``final`` from them; the
NFA's own code, ``class Nfa`` and ``nfa_to_dfa``; the text form,
``dfa_to_table`` and ``_parse_dfa_lines``; and ``accepts``, which runs a
word to a state name.

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


def _table_reads(tree: ast.AST) -> list[str]:
    """Each read of an attribute named ``delta`` or ``step`` in ``tree``,
    as ``line: expression``, outside ``class Dfa`` and ``dfa_to_table``;
    an alias (``delta1 = d1.delta``) and a passed method (``d.step``) count
    like a subscript or a call."""
    allowed = {id(n) for s in ast.walk(tree)
               if isinstance(s, (ast.ClassDef, ast.FunctionDef))
               and s.name in ("Dfa", "dfa_to_table") for n in ast.walk(s)}
    return [f"{n.lineno}: {ast.unparse(n)}" for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and n.attr in ("delta", "step")
            and isinstance(n.ctx, ast.Load) and id(n) not in allowed]


def test_no_search_in_the_package_reads_the_transition_dict():
    reads = [f"{path.name}:{read}"
             for path in sorted((ROOT / "src" / "icgram").glob("*.py"))
             for read in _table_reads(ast.parse(path.read_text()))]
    assert not reads, f"walk Dfa.rows on state positions instead: {reads}"


def test_a_transition_dict_read_counts_wherever_it_is_outside_dfa():
    tree = ast.parse(
        "class Dfa:\n"
        "    def run(self, q, a):\n        return self.delta[(q, a)]\n"
        "def dfa_to_table(d):\n    return d.delta\n"
        "def alias(d1):\n    delta1 = d1.delta\n    return delta1\n"
        "def passed(d):\n    return bfs(d.initial, d.step)\n"
        "def looked_up(d, q, a):\n    return d.delta[(q, a)] + d.step(q, a)\n"
        "def names_only(delta, step):\n    d.delta = delta\n    return step\n")
    assert _table_reads(tree) == ["7: d1.delta", "10: d.step",
                                  "12: d.delta", "12: d.step"]


_NAME_READERS = ("Dfa", "Nfa", "nfa_to_dfa", "dfa_to_table", "_parse_dfa_lines",
                 "accepts")


def _name_reads(tree: ast.AST) -> list[str]:
    """Each ``.states.index(...)`` call in ``tree``, and each read of an
    attribute named ``initial`` or ``accepting`` outside the definitions
    named in ``_NAME_READERS``, as ``line: expression``, in line order."""
    allowed = {id(n) for s in ast.walk(tree)
               if isinstance(s, (ast.ClassDef, ast.FunctionDef))
               and s.name in _NAME_READERS for n in ast.walk(s)}
    found = [n for n in ast.walk(tree)
             if isinstance(n, ast.Call)
             and ast.unparse(n.func).endswith(".states.index")
             or isinstance(n, ast.Attribute) and n.attr in ("initial", "accepting")
             and isinstance(n.ctx, ast.Load) and id(n) not in allowed]
    return [f"{n.lineno}: {ast.unparse(n)}"
            for n in sorted(found, key=lambda n: (n.lineno, n.col_offset))]


def test_no_search_in_the_package_converts_state_names():
    reads = [f"{path.name}:{read}"
             for path in sorted((ROOT / "src" / "icgram").glob("*.py"))
             for read in _name_reads(ast.parse(path.read_text()))]
    assert not reads, f"read Dfa.start and Dfa.final instead: {reads}"


def test_a_state_name_read_counts_wherever_it_is_outside_the_text_boundary():
    tree = ast.parse(
        "class Dfa:\n"
        "    def start(self):\n        return self.states.index(self.initial)\n"
        "def dfa_to_table(d):\n    return d.initial, d.accepting\n"
        "def accepts(d, w):\n    return d.run(w) in d.accepting\n"
        "def position(d):\n    return d.states.index(d.initial)\n"
        "def final(d, q):\n    return q in d.accepting\n"
        "def names_only(initial, accepting):\n"
        "    d.initial = initial\n    return accepting\n")
    assert _name_reads(tree) == [
        "3: self.states.index(self.initial)", "9: d.states.index(d.initial)",
        "9: d.initial", "11: d.accepting"]


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
