"""``words.Record`` against ``@dataclass(frozen=True)``: each record here
has a dataclass twin with the same name, fields, defaults and
``__post_init__``, and the two agree on construction errors, ``==``,
``hash``, ``repr`` and immutability."""

import random
from dataclasses import make_dataclass

import pytest

from conftest import random_regex
from icgram import automata, contextual
from icgram.automata import Dfa
from icgram.contextual import Context, ContextualGrammar, Diagnostic
from icgram.families import FamilyLabel, SearchCaps
from icgram.regex import (Concat, EmptyLang, EmptyWord, Literal, Regex, Star,
                          Union)
from icgram.rlgrammar import Rule
from icgram.subregular import Evidence
from icgram.words import Alphabet

U = Alphabet.of("a", "b")


def _twin(cls, *fields, post_init=None):
    namespace = {"__post_init__": post_init} if post_init else {}
    return make_dataclass(cls.__name__, fields, frozen=True, namespace=namespace)


TWINS = {
    Rule: _twin(Rule, "lhs", "word", ("successor", object, None)),
    SearchCaps: _twin(SearchCaps, *[(n, int, getattr(SearchCaps(), n)) for n in (
        "max_nonterminals", "max_rules", "max_rhs_len", "max_candidates",
        "monoid_cap", "frontier_cap")]),
    Evidence: _twin(Evidence, ("note", str, ""), ("words", tuple, ())),
    Context: _twin(Context, "left", "right"),
    Diagnostic: _twin(Diagnostic, "where", "message"),
    FamilyLabel: _twin(FamilyLabel, "kind", ("n", object, None),
                       post_init=FamilyLabel.__post_init__),
    ContextualGrammar: _twin(ContextualGrammar, "alphabet", "axioms", "pairs",
                             post_init=ContextualGrammar.__post_init__),
    EmptyLang: _twin(EmptyLang),
    EmptyWord: _twin(EmptyWord),
    Literal: _twin(Literal, "symbol", post_init=Literal.__post_init__),
    Concat: _twin(Concat, "parts", post_init=Concat.__post_init__),
    Union: _twin(Union, "parts", post_init=Union.__post_init__),
    Star: _twin(Star, "inner"),
}

# (record class, positional arguments, keyword arguments)
CALLS = [
    (Rule, ("S", ("a",)), {}),
    (Rule, ("S", ("a",), None), {}),
    (Rule, ("S",), {"word": ("a",), "successor": "T"}),
    (Rule, ("S", ("a", "b"), "T"), {}),
    (SearchCaps, (), {}),
    (SearchCaps, (), {"max_rhs_len": 2, "max_candidates": 50}),
    (SearchCaps, (2, 4, 3, 50), {}),
    (Evidence, (), {}),
    (Evidence, ("x",), {"words": (("a",),)}),
    (Context, (("a",), ()), {}),
    (Diagnostic, (("a",), ()), {}),  # the same values as the Context
    (FamilyLabel, ("MON",), {}),
    (FamilyLabel, ("RL_V", 2), {}),
    (FamilyLabel, ("RL_V",), {"n": 2}),
    (FamilyLabel, ("MON", 3), {}),  # raises in __post_init__
    (FamilyLabel, ("RL_V",), {}),  # raises in __post_init__
    (ContextualGrammar, (U, (("a",), ("a",), ()), ()), {}),
    (ContextualGrammar, (U, (("a",), ()), ()), {}),
    (ContextualGrammar, (U, ((), ("a",)), ()), {}),
    (EmptyLang, (), {}),
    (EmptyWord, (), {}),
    (Literal, ("a",), {}),
    (Literal, ("",), {}),  # raises in __post_init__
    (Concat, ((Literal("a"),),), {}),  # raises in __post_init__
    (Concat, ((Literal("a"), Literal("b")),), {}),
    (Union, ((Literal("a"), Literal("b")),), {}),
    (Union, ((Literal("a"),),), {}),  # raises in __post_init__
    (Star, (Literal("a"),), {}),
]


def _as_twin(value):
    """``value`` with each record in it, however deep, replaced by its twin."""
    if isinstance(value, tuple):
        return tuple(_as_twin(v) for v in value)
    if type(value) in TWINS:
        return TWINS[type(value)](*[_as_twin(getattr(value, n))
                                    for n in value._fields])
    return value


def _build(cls, args, kwargs=None):
    """The record or the type of the exception its construction raises."""
    try:
        return cls(*args, **(kwargs or {}))
    except Exception as e:
        return type(e)


def _pair(call):
    cls, args, kwargs = call
    return (_build(cls, args, kwargs),
            _build(TWINS[cls], _as_twin(args),
                   {k: _as_twin(v) for k, v in kwargs.items()}))


def _built():
    """The pairs of ``CALLS`` whose construction succeeds."""
    return [(r, t) for r, t in map(_pair, CALLS) if not isinstance(t, type)]


@pytest.mark.parametrize("call", CALLS, ids=lambda c: c[0].__name__)
def test_construction_and_repr_match_the_dataclass(call):
    record, twin = _pair(call)
    if isinstance(twin, type):
        assert record is twin
    else:
        assert repr(record) == repr(twin)


def test_a_missing_or_extra_argument_raises_type_error():
    for record, twin in _built():
        full = [getattr(record, n) for n in record._fields]
        outcomes = []
        for cls, values in ((type(record), full), (type(twin), _as_twin(full))):
            for args, kwargs in [((), {}), ((*values, "extra"), {}),
                                 (values, {"bogus": 1}),
                                 (values[:1], {record._fields[0]: 1}
                                  if values else {})]:
                built = _build(cls, args, kwargs)
                outcomes.append(built if isinstance(built, type) else "built")
        assert outcomes[:4] == outcomes[4:], record
        assert outcomes[1] is outcomes[2] is TypeError
        assert outcomes[3] is (TypeError if full else "built")


def test_eq_and_hash_match_the_dataclass():
    built = _built()
    for r1, t1 in built:
        for r2, t2 in built:
            assert (r1 == r2) == (t1 == t2), (r1, r2)
            assert (r1 != r2) == (t1 != t2), (r1, r2)
            assert r1 != t2 and not (r1 == t2)
            if r1 == r2:
                assert hash(r1) == hash(r2)
        if not isinstance(r1, Regex):  # the hash of the same tuple
            assert hash(r1) == hash(t1), r1


def test_assignment_and_deletion_raise_attribute_error():
    for pair in _built():
        for value in pair:
            for name in (*pair[0]._fields[:1], "other"):
                with pytest.raises(AttributeError):
                    setattr(value, name, "x")
                with pytest.raises(AttributeError):
                    delattr(value, name)


def test_concat_and_union_of_equal_parts_differ():
    parts = (Literal("a"), Literal("b"))
    assert Concat(parts) != Union(parts)
    assert TWINS[Concat](_as_twin(parts)) != TWINS[Union](_as_twin(parts))
    assert Concat(parts) == Concat(tuple(parts))
    assert hash(Concat(parts)) == hash(Concat(tuple(parts)))


def test_a_repeated_axiom_is_dropped_before_eq_and_hash():
    g = ContextualGrammar(U, (("a",), ("a",), ()), ())
    assert g.axioms == (("a",), ())
    assert g == ContextualGrammar(U, (("a",), ()), ())
    assert hash(g) == hash(ContextualGrammar(U, (("a",), ()), ()))
    assert g.replace(axioms=((), ())).axioms == ((),)


def test_repr_of_small_trees_is_the_dataclass_text():
    rng = random.Random(7)
    for _ in range(300):
        r = random_regex(rng, 4)
        assert repr(r) == repr(_as_twin(r))


def test_cached_properties_are_computed_once_and_stay_outside_eq(monkeypatch):
    d = automata.regex_to_dfa(Star(Literal("a")), U)
    e = Dfa(d.states, d.alphabet, dict(d.delta), d.initial, d.accepting)
    assert d.rows is d.rows and "rows" in vars(d) and "rows" not in vars(e)
    assert d == e and repr(d) == repr(e)
    with pytest.raises(TypeError):  # the delta field is a dict
        hash(d)

    built = []

    class Counting(contextual._Compiled):
        def __init__(self, g):
            built.append(g)
            super().__init__(g)

    monkeypatch.setattr(contextual, "_Compiled", Counting)
    g = ContextualGrammar(U, (("a",),), ())
    assert g._compiled is g._compiled and len(built) == 1
    assert g == ContextualGrammar(U, (("a",),), ()) and len(built) == 1
