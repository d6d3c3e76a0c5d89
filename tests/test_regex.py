import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import regex_oracle
from conftest import REGEX_CHARS, random_regex
from icgram.automata import (enumerate_regular, minimize, nfa_to_dfa,
                             regex_to_dfa, regex_to_nfa)
from icgram.errors import TextFormatError
from icgram.regex import (Concat, EmptyLang, EmptyWord, Literal, Star, Union,
                          alt, format_regex, is_union_free_syntax,
                          parse_regex, seq, word_regex)
from icgram.words import Alphabet
from regex_oracle import enumerate_regex

U = Alphabet.of("a", "b", "c")


def test_parse_basics():
    assert parse_regex("a", U) == Literal("a")
    assert parse_regex("()", U) == EmptyWord()
    assert parse_regex("∅", U) == EmptyLang()
    assert parse_regex("ab", U) == Concat((Literal("a"), Literal("b")))
    assert parse_regex("a|b", U) == Union((Literal("a"), Literal("b")))
    assert parse_regex("a*", U) == Star(Literal("a"))


def test_parse_precedence():
    # star > concat > union
    assert parse_regex("ab|c*", U) == Union(
        (Concat((Literal("a"), Literal("b"))), Star(Literal("c"))))
    assert parse_regex("(a|b)c", U) == Concat(
        (Union((Literal("a"), Literal("b"))), Literal("c")))
    assert parse_regex("a(bc)*", U) == Concat(
        (Literal("a"), Star(Concat((Literal("b"), Literal("c"))))))


def test_parse_error_positions():
    with pytest.raises(TextFormatError) as e:
        parse_regex("a|", U)
    assert e.value.column == 3
    with pytest.raises(TextFormatError) as e:
        parse_regex("(ab", U)
    assert e.value.column == 4
    with pytest.raises(TextFormatError) as e:
        parse_regex("a)b", U)
    assert e.value.column == 2
    with pytest.raises(TextFormatError):
        parse_regex("z", U)  # foreign symbol
    with pytest.raises(TextFormatError):
        parse_regex("", U)


def test_format_minimal_parentheses():
    cases = ["a", "ab", "a|b", "a*", "(ab)*", "(a|b)*", "a(b|c)", "ab|c",
             "a|bc*", "(a|b)(b|c)", "a**"]
    for text in cases:
        r = parse_regex(text, U)
        assert parse_regex(format_regex(r), U) == r


def test_enumerate_regex_oracle():
    r = parse_regex("a*b", U)
    assert enumerate_regex(r, 3) == {("b",), ("a", "b"), ("a", "a", "b")}
    assert enumerate_regex(parse_regex("∅", U), 5) == set()
    assert enumerate_regex(parse_regex("()", U), 5) == {()}
    assert enumerate_regex(parse_regex("(a|b)*", U), 2) == {
        (), ("a",), ("b",), ("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")}


def test_seq_alt_flatten_and_units():
    assert seq([]) == EmptyWord()
    assert seq([Literal("a")]) == Literal("a")
    assert seq([Literal("a"), seq([Literal("b"), Literal("c")])]) == \
        Concat((Literal("a"), Literal("b"), Literal("c")))
    assert alt([]) == EmptyLang()
    assert alt([Literal("a"), alt([Literal("b"), Literal("c")])]) == \
        Union((Literal("a"), Literal("b"), Literal("c")))


def test_word_regex():
    assert word_regex(()) == EmptyWord()
    assert word_regex(("a",)) == Literal("a")
    assert enumerate_regex(word_regex(("a", "b")), 4) == {("a", "b")}


def test_union_free_syntax_flag():
    assert is_union_free_syntax(parse_regex("a*b(c)*", U))
    assert not is_union_free_syntax(parse_regex("a|b", U))
    assert not is_union_free_syntax(parse_regex("(a|b)*", U))


# --- property: format/parse round-trip on random expressions --------------

def _regex_strategy():
    leaf = st.sampled_from([Literal("a"), Literal("b"), Literal("c"),
                            EmptyWord(), EmptyLang()])

    def extend(children):
        return st.one_of(
            st.tuples(children, children).map(lambda p: seq(list(p))),
            st.tuples(children, children).map(lambda p: alt(list(p))),
            children.map(Star),
        )

    return st.recursive(leaf, extend, max_leaves=12)


@given(_regex_strategy())
def test_format_parse_round_trip(r):
    assert parse_regex(format_regex(r), U) == r


@given(_regex_strategy())
def test_compiled_regex_has_the_words_of_the_tree(r):
    assert enumerate_regular(regex_to_dfa(r, U), 4) == enumerate_regex(r, 4)


@settings(max_examples=500, deadline=None)
@given(_regex_strategy())
def test_one_walk_matches_the_three_pass_oracle(r):
    """∅ taken as a leaf builds the oracle's NFA on trees without ∅; with ∅
    inside a concatenation it may keep dead positions, which minimization
    removes."""
    nfa, oracle = regex_to_nfa(r, U), regex_oracle.regex_to_nfa(r, U)
    if "∅" not in format_regex(r):
        assert nfa == oracle
    assert minimize(nfa_to_dfa(nfa)) == minimize(nfa_to_dfa(oracle))


def _parse_or_error(parse, text, alphabet):
    try:
        return parse(text, alphabet)
    except TextFormatError as e:
        return e.bare_message, e.line, e.column


def test_one_loop_parser_matches_the_recursive_oracle():
    """Seeded strings over every token, a foreign letter and both blanks
    get the same tree or the same error, line and column from both
    parsers; seeded trees, and the trees parsed, get the same union-free
    answer from both walks and the same text from both printers."""
    rng = random.Random(26)
    ab = Alphabet.of("a", "b")
    for _ in range(20_000):
        text = "".join(rng.choice(REGEX_CHARS)
                       for _ in range(rng.randint(0, 12)))
        parsed = _parse_or_error(parse_regex, text, ab)
        assert parsed == \
            _parse_or_error(regex_oracle.parse_regex, text, ab), text
        if not isinstance(parsed, tuple):
            assert format_regex(parsed) == \
                regex_oracle.format_regex(parsed), text
    for _ in range(5_000):
        r = random_regex(rng, 6)
        assert is_union_free_syntax(r) == \
            regex_oracle.is_union_free_syntax(r), format_regex(r)
        assert format_regex(r) == regex_oracle.format_regex(r), r


@pytest.mark.parametrize("text", [
    "a" + "*" * 10_000,
    "(" * 10_000 + "a" + ")" * 10_000,
    "(a(b|" * 5_000 + "c" + "))" * 5_000,
], ids=["stars", "parentheses", "concat-union"])
def test_eq_hash_and_repr_of_a_deep_tree(text):
    """None of the three recurses, and each takes time linear in the tree."""
    r, same = parse_regex(text, U), parse_regex(text, U)
    start = time.perf_counter()
    assert r == same and hash(r) == hash(same)
    assert r != Star(r) and Concat((r, r)) != Union((r, r))
    assert repr(r).count("(") == repr(r).count(")")
    assert time.perf_counter() - start < 1
