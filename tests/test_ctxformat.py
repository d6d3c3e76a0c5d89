import pytest

from icgram import ctxformat, rlgrammar
from icgram.contextual import (Context, ContextualGrammar, SelectionPair,
                               enumerate_ic, validate)
from icgram.ctxformat import format_contextual, parse_contextual
from icgram.errors import TextFormatError
from icgram.regex import Literal, parse_regex
from icgram.automata import regex_to_dfa
from icgram.witnesses import WITNESS_IDS, build_witness
from icgram.words import Alphabet


def _cases():
    for wid in WITNESS_IDS:
        case = build_witness(wid)
        yield case.label, case.grammar
        for name, g in case.variants:
            yield f"{case.label}/{name}", g


@pytest.mark.parametrize("label,grammar", list(_cases()))
def test_round_trip_all_witness_grammars(label, grammar):
    text = format_contextual(grammar)
    back = parse_contextual(text)
    assert format_contextual(back) == text
    assert back.alphabet == grammar.alphabet
    assert back.axioms == grammar.axioms
    assert len(back.pairs) == len(grammar.pairs)
    for p, q in zip(back.pairs, grammar.pairs):
        assert p.contexts == q.contexts
        assert p.declared_alphabet == q.declared_alphabet
        # source form survives: regex stays regex, grammar stays grammar
        assert (p.source_regex is None) == (q.source_regex is None)
        assert (p.source_grammar is None) == (q.source_grammar is None)
    assert enumerate_ic(back, 6) == enumerate_ic(grammar, 6)


def test_dfa_selection_round_trip_is_stable_after_first_parse():
    u = Alphabet.of("a", "b")
    d = regex_to_dfa(parse_regex("(a|b)*b", u), u)
    pair = SelectionPair.from_dfa(d, (Context(("a",), ()),))
    g = ContextualGrammar(u, (("b",),), (pair,))
    text1 = format_contextual(g)
    g2 = parse_contextual(text1)
    assert g2.pairs[0].source_regex is None
    assert g2.pairs[0].source_grammar is None
    text2 = format_contextual(g2)
    assert format_contextual(parse_contextual(text2)) == text2
    assert enumerate_ic(g2, 6) == enumerate_ic(g, 6)


def test_comments_blanks_and_empty_word_markers():
    text = """
    # a grammar using @ for the empty word
    alphabet: a b        # trailing comment
    axiom: @
    axiom: ab

    pair:
      alphabet: a b
      selection regex: ()|a
      context: (@, b)    # insert b to the right
    """
    g = parse_contextual(text)
    assert g.axioms == ((), ("a", "b"))
    (pair,) = g.pairs
    assert pair.contexts == (Context((), ("b",)),)
    assert pair.selects(()) and pair.selects(("a",)) and not pair.selects(("b",))
    assert validate(g) == []


def test_parse_error_positions():
    with pytest.raises(TextFormatError):
        parse_contextual("")
    with pytest.raises(TextFormatError) as e1:
        parse_contextual("axiom: a\nalphabet: a")
    assert e1.value.line == 1
    with pytest.raises(TextFormatError) as e2:
        parse_contextual("alphabet: a\naxiom: a\nnonsense: x")
    assert e2.value.line == 3
    bad_ctx = ("alphabet: a\naxiom: a\npair:\n  alphabet: a\n"
               "  selection regex: a\n  context: (a b)")
    with pytest.raises(TextFormatError) as e3:
        parse_contextual(bad_ctx)
    assert e3.value.line == 6 and "comma" in str(e3.value)
    bad_regex = ("alphabet: a\naxiom: a\npair:\n  alphabet: a\n"
                 "  selection regex: a|\n  context: (a, @)")
    with pytest.raises(TextFormatError) as e4:
        parse_contextual(bad_regex)
    assert e4.value.line == 5
    # the column in the file's line, past the indentation and the keyword
    assert e4.value.column == 22
    # a grammar or DFA selection with no lines names its own line
    for kind in ("grammar", "dfa"):
        empty = ("alphabet: a\naxiom: a\npair:\n  alphabet: a\n"
                 f"  selection {kind}:\n  context: (a, @)")
        with pytest.raises(TextFormatError) as e5:
            parse_contextual(empty)
        assert e5.value.line == 5 and "next line" in str(e5.value)


# the three places that read a word, each with the module whose
# ``word_from_text`` it calls, as a template with the word left open
_WORD_SITES = {
    "axiom": (ctxformat, "alphabet: a\naxiom: {}\n"),
    "context": (ctxformat, "alphabet: a\npair:\n  alphabet: a\n"
                           "  selection regex: a\n  context: ({}, @)\n"),
    "grammar-rule": (rlgrammar, "alphabet: a\npair:\n  alphabet: a\n"
                                "  selection grammar:\n    nonterminals: S\n"
                                "    terminals: a\n    start: S\n"
                                "    S -> {} S\n    S -> @\n  context: (a, @)\n"),
}


@pytest.mark.parametrize("module,template", _WORD_SITES.values(),
                         ids=_WORD_SITES.keys())
def test_only_alphabet_mismatches_become_format_errors(monkeypatch, module,
                                                       template):
    """A foreign symbol in a word is a format error; any other exception
    from the word reader is a bug and passes through unchanged."""
    parse_contextual(template.format("a"))
    with pytest.raises(TextFormatError, match="not in alphabet"):
        parse_contextual(template.format("z"))

    def broken(text, alphabet):
        raise RuntimeError("bug in the word reader")

    monkeypatch.setattr(module, "word_from_text", broken)
    with pytest.raises(RuntimeError, match="bug in the word reader"):
        parse_contextual(template.format("a"))


def test_regex_selection_over_multichar_symbols_has_no_text_form():
    u = Alphabet.of("up", "dn")
    pair = SelectionPair.from_regex(u, Literal("up"), (Context(("up",), ()),))
    g = ContextualGrammar(u, (("dn",),), (pair,))
    with pytest.raises(TextFormatError):
        format_contextual(g)


def test_grammar_selection_round_trip_from_text():
    text = (
        "alphabet: a b\n"
        "axiom: b\n"
        "pair:\n"
        "  alphabet: a\n"
        "  selection grammar:\n"
        "    nonterminals: S\n"
        "    terminals: a\n"
        "    start: S\n"
        "    S -> aa S\n"
        "    S -> @\n"
        "  context: (a, a)\n")
    g = parse_contextual(text)
    (pair,) = g.pairs
    assert pair.source_grammar is not None
    assert pair.selects(()) and pair.selects(("a", "a"))
    assert not pair.selects(("a",))
    assert format_contextual(parse_contextual(format_contextual(g))) \
        == format_contextual(g)


# pair 1's selection is over a narrower alphabet than its 'alphabet:'
# line, pair 2's over a wider one
_MISMATCHED = (
    "alphabet: a b\n"
    "axiom: a\n"
    "pair:\n"
    "  alphabet: a b\n"
    "  selection grammar:\n"
    "    nonterminals: S\n"
    "    terminals: a\n"
    "    start: S\n"
    "    S -> a S\n"
    "    S -> @\n"
    "  context: (b, @)\n"
    "pair:\n"
    "  alphabet: a\n"
    "  selection dfa:\n"
    "    states: 0\n"
    "    alphabet: a b\n"
    "    initial: 0\n"
    "    accepting: 0\n"
    "    0 a 0\n"
    "    0 b 0\n"
    "  context: (@, a)\n")


def test_a_selection_over_another_alphabet_keeps_the_declared_one():
    # the reader keeps each pair's 'alphabet:' line and leaves the mismatch
    # with the selection's own alphabet to validate()
    g = parse_contextual(_MISMATCHED)
    grammar_pair, dfa_pair = g.pairs
    assert grammar_pair.declared_alphabet == Alphabet.of("a", "b")
    assert grammar_pair.source_grammar.terminals == Alphabet.of("a")
    assert grammar_pair.dfa.alphabet == Alphabet.of("a")
    assert dfa_pair.declared_alphabet == Alphabet.of("a")
    assert dfa_pair.dfa.alphabet == Alphabet.of("a", "b")
    assert [str(d) for d in validate(g)] == [
        "pair 1: selection automaton alphabet differs from the declared "
        "subalphabet",
        "pair 1: selection grammar terminals differ from the declared "
        "subalphabet",
        "pair 2: selection automaton alphabet differs from the declared "
        "subalphabet"]


def test_selects_is_false_for_a_symbol_outside_either_alphabet():
    # pair 1 declares {a, b} over a DFA on {a}, pair 2 declares {a} over a
    # DFA on {a, b}: a symbol missing from either alphabet is not selected
    grammar_pair, dfa_pair = parse_contextual(_MISMATCHED).pairs
    assert grammar_pair.selects(()) and grammar_pair.selects(("a", "a"))
    assert not grammar_pair.selects(("b",))
    assert not grammar_pair.selects(("a", "b"))
    assert dfa_pair.selects(("a",)) and not dfa_pair.selects(("b",))
    assert not grammar_pair.selects(("c",)) and not dfa_pair.selects(("c",))
