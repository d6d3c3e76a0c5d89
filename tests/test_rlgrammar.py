import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import rlgrammar_oracle
from icgram.automata import (dfa_to_table, enumerate_regular, equivalent,
                             minimize, nfa_to_dfa, regex_to_dfa)
from icgram.errors import InvalidGrammarError, TextFormatError
from icgram.regex import parse_regex
from icgram.rlgrammar import (RightLinearGrammar, Rule, grammar_to_nfa,
                              grammar_to_text, parse_grammar)
from rlgrammar_oracle import bounded_words
from icgram.words import EMPTY_WORD, Alphabet

U = Alphabet.of("a", "b")

G_EVEN_A = RightLinearGrammar(
    ("S",), Alphabet.of("a"),
    (Rule("S", ("a", "a"), "S"), Rule("S", EMPTY_WORD, None)), "S")

G_ASTAR_B = RightLinearGrammar(
    ("S",), U, (Rule("S", ("a",), "S"), Rule("S", ("b",), None)), "S")


def _dfa(g):
    return nfa_to_dfa(grammar_to_nfa(g))


def test_bounded_words_oracle():
    assert bounded_words(G_EVEN_A, 4) == {(), ("a", "a"), ("a", "a", "a", "a")}
    assert bounded_words(G_ASTAR_B, 3) == {
        ("b",), ("a", "b"), ("a", "a", "b")}


def test_grammar_to_nfa_matches_bounded_words():
    for g, n in ((G_EVEN_A, 6), (G_ASTAR_B, 5)):
        assert enumerate_regular(_dfa(g), n) == bounded_words(g, n)


def test_grammar_language_equals_regex():
    assert equivalent(_dfa(G_EVEN_A),
                      regex_to_dfa(parse_regex("(aa)*", Alphabet.of("a")),
                                   Alphabet.of("a")))
    assert equivalent(_dfa(G_ASTAR_B), regex_to_dfa(parse_regex("a*b", U), U))


def test_unit_rules_and_empty_rhs():
    # unit chains A -> B and erasing rules are handled by closure
    g = RightLinearGrammar(
        ("S", "T"), U,
        (Rule("S", EMPTY_WORD, "T"), Rule("T", ("a",), "T"),
         Rule("T", ("b",), None)), "S")
    assert equivalent(_dfa(g), _dfa(G_ASTAR_B))


# unit rules fanning out to four nonterminals, with word and erasing rules
# under each: S starts at the positions of all of them
UNIT_FAN_OUT = """nonterminals: S A B C D
terminals: a b c
start: S
S -> A
S -> B
S -> C
S -> D
A -> ab A
A -> @
B -> ba C
B -> @
C -> c D
C -> D
D -> abc
D -> @
"""


def test_grammar_to_nfa_does_not_depend_on_string_hashing():
    """The subset automaton of the positions follows the grammar, not the
    set order of one process: two hash seeds print the same table as this
    one."""
    script = ("import sys; from icgram.rlgrammar import *; "
              "from icgram.automata import dfa_to_table, nfa_to_dfa; "
              "sys.stdout.write(dfa_to_table(nfa_to_dfa(grammar_to_nfa("
              "parse_grammar(sys.stdin.read())))))")
    src = str(Path(__file__).resolve().parent.parent / "src")
    g = parse_grammar(UNIT_FAN_OUT)
    want = dfa_to_table(_dfa(g))
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed}
        proc = subprocess.run([sys.executable, "-c", script], input=UNIT_FAN_OUT,
                              env=env, capture_output=True, text=True,
                              timeout=60, check=True)
        assert proc.stdout == want, seed
    assert enumerate_regular(_dfa(g), 8) == bounded_words(g, 8)


def test_grammar_to_nfa_on_terminals_named_like_chain_states():
    """Terminals named ``_fin`` and ``_0_1``, the names the strict normal
    form once gave its fresh nonterminals, compile like any other."""
    for g in (RightLinearGrammar(("S",), Alphabet.of("a", "_fin"),
                                 (Rule("S", ("a",), None),), "S"),
              RightLinearGrammar(("S",), Alphabet.of("a", "_0_1"),
                                 (Rule("S", ("a", "a"), "S"),
                                  Rule("S", ("_0_1",), None)), "S")):
        assert enumerate_regular(_dfa(g), 5) == bounded_words(g, 5)


def test_a_long_unit_chain_starts_at_the_one_word_rule():
    """``A0 -> A1 -> ... -> A399 -> a``: each link unit-derives the one word
    rule at the end, so the automaton has that rule's one position and the
    accepting ``None``, and the language is {a}.  Each nonterminal's unit
    rules are walked once, not one round per nonterminal over every rule."""
    nts = tuple(f"A{i}" for i in range(400))
    g = RightLinearGrammar(
        nts, Alphabet.of("a"),
        tuple(Rule(a, EMPTY_WORD, b) for a, b in zip(nts, nts[1:]))
        + (Rule(nts[-1], ("a",), None),), "A0")
    n = grammar_to_nfa(g)
    assert n.initial == {(399, 0)} and n.states == {(399, 0), None}
    assert bounded_words(g, 3) == {("a",)}
    assert enumerate_regular(_dfa(g), 3) == {("a",)}


def _random_grammar(rng, alphabet):
    nts = ("S", "A", "B", "C")[:rng.randint(1, 4)]
    rules = tuple(Rule(rng.choice(nts),
                       tuple(rng.choice(alphabet.symbols)
                             for _ in range(rng.randint(0, 3))),
                       rng.choice(nts + (None,)))
                  for _ in range(rng.randint(0, 7)))
    return RightLinearGrammar(nts, alphabet, rules, "S")


def test_grammar_to_nfa_matches_the_direct_compiler_on_seeded_grammars():
    """The position automaton and the direct compiler of word chains and
    unit closures give subset automata with one minimal automaton, so one
    language, and it is exactly the derivable words."""
    rng = random.Random(3)
    alphabets = (Alphabet.of("a"), U, Alphabet.of("a", "b", "c"),
                 Alphabet.of("a", "_fin", "_0_1"))
    for _ in range(4000):
        g = _random_grammar(rng, rng.choice(alphabets))
        d = nfa_to_dfa(grammar_to_nfa(g))
        assert minimize(d) == minimize(nfa_to_dfa(rlgrammar_oracle.grammar_to_nfa(g))), \
            grammar_to_text(g)
        assert enumerate_regular(d, 6) == bounded_words(g, 6), grammar_to_text(g)


def test_grammar_validation():
    with pytest.raises(InvalidGrammarError):
        RightLinearGrammar(("S",), U, (Rule("S", ("z",), None),), "S")
    with pytest.raises(InvalidGrammarError):
        RightLinearGrammar(("S",), U, (Rule("X", ("a",), None),), "S")
    with pytest.raises(InvalidGrammarError):
        RightLinearGrammar(("S",), U, (Rule("S", ("a",), "X"),), "S")
    with pytest.raises(InvalidGrammarError):
        RightLinearGrammar(("S",), U, (Rule("S", ("a",), None),), "X")


def test_text_round_trip():
    for g in (G_EVEN_A, G_ASTAR_B):
        text = grammar_to_text(g)
        back = parse_grammar(text)
        assert back == g
        assert grammar_to_text(back) == text


def test_parse_grammar_format():
    g = parse_grammar(
        "# comment\n"
        "nonterminals: S T\n"
        "terminals: a b\n"
        "start: S\n"
        "S -> a T\n"
        "T -> b\n"
        "T -> @\n")
    assert g.nonterminals == ("S", "T")
    assert bounded_words(g, 2) == {("a",), ("a", "b")}


def test_parse_grammar_errors():
    with pytest.raises(TextFormatError):
        parse_grammar("terminals: a\nstart: S\nS -> a\n")  # missing header
    with pytest.raises(TextFormatError):
        parse_grammar("nonterminals: S\nterminals: a\nstart: S\nS => a\n")
