import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import automata_oracle
from automata_oracle import (empty_dfa, inclusion_witness, universal_dfa,
                             word_set_dfa)
from conftest import all_words, random_dfa
from icgram.automata import (Dfa, Nfa, access_words, accepts, combine, complement,
                             dfa_to_table, distinguishing_suffix,
                             distinguishing_word, enumerate_regular, equivalent,
                             language_is_finite, minimize, nfa_to_dfa, parse_dfa_table,
                             regex_to_dfa, regex_to_nfa, shortest_accepted)
from icgram.errors import InvalidAutomatonError, TextFormatError
from icgram.regex import parse_regex
from icgram.words import Alphabet
from regex_oracle import enumerate_regex

U2 = Alphabet.of("a", "b")
U3 = Alphabet.of("a", "b", "c")


def _lang(d, n):
    return enumerate_regular(d, n)


# --- compilation against the structural enumeration oracle ----------------

REGEXES = ["a", "()", "∅", "a*", "ab", "a|b", "(ab)*", "(a|b)*a", "a*b*",
           "(aa)*", "b*c", "(a|bc)*", "a(b|c)*a|b", "((a|b)(a|b))*",
           "ab|ba", "(a*b)*", "a∅b", "(a∅)*b", "a|∅", "∅*a"]


@pytest.mark.parametrize("text", REGEXES)
def test_regex_pipeline_matches_enumeration(text):
    r = parse_regex(text, U3)
    d = regex_to_dfa(r, U3)
    assert _lang(d, 5) == enumerate_regex(r, 5)


def test_foreign_literal_error_names_the_leftmost_under_any_hash_seed():
    """The walk checks literals in the order of the tree, not in the set
    order of one process: two hash seeds name the same literal."""
    script = ("from icgram.automata import regex_to_nfa\n"
              "from icgram.regex import Literal, seq\n"
              "from icgram.words import Alphabet\n"
              "try: regex_to_nfa(seq([Literal(s) for s in 'xyz']), Alphabet.of('a'))\n"
              "except Exception as e: print(e)")
    src = str(Path(__file__).resolve().parent.parent / "src")
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed}
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=60,
                              check=True)
        assert proc.stdout == "regex literal 'x' not in alphabet\n", seed


@pytest.mark.parametrize("text", REGEXES)
def test_minimize_preserves_language(text):
    d = regex_to_dfa(parse_regex(text, U3), U3)
    dm = minimize(d)
    assert equivalent(d, dm)
    assert len(dm.states) <= len(d.states)


def test_minimize_is_canonical():
    # same language, different expressions -> identical automaton objects
    d1 = minimize(regex_to_dfa(parse_regex("(a|b)*", U2), U2))
    d2 = minimize(regex_to_dfa(parse_regex("(a*b*)*", U2), U2))
    assert d1 == d2
    d3 = minimize(regex_to_dfa(parse_regex("a(ba)*|(ab)*", U2), U2))
    d4 = minimize(regex_to_dfa(parse_regex("(ab)*|a(ba)*", U2), U2))
    assert d3 == d4


def _seeded_dfas(seed, count):
    """Random complete DFAs with 1-24 states and 1-3 letters; every odd one
    has string-named states in shuffled order and a random initial state."""
    rng = random.Random(seed)
    for i in range(count):
        n, u = rng.randint(1, 24), Alphabet(tuple("abc"[:rng.randint(1, 3)]))
        states, initial = tuple(range(n)), 0
        if i % 2:
            states = tuple(f"s{j}" for j in rng.sample(range(100), n))
            initial = rng.choice(states)
        delta = {(q, a): rng.choice(states) for q in states for a in u}
        accepting = frozenset(q for q in states if rng.random() < 0.5)
        yield Dfa(states, u, delta, initial, accepting)


def _seeded_subset_dfas(seed, count):
    """Subset constructions of random NFAs with 1-6 states and 2-3 letters."""
    rng = random.Random(seed)
    for _ in range(count):
        n, u = rng.randint(1, 6), rng.choice((U2, U3))
        states = frozenset(range(n))
        moves = {(q, a): frozenset(t for t in states if rng.random() < 0.3)
                 for q in states for a in u}
        initial = frozenset(rng.sample(range(n), rng.randint(1, n)))
        accepting = frozenset(q for q in states if rng.random() < 0.4)
        yield nfa_to_dfa(Nfa(states, u, moves, initial, accepting))


def test_minimize_matches_the_moore_oracle():
    """The row-based refinement gives the plain dict-based one's automaton;
    each row entry is the position of the state's image; reading ``rows``
    leaves equality and ``repr`` alone."""
    dfas = [*_seeded_dfas(5, 1200), *_seeded_subset_dfas(6, 200),
            *(regex_to_dfa(parse_regex(t, U3), U3) for t in REGEXES)]
    for d in dfas:
        assert minimize(d) == automata_oracle.minimize(d), dfa_to_table(d)
        assert len(d.rows) == len(d.alphabet)
        for row, a in zip(d.rows, d.alphabet):
            assert len(row) == len(d.states)
            for i, q in enumerate(d.states):
                assert row[i] == d.states.index(d.delta[(q, a)])
        copy = Dfa(d.states, d.alphabet, d.delta, d.initial, d.accepting)
        assert d == copy and copy == d and repr(d) == repr(copy)


def test_minimize_idempotent():
    d = minimize(regex_to_dfa(parse_regex("b*c", U3), U3))
    assert minimize(d) == d


def test_min_state_counts():
    assert len(minimize(regex_to_dfa(parse_regex("b*c", U3), U3)).states) == 3
    assert len(minimize(regex_to_dfa(parse_regex("(aa)*", Alphabet.of("a")),
                                     Alphabet.of("a"))).states) == 2
    assert len(minimize(universal_dfa(U3)).states) == 1
    assert len(minimize(empty_dfa(U3)).states) == 1


def test_equivalence_and_distinguishing_word():
    d1 = regex_to_dfa(parse_regex("(ab)*", U2), U2)
    d2 = regex_to_dfa(parse_regex("(ab)*ab", U2), U2)
    assert not equivalent(d1, d2)
    w = distinguishing_word(d1, d2)
    assert w is not None and (accepts(d1, w) != accepts(d2, w))
    assert w == ()  # shortest difference: the empty word
    assert distinguishing_word(d1, d1) is None


def test_complement_and_combine():
    d = regex_to_dfa(parse_regex("a*b", U2), U2)
    dc = complement(d)
    words = list(all_words(U2, 4))
    for w in words:
        assert accepts(d, w) != accepts(dc, w)
    du = regex_to_dfa(parse_regex("ab*", U2), U2)
    both = combine(d, du, "intersection")
    either = combine(d, du, "union")
    diff = combine(d, du, "difference")
    for w in words:
        assert accepts(both, w) == (accepts(d, w) and accepts(du, w))
        assert accepts(either, w) == (accepts(d, w) or accepts(du, w))
        assert accepts(diff, w) == (accepts(d, w) and not accepts(du, w))


def test_inclusion_witness():
    small = regex_to_dfa(parse_regex("ab", U2), U2)
    big = regex_to_dfa(parse_regex("a(a|b)*", U2), U2)
    assert inclusion_witness(small, big) is None
    w = inclusion_witness(big, small)
    assert w is not None and accepts(big, w) and not accepts(small, w)


def test_shortest_accepted_and_emptiness():
    assert shortest_accepted(empty_dfa(U2)) is None
    assert shortest_accepted(universal_dfa(U2)) == ()
    d = regex_to_dfa(parse_regex("aab|ba", U2), U2)
    assert shortest_accepted(d) == ("b", "a")


def test_finiteness():
    assert language_is_finite(regex_to_dfa(parse_regex("ab|ba", U2), U2))
    assert not language_is_finite(regex_to_dfa(parse_regex("a*b", U2), U2))
    assert language_is_finite(empty_dfa(U2))


def test_word_set_dfa():
    ws = {("a", "b"), ("b",)}
    d = word_set_dfa(ws, U2)
    assert _lang(d, 4) == ws


def test_dfa_validation():
    with pytest.raises(InvalidAutomatonError):
        # missing transition
        from icgram.automata import Dfa
        Dfa((0, 1), U2, {(0, "a"): 1, (0, "b"): 0, (1, "a"): 0}, 0, frozenset({1}))


def test_table_round_trip():
    d = minimize(regex_to_dfa(parse_regex("b*c", U3), U3))
    text = dfa_to_table(d)
    back = parse_dfa_table(text)
    assert equivalent(d, back)
    assert dfa_to_table(minimize(back)) == text  # canonical form is stable


def test_table_parse_errors():
    with pytest.raises(TextFormatError):
        parse_dfa_table("states: q0\nalphabet: a\ninitial: q9\naccepting: q0\nq0 a q0\n")
    with pytest.raises(TextFormatError):
        parse_dfa_table("nonsense\n")


# --- properties over random automata ---------------------------------------

@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5))
def test_minimize_canonical_under_state_renaming(seed, n_states):
    rng = random.Random(seed)
    d = random_dfa(rng, n_states, U2)
    # rename states by a random permutation; canonical form must not move
    perm = rng.sample(range(n_states), n_states)
    renamed = type(d)(
        tuple(perm[q] for q in d.states), d.alphabet,
        {(perm[q], a): perm[t] for (q, a), t in d.delta.items()},
        perm[d.initial], frozenset(perm[q] for q in d.accepting))
    assert minimize(d) == minimize(renamed)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 5))
def test_equivalent_iff_no_distinguishing_word(seed, n1, n2):
    rng = random.Random(seed)
    d1, d2 = random_dfa(rng, n1, U2), random_dfa(rng, n2, U2)
    w = distinguishing_word(d1, d2)
    if w is None:
        assert equivalent(d1, d2)
        assert _lang(d1, 4) == _lang(d2, 4)
    else:
        assert accepts(d1, w) != accepts(d2, w)
        # and it is a shortest one: all strictly shorter words agree
        if len(w) > 0:
            assert _lang(d1, len(w) - 1) == _lang(d2, len(w) - 1)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6))
def test_nfa_determinization_preserves_words(seed, n_states):
    rng = random.Random(seed)
    d = random_dfa(rng, n_states, U3)
    r_text = "(a|b)*c|ca*"
    r = parse_regex(r_text, U3)
    nfa = regex_to_nfa(r, U3)
    det = nfa_to_dfa(nfa)
    assert _lang(det, 4) == enumerate_regex(r, 4)
    assert equivalent(combine(d, det, "union"), combine(det, d, "union"))


def _first(words, pred):
    return next((w for w in words if pred(w)), None)


@pytest.mark.parametrize("n_states", [2, 3, 4, 5])
def test_search_words_are_shortlex_least(rng, n_states):
    """Brute force: access, accepted and distinguishing words are the first
    words, in shortlex order, with their property.  A reachable state or an
    accepting one is reached by a word shorter than n.  A distinguishing
    word is checked against a shortlex scan up to its own length; its
    absence, against the canonical minimal automata (the scan bound n*n
    would mean 2^25 words at n = 5)."""
    for u in (U2, U3):
        for _ in range(10):
            d, e = random_dfa(rng, n_states, u), random_dfa(rng, n_states, u)
            short = list(all_words(u, n_states - 1))
            first: dict = {}
            for w in short:
                first.setdefault(d.run(w), w)
            assert access_words(d) == first
            for q in d.states:
                assert shortest_accepted(d, q) == _first(
                    short, lambda w: d.run(w, q) in d.accepting)
            assert shortest_accepted(d) == shortest_accepted(d, d.initial)

            w = distinguishing_word(d, e)
            if w is None:
                assert minimize(d) == minimize(e)
            else:
                assert w == _first(all_words(u, len(w)),
                                   lambda v: accepts(d, v) != accepts(e, v))
            for p in d.states:
                for q in d.states:
                    z = distinguishing_suffix(d, p, q)
                    if z is None:
                        assert (minimize(d.replace(initial=p))
                                == minimize(d.replace(initial=q)))
                    else:
                        assert z == _first(
                            all_words(u, len(z)),
                            lambda v: (d.run(v, p) in d.accepting)
                            != (d.run(v, q) in d.accepting))
