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
from icgram.automata import (Dfa, Nfa, _BOOL_OPS, _pair_word, _product,
                             accepts, bfs_tree, combine, complement,
                             dfa_to_table,
                             distinguishing_word, enumerate_regular, equivalent,
                             language_is_finite, minimize, nfa_to_dfa, parse_dfa_table,
                             path_word, regex_to_dfa, regex_to_nfa,
                             shortest_accepted)
from icgram.errors import InvalidAutomatonError, TextFormatError
from icgram.regex import parse_regex
from icgram.subregular import _Analysis
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
            an = _Analysis(d)  # its access tree, on any DFA
            assert {d.states[q]: an.access(q) for q in an.tree[0]} == first
            for p, q in enumerate(d.states):
                assert shortest_accepted(d, p) == _first(
                    short, lambda w: d.run(w, q) in d.accepting)
            assert shortest_accepted(d) == shortest_accepted(d, d.start)

            w = distinguishing_word(d, e)
            if w is None:
                assert minimize(d) == minimize(e)
            else:
                assert w == _first(all_words(u, len(w)),
                                   lambda v: accepts(d, v) != accepts(e, v))
            for p in d.states:
                for q in d.states:
                    z = _pair_word(d, d.states.index(p), d, d.states.index(q),
                                   "symmetric_difference")
                    if z is None:
                        assert (minimize(d.replace(initial=p))
                                == minimize(d.replace(initial=q)))
                    else:
                        assert z == _first(
                            all_words(u, len(z)),
                            lambda v: (d.run(v, p) in d.accepting)
                            != (d.run(v, q) in d.accepting))


def _named_dfas(seed, count):
    """Random complete DFAs with 1-9 states over 1-3 letters; every odd one
    is read by ``parse_dfa_table`` from a table with string state names in
    shuffled order and a random initial state."""
    rng = random.Random(seed)
    for i in range(count):
        n, u = rng.randint(1, 9), Alphabet(tuple("abc"[:rng.randint(1, 3)]))
        d = random_dfa(rng, n, u)
        if i % 2:
            name = dict(zip(range(n), (f"s{j}" for j in rng.sample(range(100), n))))
            states = tuple(name[q] for q in rng.sample(range(n), n))
            d = parse_dfa_table(dfa_to_table(Dfa(
                states, u, {(name[q], a): name[t] for (q, a), t in d.delta.items()},
                name[rng.randrange(n)], frozenset(map(name.get, d.accepting)))))
        yield d


def _tree(start, successors, alphabet):
    """``(node, word)`` for every node of a ``bfs_tree`` walk, in its order,
    each word spelled from the links alone."""
    walk, links = bfs_tree(start, successors)
    nodes = list(walk)
    return [(x, path_word(links, j, alphabet)) for j, x in enumerate(nodes)]


def test_position_searches_match_the_state_name_searches():
    """``Dfa.start`` and ``Dfa.final`` are the initial state's position and
    each position's acceptance, and reading them changes neither ``==`` nor
    ``repr``.  ``bfs_tree`` on state positions and ``Dfa.rows`` visits the
    states that the ``delta``-keyed ``bfs_words`` does, in the same order,
    and spells the same words; so does the product search on ``p*n + q``
    against tuple pairs, and ``_pair_word``, the access words of the
    decider analysis and ``shortest_accepted`` against their state-name
    forms."""
    dfas = list(_named_dfas(36, 300))
    assert any(isinstance(d.initial, str) for d in dfas)
    for d, e in zip(dfas, dfas[1:] + dfas[:1]):
        u = d.alphabet
        twin, shown = d.replace(), repr(d)
        assert d.states[d.start] == d.initial
        assert d.final == tuple(q in d.accepting for q in d.states)
        assert d == twin and repr(d) == shown
        cols = list(zip(*d.rows))
        step = lambda q, a: d.delta[(q, a)]
        for p in range(len(d.states)):
            want = list(automata_oracle.bfs_words(d.states[p], step, u))
            got = _tree(p, cols.__getitem__, u)
            assert [(d.states[q], w) for q, w in got] == want, dfa_to_table(d)
            assert shortest_accepted(d, p) == next(
                (w for q, w in want if q in d.accepting), None)
        an = _Analysis(d)
        assert [(d.states[q], an.access(q)) for q in an.tree[0]] == list(
            automata_oracle.access_words(d).items())
        if e.alphabet != u:
            continue
        n2 = len(e.states)
        pair_step = lambda pq, a: (d.delta[(pq[0], a)], e.delta[(pq[1], a)])
        for p in range(len(d.states)):
            for q in range(n2):
                want = list(automata_oracle.bfs_words(
                    (d.states[p], e.states[q]), pair_step, u))
                got = _tree(p * n2 + q, _product(d, e, "union")[0], u)
                assert [((d.states[x // n2], e.states[x % n2]), w)
                        for x, w in got] == want, (dfa_to_table(d), dfa_to_table(e))
                for op in _BOOL_OPS:
                    assert _pair_word(d, p, e, q, op) == automata_oracle._pair_word(
                        d, d.states[p], e, e.states[q], op), op
