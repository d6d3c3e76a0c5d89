import pytest

from automata_oracle import empty_dfa, universal_dfa
from conftest import all_words, random_dfa
from icgram.automata import compose, minimize, regex_to_dfa
from icgram.errors import ResourceLimitError
from icgram.monoid import monoid_elements, transition_monoid
from icgram.regex import parse_regex
from icgram.subregular import NC, PS, Verdict, classify
from icgram.words import Alphabet

UA = Alphabet.of("a")
UBC = Alphabet.of("b", "c")


def _minimal(text, u):
    return minimize(regex_to_dfa(parse_regex(text, u), u))


def _element_of_word(d, w):
    """The transformation of ``w``: the identity, then each letter's row."""
    gen = dict(zip(d.alphabet, d.rows))
    t = tuple(range(len(d.states)))
    for a in w:
        t = compose(t, gen[a])
    return t


def test_even_a_monoid():
    m = transition_monoid(_minimal("(aa)*", UA))
    assert m.size == 2  # identity and the swap
    assert m.words == ((), ("a",))
    # a . a = identity
    identity, swap = m.elements
    assert compose(swap, swap) == identity


def test_bstar_c_monoid():
    m = transition_monoid(_minimal("b*c", UBC))
    assert m.size == 4
    assert m.words == ((), ("b",), ("c",), ("c", "b"))


def test_element_of_word_is_fold_of_generators():
    d = _minimal("b*c", UBC)
    m = transition_monoid(d)
    element = dict(zip(m.words, m.elements))
    assert (element[("b",)], element[("c",)]) == d.rows
    # the monoid is closed under composition
    assert {compose(s, t) for s in m.elements for t in m.elements} == set(m.elements)
    # b c b b fails on its second b, as c b does
    acc = element[()]
    for s in ("b", "c", "b", "b"):
        acc = compose(acc, element[(s,)])
    assert acc == element[("c", "b")] == _element_of_word(d, ("b", "c", "b", "b"))


def test_monoid_cap():
    # a 4-letter alphabet on a 5-state automaton easily exceeds a tiny cap
    u = Alphabet.of("a", "b", "c", "d")
    d = regex_to_dfa(parse_regex("(ab|cd)*(a|dd)", u), u)
    with pytest.raises(ResourceLimitError) as e:
        transition_monoid(minimize(d), cap=5)
    assert e.value.cap == 5
    assert e.value.reached >= 5
    # the generator hands out exactly the first 5 elements, then raises
    yielded = []
    with pytest.raises(ResourceLimitError) as e:
        for element in monoid_elements(minimize(d), cap=5):
            yielded.append(element)
    assert len(yielded) == 5 and e.value.reached == 6


def test_witness_words_reproduce_their_elements():
    d = _minimal("b*c", UBC)
    m = transition_monoid(d)
    for i, w in enumerate(m.words):
        assert _element_of_word(d, w) == m.elements[i]
    # representatives come out in shortlex discovery order
    keys = [(len(w), w) for w in m.words]
    assert keys == sorted(keys)


def _then(t, g):
    """The transformation of ``uv`` from ``t`` of ``u`` and ``g`` of ``v``."""
    return tuple(g[x] for x in t)


@pytest.mark.parametrize("n_states", [2, 3, 4, 5])
def test_words_are_shortlex_least(rng, n_states):
    """Every recorded word is the first word, in shortlex order, that
    induces its element, and the elements are the whole monoid.

    Exact-length oracle: ``levels[L]`` holds the elements of the words of
    length exactly L (``levels[0]`` the identity, ``levels[L + 1]`` those of
    ``levels[L]`` followed by a letter).  A word w of length L is
    shortlex-least for its element t exactly when it induces t, t is in no
    earlier level, and for every k < L and every letter b before ``w[k]``,
    t is not in ``T(w[:k] b) . levels[L - k - 1]``: the elements of the
    same-length words that first differ from w at k, with b.  Where the
    longest word has at most 12 letters, a scan of every word up to that
    length checks the same by brute force."""
    u = Alphabet.of("a", "b")
    for _ in range(10):
        d = random_dfa(rng, n_states, u)
        m = transition_monoid(d)
        longest = max(len(w) for w in m.words)
        levels = [{_element_of_word(d, ())}]
        for _ in range(longest + 1):
            levels.append({_then(t, g) for t in levels[-1] for g in d.rows})
        earlier = set().union(*levels[:-1])
        assert set(m.elements) == earlier and levels[-1] <= earlier
        same_length: dict = {}  # (T(w[:k] b), L - k - 1) -> its elements
        for t, w in zip(m.elements, m.words):
            assert _element_of_word(d, w) == t
            assert not any(t in level for level in levels[:len(w)])
            for k, a in enumerate(w):
                for b in u.symbols[:u.symbols.index(a)]:
                    key = (_element_of_word(d, w[:k] + (b,)), len(w) - k - 1)
                    if key not in same_length:
                        same_length[key] = {_then(key[0], r) for r in levels[key[1]]}
                    assert t not in same_length[key], (w, k, b)
        if longest <= 12:
            first: dict = {}
            for w in all_words(u, longest):
                first.setdefault(_element_of_word(d, w), w)
            assert m.words == tuple(first[t] for t in m.elements)


def test_compose_applies_the_first_transformation_then_the_second():
    assert compose((1, 2, 0), (0, 0, 2)) == (0, 2, 0)
    assert compose((0,), (0,)) == (0,)  # a 1-tuple, not the bare element


@pytest.mark.parametrize("make", [universal_dfa, empty_dfa])
def test_one_state_automata_compose_to_one_tuples(make):
    """``compose`` on one state goes through Moore signatures, the monoid
    walk and both monoid deciders."""
    d = make(UBC)
    assert minimize(d) == d
    m = transition_monoid(d)
    assert m.elements == ((0,),) and m.words == ((),)
    assert compose(m.elements[0], m.elements[0]) == (0,)
    assert _element_of_word(d, ("b", "c", "b")) == (0,)
    rep = classify(d, UBC)
    assert rep.verdicts[NC] is Verdict.YES
    assert rep.evidence[NC].note == "aperiodic transition monoid (1 elements)"
    assert rep.verdicts[PS] is Verdict.YES
