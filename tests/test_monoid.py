import pytest

from conftest import random_dfa
from icgram.automata import minimize, regex_to_dfa
from icgram.errors import ResourceLimitError
from icgram.monoid import monoid_elements, transition_monoid
from icgram.regex import parse_regex
from icgram.words import Alphabet, all_words

UA = Alphabet.of("a")
UBC = Alphabet.of("b", "c")


def _minimal(text, u):
    return minimize(regex_to_dfa(parse_regex(text, u), u))


def test_even_a_monoid():
    m = transition_monoid(_minimal("(aa)*", UA))
    assert m.size == 2  # identity and the swap
    assert m.words == ((), ("a",))
    # a . a = identity
    i_a = m.index_of(m.element_of_word(("a",)))
    assert m.compose(i_a, i_a) == m.index_of(m.element_of_word(()))


def test_bstar_c_monoid():
    m = transition_monoid(_minimal("b*c", UBC))
    assert m.size == 4
    assert m.words == ((), ("b",), ("c",), ("c", "b"))


def test_element_of_word_is_fold_of_generators():
    m = transition_monoid(_minimal("b*c", UBC))
    w = ("b", "c", "b", "b")
    acc = m.index_of(m.element_of_word(()))
    for s in w:
        acc = m.compose(acc, m.index_of(m.element_of_word((s,))))
    assert m.elements[acc] == m.element_of_word(w)


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
    m = transition_monoid(_minimal("b*c", UBC))
    for i, w in enumerate(m.words):
        assert m.element_of_word(w) == m.elements[i]
    # representatives come out in shortlex discovery order
    keys = [(len(w), w) for w in m.words]
    assert keys == sorted(keys)


@pytest.mark.parametrize("n_states", [2, 3, 4, 5])
def test_words_are_shortlex_least(rng, n_states):
    """Brute force: every recorded word is the first word, in shortlex
    order, that induces its element."""
    u = Alphabet.of("a", "b")
    for _ in range(10):
        m = transition_monoid(random_dfa(rng, n_states, u))
        first: dict = {}
        for w in all_words(u, max(len(w) for w in m.words)):
            first.setdefault(m.element_of_word(w), w)
        assert m.words == tuple(first[t] for t in m.elements)
