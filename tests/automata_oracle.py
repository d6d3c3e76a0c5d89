"""Automata the tests build or check against, outside the package.

The plain minimization is Moore partition refinement on state-keyed dicts:
the reachable states are found by a breadth-first search over the input's
own states, each state's block is looked up through ``delta`` on every
round, and the blocks are renumbered breadth-first at the end.
``tests/test_automata.py`` checks ``icgram.automata.minimize``, which
refines over the integer letter rows of ``Dfa.rows``, against it.

The builders make the one-state universal and empty automata and the trie
acceptor of a finite word set; ``inclusion_witness`` reads a shortest word
of L(d1) \\ L(d2) off the pair search the deciders use.
"""

from icgram.automata import (Dfa, _check_same_alphabet, _explore, _pair_word,
                             access_words)
from icgram.words import EMPTY_WORD


def minimize(d):
    reach = list(access_words(d))
    block = {}
    for q in reach:
        block[q] = 0 if q in d.accepting else 1
    while True:
        signatures = {}
        new_block = {}
        for q in reach:
            sig = (block[q],) + tuple(block[d.delta[(q, a)]] for a in d.alphabet)
            if sig not in signatures:
                signatures[sig] = len(signatures)
            new_block[q] = signatures[sig]
        if len(signatures) == len(set(block.values())):
            break
        block = new_block
    rep = {}
    for q in reach:
        rep.setdefault(block[q], q)
    return _explore(d.alphabet, block[d.initial],
                    lambda b, a: block[d.delta[(rep[b], a)]],
                    lambda b: rep[b] in d.accepting)


def universal_dfa(alphabet):
    delta = {(0, a): 0 for a in alphabet}
    return Dfa((0,), alphabet, delta, 0, frozenset([0]))


def empty_dfa(alphabet):
    delta = {(0, a): 0 for a in alphabet}
    return Dfa((0,), alphabet, delta, 0, frozenset())


def word_set_dfa(words, alphabet):
    """Trie acceptor (plus sink) for a finite set of words."""
    words = list(words)
    for w in words:
        alphabet.check_word(w)
    prefixes = {EMPTY_WORD: 0}
    for w in sorted(words):
        for i in range(1, len(w) + 1):
            if w[:i] not in prefixes:
                prefixes[w[:i]] = len(prefixes)
    sink = len(prefixes)
    delta = {}
    for p, i in prefixes.items():
        for a in alphabet:
            delta[(i, a)] = prefixes.get(p + (a,), sink)
    for a in alphabet:
        delta[(sink, a)] = sink
    accepting = frozenset(prefixes[w] for w in words)
    return Dfa(tuple(range(sink + 1)), alphabet, delta, 0, accepting)


def inclusion_witness(d1, d2):
    """Shortest word in L(d1) \\ L(d2), or None when L(d1) is a subset."""
    _check_same_alphabet(d1, d2)
    return _pair_word(d1, d1.initial, d2, d2.initial, "difference")
