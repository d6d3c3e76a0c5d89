"""The evidence of ``classify``, checked against the families' definitions.

Each NO of SUF, CIRC, COMM, DEF, MON and COMB names words, and its note
states how they refute the family: a suffix, a rotation, a permutation, a
shared suffix, a rejected word, a word the final symbol misplaces.  Each
relation is replayed on the automaton as given, not on its minimal form.
Each YES of SUF, COMM, CIRC, MON and COMB is checked on every word up to
length 7, and DEF's stated bound is checked to hold and to be least on the
pairs of reachable states.  The automata are every DFA over {a, b} with at
most 3 states and initial state 0, and a seeded sample of larger ones.
"""

import random
import re
from itertools import product
from math import comb

import pytest

from conftest import all_words, random_dfa
from icgram.automata import Dfa
from icgram.subregular import (CIRC, COMB, COMM, DEF, MON, SUF, Verdict,
                               classify)
from icgram.words import Alphabet

UAB = Alphabet.of("a", "b")
WORDS = list(all_words(UAB, 7))
INDEX = {w: i for i, w in enumerate(WORDS)}
# per word: the index of its prefix without the last symbol, of its first
# suffix, of its first rotation and of its sorted permutation
PREFIX = [INDEX[w[:-1]] if w else None for w in WORDS]
SUFFIX = [INDEX[w[1:]] for w in WORDS]
ROTATION = [INDEX[w[1:] + w[:1]] for w in WORDS]
SORTED = [INDEX[tuple(sorted(w))] for w in WORDS]


def _accepts(d: Dfa, w) -> bool:
    q = d.initial
    for a in w:
        q = d.delta[(q, a)]
    return q in d.accepting


def _members(d: Dfa) -> list[bool]:
    """Membership of each of ``WORDS``, one transition per word."""
    state = [d.initial]
    for i, w in enumerate(WORDS[1:], 1):
        state.append(d.delta[(state[PREFIX[i]], w[-1])])
    return [q in d.accepting for q in state]


def _reachable_pairs(d: Dfa) -> set:
    seen, todo = {d.initial}, [d.initial]
    for q in todo:
        for a in d.alphabet:
            if (t := d.delta[(q, a)]) not in seen:
                seen.add(t)
                todo.append(t)
    return {frozenset(p) for p in product(seen, repeat=2) if len(set(p)) == 2}


def _mixed(d: Dfa, pairs: set) -> bool:
    return any(len({q in d.accepting for q in p}) == 2 for p in pairs)


def _check_no(d: Dfa, label, note: str, words: tuple, min_states: int):
    if label is MON:
        (w,) = words
        assert not _accepts(d, w)
        return
    if label is COMB:
        (w,) = words
        ends = {a for a in d.alphabet if _accepts(d, (a,))}
        assert _accepts(d, w) != (bool(w) and w[-1] in ends)
        if len(w) <= 7:  # and it is the shortlex-least such word
            assert w == next(v for v in WORDS
                             if _accepts(d, v) != (bool(v) and v[-1] in ends))
        assert note.endswith(("accepted" if _accepts(d, w) else "rejected")
                             + " witness)")
        return
    x, y = words
    assert _accepts(d, x) != _accepts(d, y)
    if label is SUF:
        assert _accepts(d, x) and x[len(x) - len(y):] == y
    elif label is CIRC:
        assert _accepts(d, x) and len(x) == len(y)
        assert any(x[k:] + x[:k] == y for k in range(len(x) or 1))
    elif label is COMM:
        assert sorted(x) == sorted(y)
    else:
        # a shared suffix at least as long as any bound a definite language
        # with this many states can have, the pairs of states
        (k,) = map(int, re.findall(r"length (\d+)", note))
        assert min(len(x), len(y)) >= k >= comb(min_states, 2)
        assert x[len(x) - k:] == y[len(y) - k:]


def _check_yes(d: Dfa, label, note: str, member: list[bool]):
    if label is MON:
        assert all(member)
    elif label is SUF:
        assert all(member[SUFFIX[i]] for i, m in enumerate(member) if m)
    elif label is CIRC:
        assert all(member[ROTATION[i]] == m for i, m in enumerate(member))
    elif label is COMM:
        assert all(member[SORTED[i]] == m for i, m in enumerate(member))
    elif label is COMB:
        ends = set(note.partition(": ")[2].split()) - {"(none)"}
        assert all(m == (bool(w) and w[-1] in ends)
                   for w, m in zip(WORDS, member))
    else:
        # after any k symbols, every two reachable states agree; after k - 1
        # some two do not
        (k,) = map(int, re.findall(r"last (\d+) symbols", note))
        pairs = _reachable_pairs(d)
        for _ in range(k):
            before = pairs
            pairs = {frozenset(d.delta[(q, a)] for q in p)
                     for p in pairs for a in d.alphabet}
            pairs = {p for p in pairs if len(p) == 2}
        assert not _mixed(d, pairs)
        assert k == 0 or _mixed(d, before)


def _check(d: Dfa):
    report = classify(d, UAB)
    member = None
    for label in (SUF, CIRC, COMM, DEF, MON, COMB):
        v, ev = report.verdicts[label], report.evidence[label]
        if v is Verdict.NO:
            _check_no(d, label, ev.note, ev.words, report.min_state_count)
        else:
            assert v is Verdict.YES, label
            member = member or _members(d)
            _check_yes(d, label, ev.note, member)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_evidence_on_every_dfa_with_at_most_three_states(n):
    states, checked = tuple(range(n)), 0
    for targets in product(states, repeat=2 * n):
        delta = dict(zip(product(states, UAB), targets))
        for bits in product((False, True), repeat=n):
            accepting = frozenset(q for q, b in zip(states, bits) if b)
            _check(Dfa(states, UAB, delta, 0, accepting))
            checked += 1
    assert checked == {1: 2, 2: 64, 3: 5832}[n]


def test_evidence_on_random_dfas():
    rng = random.Random(9)
    for _ in range(1500):
        _check(random_dfa(rng, rng.randint(4, 7), UAB))
