"""The naive regex enumeration, kept as a test oracle.

It reads the words of a regex straight off its syntax tree, by structural
recursion, with no automaton involved.  ``tests/test_automata.py`` checks
the regex → NFA → DFA pipeline against it, and ``tests/test_regex.py``
checks the regex rewrites with it.
"""

from icgram.regex import Concat, EmptyLang, EmptyWord, Literal, Star, Union
from icgram.words import EMPTY_WORD


def enumerate_regex(r, max_len):
    """All words of length <= max_len, by direct structural recursion."""
    if max_len < 0:
        return set()
    if isinstance(r, EmptyLang):
        return set()
    if isinstance(r, EmptyWord):
        return {EMPTY_WORD}
    if isinstance(r, Literal):
        return {(r.symbol,)} if max_len >= 1 else set()
    if isinstance(r, Union):
        out = set()
        for p in r.parts:
            out |= enumerate_regex(p, max_len)
        return out
    if isinstance(r, Concat):
        acc = {EMPTY_WORD}
        for p in r.parts:
            step = enumerate_regex(p, max_len)
            acc = {u + v for u in acc for v in step if len(u) + len(v) <= max_len}
            if not acc:
                return set()
        return acc
    assert isinstance(r, Star)
    base = enumerate_regex(r.inner, max_len) - {EMPTY_WORD}
    out = {EMPTY_WORD}
    frontier = {EMPTY_WORD}
    while frontier:
        nxt = {u + v for u in frontier for v in base if len(u) + len(v) <= max_len}
        frontier = nxt - out
        out |= frontier
    return out
