import contextlib
import io
import random
from itertools import product

import pytest
from hypothesis import settings

from icgram.automata import Dfa
from icgram.regex import (Concat, EmptyLang, EmptyWord, Literal, Regex, Star,
                          Union)
from icgram.words import Alphabet

# every property test draws the same examples on every run, seeded from the
# test itself, so a failure reproduces on the next run; this also turns off
# the example database, which would replay earlier failures first.  Fixed
# examples stop exploring across runs, so each run draws more of them: 200
# where a test sets no count
settings.register_profile("derandomized", derandomize=True, max_examples=200)
settings.load_profile("derandomized")


def run_cli(argv):
    """Invoke the CLI in-process; returns (exit code, stdout text)."""
    from icgram.cli import main
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def random_dfa(rng: random.Random, n_states: int, alphabet: Alphabet) -> Dfa:
    """A uniformly random complete DFA on states 0..n-1 with a random
    non-trivial accepting set (possibly empty or full)."""
    states = tuple(range(n_states))
    delta = {}
    for q in states:
        for a in alphabet:
            delta[(q, a)] = rng.randrange(n_states)
    accepting = frozenset(q for q in states if rng.randrange(2))
    return Dfa(states, alphabet, delta, 0, accepting)


# the characters of seeded regex strings: every token of the notation, a
# letter outside the alphabet {a, b}, and the two blanks
REGEX_CHARS = "ab()|*∅z \t"

# the leaves of random_regex: xy is a literal the notation cannot write, and
# z one outside the alphabet {a, b, xy} that the trees are compiled over
_REGEX_LEAVES = (EmptyLang(), EmptyWord(), Literal("a"), Literal("b"),
                 Literal("xy"), Literal("z"))


def random_regex(rng: random.Random, depth: int) -> Regex:
    """A random tree of depth <= ``depth``, built with the node constructors,
    so a concatenation may hold a concatenation as the parser never builds:
    a leaf is one of ``_REGEX_LEAVES``; an inner node is a star, or a
    concatenation or union of two or three subtrees."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(_REGEX_LEAVES)
    kind = rng.randrange(3)
    if kind == 0:
        return Star(random_regex(rng, depth - 1))
    parts = tuple(random_regex(rng, depth - 1)
                  for _ in range(rng.randint(2, 3)))
    return (Concat, Union)[kind - 1](parts)


def all_words(alphabet: Alphabet, max_len: int):
    """All words of length <= max_len in shortlex order."""
    for n in range(max_len + 1):
        yield from product(alphabet.symbols, repeat=n)


@pytest.fixture
def rng():
    return random.Random(20240817)
