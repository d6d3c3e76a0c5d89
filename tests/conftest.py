import contextlib
import io
import random
from itertools import product

import pytest
from hypothesis import settings

from icgram.automata import Dfa
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


def all_words(alphabet: Alphabet, max_len: int):
    """All words of length <= max_len in shortlex order."""
    for n in range(max_len + 1):
        yield from product(alphabet.symbols, repeat=n)


@pytest.fixture
def rng():
    return random.Random(20240817)
