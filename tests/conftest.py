import contextlib
import io
import random

import pytest

from icgram.automata import Dfa
from icgram.words import Alphabet


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


@pytest.fixture
def rng():
    return random.Random(20240817)
