"""Transition monoids of complete DFAs.

Each element is the state transformation of some word, stored like the
letter rows of :attr:`Dfa.rows` that generate it: a tuple ``t`` with
``t[i] = index of the state reached from state i``, composed only by
:func:`~icgram.automata.compose`.
:func:`monoid_elements` walks the monoid breadth-first, one element at a
time, extending each element by the letters in alphabet order; every
element therefore comes out paired with the shortlex-least word inducing
it, and the elements come out in the shortlex order of those words.
The NC and PS deciders share one walk per minimal DFA: NC stops at its
first counter instead of building the whole monoid, and PS resumes there.
"""

from __future__ import annotations

from typing import Iterator

from .automata import Dfa, bfs_words, compose
from .errors import ResourceLimitError
from .families import DEFAULT_MONOID_CAP
from .words import Record, Word

Transformation = tuple[int, ...]


def monoid_elements(d: Dfa, cap: int = DEFAULT_MONOID_CAP
                    ) -> Iterator[tuple[Transformation, Word]]:
    """Yield ``(transformation, shortlex-least word)`` for every element,
    identity first, in the shortlex order of the words.

    Raises :class:`ResourceLimitError` in place of yielding element
    ``cap + 1``, so no element beyond the cap is ever seen by the caller.
    """
    gen = dict(zip(d.alphabet, d.rows))
    identity = tuple(range(len(d.states)))
    # the transformation of w . a is that of w, then a's row
    walk = bfs_words(identity, lambda t, a: compose(t, gen[a]), d.alphabet)
    for i, element in enumerate(walk):
        if i == cap:
            raise ResourceLimitError(
                f"transition monoid exceeds cap of {cap} elements",
                cap=cap, reached=cap + 1)
        yield element


class TransitionMonoid(Record):
    """The whole walk of :func:`monoid_elements`: each element, aligned with
    its shortlex-least word."""

    elements: tuple[Transformation, ...]
    words: tuple[Word, ...]

    @property
    def size(self) -> int:
        return len(self.elements)


def transition_monoid(d: Dfa, cap: int = DEFAULT_MONOID_CAP) -> TransitionMonoid:
    """Transition monoid of ``d`` (identity included as the image of the
    empty word)."""
    elements, words = zip(*monoid_elements(d, cap))
    return TransitionMonoid(elements, words)
