"""Regular expression syntax trees and the concrete regex notation.

Notation: ``|`` union, juxtaposition concatenation, postfix ``*``,
parentheses for grouping, ``()`` for the empty word and ``∅`` for the empty
language.  The text parser only supports single-character symbols; trees over
multi-character symbols can still be built programmatically.

The parser keeps its own stack, and every walk of a tree is a :func:`fold`
or ``repr``, which keep their own, so no depth of nesting exhausts Python's.
"""

from __future__ import annotations

from typing import Callable

from .errors import TextFormatError
from .words import Alphabet, Record, Word


class Regex:
    """Base class of all regex nodes.  They compare and hash by the text of
    ``repr``, which is written from an explicit stack."""

    __slots__ = ()

    @property
    def _values(self):
        return repr(self)

    def __repr__(self):
        """The dataclass text; ``todo`` holds nodes and closing text."""
        out, todo = [], [self]
        while todo:
            node = todo.pop()
            kind = type(node)
            if kind is str:
                out.append(node)
            elif kind is Concat or kind is Union:
                out.append(f"{kind.__name__}(parts=(")
                todo += ["))", *[x for p in reversed(node.parts)
                                 for x in (", ", p)][1:]]
            elif kind is Star:
                out.append("Star(inner=")
                todo += [")", node.inner]
            else:
                out.append(Record.__repr__(node))
        return "".join(out)


class EmptyLang(Regex, Record):
    pass


class EmptyWord(Regex, Record):
    pass


class Literal(Regex, Record):
    symbol: str

    def __post_init__(self):
        if not self.symbol:
            raise ValueError("literal symbol must be non-empty")


class Concat(Regex, Record):
    parts: tuple[Regex, ...]

    def __post_init__(self):
        if len(self.parts) < 2:
            raise ValueError("Concat needs at least two parts; use seq()")


class Union(Regex, Record):
    parts: tuple[Regex, ...]

    def __post_init__(self):
        if len(self.parts) < 2:
            raise ValueError("Union needs at least two parts; use alt()")


class Star(Regex, Record):
    inner: Regex


def _flatten(node: type, empty: Regex, parts) -> Regex:
    """The body of seq and alt: nested ``node`` parts are spliced in."""
    parts = tuple(parts)
    if not parts:
        return empty
    if len(parts) == 1:
        return parts[0]
    flat: list[Regex] = []
    for p in parts:
        flat.extend(p.parts) if isinstance(p, node) else flat.append(p)
    return node(tuple(flat))


def seq(parts) -> Regex:
    """Concatenation of any number of parts (0 -> empty word, 1 -> itself)."""
    return _flatten(Concat, EmptyWord(), parts)


def alt(parts) -> Regex:
    """Union of any number of parts (0 -> empty language, 1 -> itself)."""
    return _flatten(Union, EmptyLang(), parts)


def word_regex(w: Word) -> Regex:
    return seq([Literal(s) for s in w])


def fold(r: Regex, combine: Callable[[Regex, list], object]):
    """``combine(node, values)`` at the root, ``values`` being what it gave at
    the children, left to right.  An inner node goes back on the stack as
    ``(node, number of children)`` under its children, leftmost on top."""
    values, todo = [], [r]
    while todo:
        node = todo.pop()
        kind = type(node)
        if kind is tuple:  # the children are done: their values end the list
            node, n = node
            values[-n:] = [combine(node, values[-n:])]
        elif kind is Concat or kind is Union:
            todo += [(node, len(node.parts)), *reversed(node.parts)]
        elif kind is Star:
            todo += [(node, 1), node.inner]
        else:
            values.append(combine(node, []))
    return values[0]


def is_union_free_syntax(r: Regex) -> bool:
    """True when the tree uses no union and no empty-language node."""
    if isinstance(r, (Union, EmptyLang)):  # answered without a walk
        return False
    return fold(r, lambda node, kids: all(kids) and
                not isinstance(node, (Union, EmptyLang)))


# --- text form ---------------------------------------------------------

def format_regex(r: Regex) -> str:
    """Render a tree in the concrete notation (minimally parenthesized)."""
    return fold(r, _text)[0]


def _text(node: Regex, kids: list[tuple[str, int]]) -> tuple[str, int]:
    """The text of ``node`` and how tightly it binds: 0 a union, 1 a
    concatenation, 2 an atom or a star, which is what a star's inner needs."""
    if isinstance(node, Literal):
        return node.symbol if len(node.symbol) == 1 else f"({node.symbol})", 2
    if isinstance(node, Concat):
        return "".join([t if b else f"({t})" for t, b in kids]), 1
    if isinstance(node, Union):
        return "|".join([t for t, _ in kids]), 0
    if isinstance(node, Star):
        (text, binds), = kids
        return (text if binds == 2 else f"({text})") + "*", 2
    return ("∅" if isinstance(node, EmptyLang) else "()"), 2


def parse_regex(text: str, alphabet: Alphabet) -> Regex:
    """Parse the concrete notation; positions in errors are 1-based columns.

    One loop reads the text.  ``alts`` and ``parts`` are the alternatives so
    far and the parts of the current one in the innermost open group; ``(``
    saves them on ``groups`` and ``)`` restores them."""
    if not alphabet.single_char:
        raise TextFormatError("regex notation requires a single-character alphabet")
    groups: list[tuple[list[Regex], list[Regex]]] = []
    alts: list[Regex] = []
    parts: list[Regex] = []
    for pos, c in enumerate([*text, ""]):
        error = None
        if c in "|)":  # or "", the end of the text
            if not parts and (c != ")" or alts or not groups):
                error = "empty alternative (use () for the empty word)"
            elif c == "|":
                alts.append(seq(parts))
                parts = []
            else:
                r = alt(alts + [seq(parts)]) if parts else EmptyWord()
                if not c and not groups:
                    return r
                if not c:
                    error = "expected ')'"
                elif not groups:
                    error = "unexpected ')'"
                else:
                    alts, parts = groups.pop()
                    parts.append(r)
        elif c in " \t":
            continue
        elif c == "(":
            groups.append((alts, parts))
            alts, parts = [], []
        elif c == "*":
            if parts:
                parts[-1] = Star(parts[-1])
            else:
                error = "'*' needs an operand"
        elif c == "∅":
            parts.append(EmptyLang())
        elif c in alphabet:
            parts.append(Literal(c))
        else:
            error = f"symbol {c!r} not in alphabet"
        if error:
            raise TextFormatError(error, line=1, column=pos + 1)
