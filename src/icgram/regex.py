"""Regular expression syntax trees and the concrete regex notation.

Notation: ``|`` union, juxtaposition concatenation, postfix ``*``,
parentheses for grouping, ``()`` for the empty word and ``∅`` for the empty
language.  The text parser only supports single-character symbols; trees over
multi-character symbols can still be built programmatically.

The parser and ``is_union_free_syntax`` keep their own stacks, so no depth
of nesting exhausts Python's; only the printer recurses, once per level of
concatenation or union (a run of stars is one loop).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import TextFormatError
from .words import Alphabet, Word


class Regex:
    """Base class of all regex nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class EmptyLang(Regex):
    pass


@dataclass(frozen=True)
class EmptyWord(Regex):
    pass


@dataclass(frozen=True)
class Literal(Regex):
    symbol: str

    def __post_init__(self):
        if not self.symbol:
            raise ValueError("literal symbol must be non-empty")


@dataclass(frozen=True)
class Concat(Regex):
    parts: tuple[Regex, ...]

    def __post_init__(self):
        if len(self.parts) < 2:
            raise ValueError("Concat needs at least two parts; use seq()")


@dataclass(frozen=True)
class Union(Regex):
    parts: tuple[Regex, ...]

    def __post_init__(self):
        if len(self.parts) < 2:
            raise ValueError("Union needs at least two parts; use alt()")


@dataclass(frozen=True)
class Star(Regex):
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


def is_union_free_syntax(r: Regex) -> bool:
    """True when the tree uses no union and no empty-language node."""
    if isinstance(r, (Union, EmptyLang)):  # answered without a worklist
        return False
    todo = [r]
    while todo:
        node = todo.pop()
        if isinstance(node, (Union, EmptyLang)):
            return False
        if isinstance(node, Concat):
            todo.extend(node.parts)
        elif isinstance(node, Star):
            todo.append(node.inner)
    return True


# --- text form ---------------------------------------------------------

def format_regex(r: Regex) -> str:
    """Render a tree in the concrete notation (minimally parenthesized)."""
    return _fmt(r, 0)


def _fmt(r: Regex, level: int) -> str:
    # level: 0 union context, 1 concat context, 2 star operand
    stars = 0
    while isinstance(r, Star):
        r, level, stars = r.inner, 2, stars + 1
    if isinstance(r, Literal):
        text = r.symbol if len(r.symbol) == 1 else f"({r.symbol})"
    elif isinstance(r, Concat):
        text = "".join(_fmt(p, 1) for p in r.parts)
        text = f"({text})" if level >= 2 else text
    elif isinstance(r, Union):
        text = "|".join(_fmt(p, 0) for p in r.parts)
        text = f"({text})" if level >= 1 else text
    else:
        text = "∅" if isinstance(r, EmptyLang) else "()"
    return text + "*" * stars


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
