"""Regular expression syntax trees and the concrete regex notation.

Notation: ``|`` union, juxtaposition concatenation, postfix ``*``,
parentheses for grouping, ``()`` for the empty word and ``∅`` for the empty
language.  The text parser only supports single-character symbols; trees over
multi-character symbols can still be built programmatically.
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
    if isinstance(r, (Union, EmptyLang)):
        return False
    if isinstance(r, Concat):
        return all(is_union_free_syntax(p) for p in r.parts)
    if isinstance(r, Star):
        return is_union_free_syntax(r.inner)
    return True


# --- text form ---------------------------------------------------------

def format_regex(r: Regex) -> str:
    """Render a tree in the concrete notation (minimally parenthesized)."""
    return _fmt(r, 0)


def _fmt(r: Regex, level: int) -> str:
    # level: 0 union context, 1 concat context, 2 star operand
    if isinstance(r, EmptyLang):
        return "∅"
    if isinstance(r, EmptyWord):
        return "()"
    if isinstance(r, Literal):
        return r.symbol if len(r.symbol) == 1 else f"({r.symbol})"
    if isinstance(r, Star):
        return _fmt(r.inner, 2) + "*"
    if isinstance(r, Concat):
        body = "".join(_fmt(p, 1) for p in r.parts)
        return f"({body})" if level >= 2 else body
    body = "|".join(_fmt(p, 0) for p in r.parts)
    return f"({body})" if level >= 1 else body


class _RegexParser:
    def __init__(self, text: str, alphabet: Alphabet):
        self.text = text
        self.alphabet = alphabet
        self.pos = 0

    def error(self, message: str) -> TextFormatError:
        return TextFormatError(message, line=1, column=self.pos + 1)

    def peek(self) -> str | None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1
        return self.text[self.pos] if self.pos < len(self.text) else None

    def parse(self) -> Regex:
        r = self.union()
        if self.peek() is not None:
            raise self.error(f"unexpected {self.text[self.pos]!r}")
        return r

    def union(self) -> Regex:
        parts = [self.concat()]
        while self.peek() == "|":
            self.pos += 1
            parts.append(self.concat())
        return alt(parts)

    def concat(self) -> Regex:
        parts = []
        while True:
            c = self.peek()
            if c is None or c in "|)":
                break
            parts.append(self.starred())
        if not parts:
            raise self.error("empty alternative (use () for the empty word)")
        return seq(parts)

    def starred(self) -> Regex:
        r = self.atom()
        while self.peek() == "*":
            self.pos += 1
            r = Star(r)
        return r

    def atom(self) -> Regex:
        c = self.peek()
        if c is None:
            raise self.error("unexpected end of regex")
        if c == "(":
            self.pos += 1
            if self.peek() == ")":
                self.pos += 1
                return EmptyWord()
            r = self.union()
            if self.peek() != ")":
                raise self.error("expected ')'")
            self.pos += 1
            return r
        if c == "∅":
            self.pos += 1
            return EmptyLang()
        if c == "*":
            raise self.error("'*' needs an operand")
        if c not in self.alphabet:
            raise self.error(f"symbol {c!r} not in alphabet")
        self.pos += 1
        return Literal(c)


def parse_regex(text: str, alphabet: Alphabet) -> Regex:
    """Parse the concrete notation; positions in errors are 1-based columns."""
    if not alphabet.single_char:
        raise TextFormatError("regex notation requires a single-character alphabet")
    return _RegexParser(text, alphabet).parse()
