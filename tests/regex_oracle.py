"""Regex oracles: the naive enumeration, the three-pass compiler, and the
recursive parser, union-free check and printer.

``enumerate_regex`` reads the words of a regex straight off its syntax
tree, by structural recursion, with no automaton involved.
``tests/test_automata.py`` and ``tests/test_regex.py`` check the regex →
NFA → DFA pipeline against it.

``regex_to_nfa`` is the position construction as it was before it read the
tree once: it collects the literals to check the alphabet, pushes ∅ out of
the tree (``simplify_empty``), and only then walks it.  ``tests/test_regex.py``
checks that the one-walk compiler builds the same NFA on trees without ∅
and the same minimal DFA on every tree.

``parse_regex``, ``is_union_free_syntax`` and ``format_regex`` are the
recursive versions that the package replaced with one loop and with folds
of the tree: the parser spent four Python frames per level of nesting, and
the printer one per level of concatenation or union.
``tests/test_regex.py`` checks that both versions agree on seeded strings
and trees.
"""

from icgram.automata import Nfa, State
from icgram.errors import AlphabetMismatchError, TextFormatError
from icgram.regex import (Concat, EmptyLang, EmptyWord, Literal, Regex, Star,
                          Union, alt, seq)
from icgram.words import EMPTY_WORD, Alphabet


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


def literal_symbols(r: Regex) -> frozenset[str]:
    if isinstance(r, Literal):
        return frozenset([r.symbol])
    if isinstance(r, (Concat, Union)):
        out: frozenset[str] = frozenset()
        for p in r.parts:
            out |= literal_symbols(p)
        return out
    if isinstance(r, Star):
        return literal_symbols(r.inner)
    return frozenset()


def simplify_empty(r: Regex) -> Regex:
    """Propagate the empty language out of a tree.

    The result either is the single node ``EmptyLang()`` or contains no
    ``EmptyLang`` node at all; the denoted language is unchanged.  The
    oracle's position construction relies on this.
    """
    if isinstance(r, Concat):
        parts = [simplify_empty(p) for p in r.parts]
        if any(isinstance(p, EmptyLang) for p in parts):
            return EmptyLang()
        return seq([p for p in parts if not isinstance(p, EmptyWord)])
    if isinstance(r, Union):
        parts = [simplify_empty(p) for p in r.parts]
        parts = [p for p in parts if not isinstance(p, EmptyLang)]
        return alt(parts)
    if isinstance(r, Star):
        inner = simplify_empty(r.inner)
        if isinstance(inner, (EmptyLang, EmptyWord)):
            return EmptyWord()
        return Star(inner)
    return r


def regex_to_nfa(r: Regex, alphabet: Alphabet) -> Nfa:
    """Position construction on the ∅-free normal form of ``r`` (one state
    per literal occurrence, plus a start state)."""
    for s in literal_symbols(r):
        if s not in alphabet:
            raise AlphabetMismatchError(f"regex literal {s!r} not in alphabet")
    r = simplify_empty(r)
    if isinstance(r, EmptyLang):
        return Nfa(frozenset(), alphabet, {}, frozenset(), frozenset())

    symbol_of: dict[int, str] = {}
    follow: dict[int, set[int]] = {}

    def walk(node: Regex) -> tuple[bool, list[int], list[int]]:
        # returns (nullable, first positions, last positions)
        if isinstance(node, EmptyWord):
            return True, [], []
        if isinstance(node, Literal):
            p = len(symbol_of) + 1
            symbol_of[p] = node.symbol
            follow[p] = set()
            return False, [p], [p]
        if isinstance(node, Star):
            nullable, first, last = walk(node.inner)
            for x in last:
                follow[x].update(first)
            return True, first, last
        if isinstance(node, Union):
            nullable, first, last = False, [], []
            for part in node.parts:
                n, f, l = walk(part)
                nullable, first, last = nullable or n, first + f, last + l
            return nullable, first, last
        assert isinstance(node, Concat)
        nullable, first, last = True, [], []
        for part in node.parts:
            n, f, l = walk(part)
            for x in last:
                follow[x].update(f)
            if nullable:
                first = first + f
            if n:
                last = last + l
            else:
                last = l
            nullable = nullable and n
        return nullable, first, last

    nullable, first, last = walk(r)
    start = 0
    states = frozenset([start]) | frozenset(symbol_of)
    transitions: dict[tuple[State, str], frozenset] = {}
    succ: dict[tuple[State, str], set] = {}
    for p in first:
        succ.setdefault((start, symbol_of[p]), set()).add(p)
    for q, targets in follow.items():
        for p in targets:
            succ.setdefault((q, symbol_of[p]), set()).add(p)
    for key, val in succ.items():
        transitions[key] = frozenset(val)
    accepting = frozenset(last) | (frozenset([start]) if nullable else frozenset())
    return Nfa(states, alphabet, transitions, frozenset([start]), accepting)


def is_union_free_syntax(r: Regex) -> bool:
    """True when the tree uses no union and no empty-language node."""
    if isinstance(r, (Union, EmptyLang)):
        return False
    if isinstance(r, Concat):
        return all(is_union_free_syntax(p) for p in r.parts)
    if isinstance(r, Star):
        return is_union_free_syntax(r.inner)
    return True


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
