"""Right-linear grammars in the general form: rules ``A -> w B`` and
``A -> w`` with ``w`` an arbitrary terminal word (possibly empty).

A grammar runs as an automaton on its positions: ``(i, k)`` has read ``k``
letters of the word of rule ``i``, and ``None`` accepts.  A letter moves
``(i, k)`` to ``(i, k + 1)``, or, past the end of the word, to the positions
where the rule's successor starts (:func:`_entries`).

The rule text format is one rule per line, ``@`` standing for the empty
word: ``S -> aa S``, ``S -> @``, ``S -> T`` (unit rule).
"""

from __future__ import annotations

from .automata import Nfa, bfs_tree
from .errors import InvalidGrammarError, TextFormatError, at_line
from .words import (EMPTY_WORD, Alphabet, Record, Word, clean_lines,
                    word_from_text, word_to_text)


class Rule(Record):
    lhs: str
    word: Word
    successor: str | None = None

    @property
    def erasing(self) -> bool:
        return not self.word and self.successor is None


class RightLinearGrammar(Record):
    nonterminals: tuple[str, ...]
    terminals: Alphabet
    rules: tuple[Rule, ...]
    start: str

    def __post_init__(self):
        nts = set(self.nonterminals)
        if len(nts) != len(self.nonterminals):
            raise InvalidGrammarError("duplicate nonterminals")
        if not nts:
            raise InvalidGrammarError("grammar needs at least one nonterminal")
        if self.start not in nts:
            raise InvalidGrammarError(f"start symbol {self.start!r} is not a nonterminal")
        if nts & set(self.terminals.symbols):
            clash = sorted(nts & set(self.terminals.symbols))
            raise InvalidGrammarError(f"nonterminals clash with terminals: {clash}")
        for r in self.rules:
            if r.lhs not in nts:
                raise InvalidGrammarError(f"rule for unknown nonterminal {r.lhs!r}")
            if r.successor is not None and r.successor not in nts:
                raise InvalidGrammarError(f"rule references unknown nonterminal {r.successor!r}")
            for s in r.word:
                if s not in self.terminals:
                    raise InvalidGrammarError(f"rule uses foreign symbol {s!r}")


# --- compilation to an NFA ----------------------------------------------

def _entries(nonterminals: tuple[str, ...], rules: tuple[Rule, ...]) -> dict:
    """The positions each nonterminal starts at (and ``None`` at ``None``):
    ``(i, 0)`` for each word rule of a nonterminal it derives by unit rules,
    itself included, and ``None`` when one of those is erasing.  Each
    nonterminal's unit rules are walked breadth-first, once."""
    own: dict = {b: set() for b in nonterminals}
    units: dict = {}
    for i, r in enumerate(rules):
        if r.word:
            own[r.lhs].add((i, 0))
        elif r.successor is None:
            own[r.lhs].add(None)
        else:
            units.setdefault(r.lhs, []).append(r.successor)
    entries = {None: {None}, **own}
    for a in units:
        reach, _ = bfs_tree(a, lambda x: units.get(x, ()))
        entries[a] = set().union(*map(own.__getitem__, reach))
    return entries


def grammar_to_nfa(g: RightLinearGrammar) -> Nfa:
    """The position automaton of ``g``, the grammar form of the position
    construction of :func:`~icgram.automata.regex_to_nfa`: it starts at the
    start symbol's entries, and ``None`` is its only accepting state."""
    entries = _entries(g.nonterminals, g.rules)
    moves = {}
    for i, r in enumerate(g.rules):
        for k, a in enumerate(r.word):
            moves[((i, k), a)] = frozenset(
                {(i, k + 1)} if k + 1 < len(r.word) else entries[r.successor])
    return Nfa(frozenset(p for p, _ in moves) | {None}, g.terminals, moves,
               frozenset(entries[g.start]), frozenset([None]))


# --- text form ------------------------------------------------------------

def grammar_to_text(g: RightLinearGrammar) -> str:
    lines = [
        "nonterminals: " + " ".join(g.nonterminals),
        "terminals: " + " ".join(g.terminals),
        "start: " + g.start,
    ]
    for r in g.rules:
        rhs = []
        if r.word:
            rhs.append(word_to_text(r.word, g.terminals))
        if r.successor is not None:
            rhs.append(r.successor)
        if not rhs:
            rhs = ["@"]
        lines.append(f"{r.lhs} -> {' '.join(rhs)}")
    return "\n".join(lines) + "\n"


def _parse_rule_rhs(tokens: list[str], nonterminals: set[str],
                    terminals: Alphabet, line: int) -> tuple[Word, str | None]:
    successor = None
    if tokens and tokens[-1] in nonterminals:
        successor = tokens[-1]
        tokens = tokens[:-1]
    if tokens == ["@"]:
        if successor is not None:
            raise TextFormatError("'@' cannot be combined with a nonterminal", line=line)
        return EMPTY_WORD, None
    word: Word = EMPTY_WORD
    for tok in tokens:
        if tok == "@":
            raise TextFormatError("'@' must stand alone", line=line)
        with at_line(line):
            word = word + word_from_text(tok, terminals)
    return word, successor


def parse_grammar(text: str) -> RightLinearGrammar:
    return parse_grammar_lines(clean_lines(text))


def parse_grammar_lines(lines: list[tuple[int, str]]) -> RightLinearGrammar:
    """Parse from (line number, stripped text) pairs; used both directly and
    by the contextual-grammar file reader."""
    if len(lines) < 3:
        raise TextFormatError("grammar needs nonterminals/terminals/start lines",
                              line=lines[0][0] if lines else 1)
    headers = {}
    for key, (ln, text) in zip(("nonterminals", "terminals", "start"), lines[:3]):
        if not text.startswith(key + ":"):
            raise TextFormatError(f"expected '{key}:'", line=ln)
        headers[key] = (ln, text[len(key) + 1:].split())
    nts = headers["nonterminals"][1]
    if not nts:
        raise TextFormatError("empty nonterminal list", line=headers["nonterminals"][0])
    with at_line(headers["terminals"][0]):
        terminals = Alphabet(tuple(headers["terminals"][1]))
    if len(headers["start"][1]) != 1:
        raise TextFormatError("start line must name one nonterminal",
                              line=headers["start"][0])
    start = headers["start"][1][0]
    nt_set = set(nts)
    rules = []
    for ln, text in lines[3:]:
        if "->" not in text:
            raise TextFormatError("rule lines look like 'A -> rhs'", line=ln)
        lhs_text, rhs_text = text.split("->", 1)
        lhs = lhs_text.strip()
        if lhs not in nt_set:
            raise TextFormatError(f"unknown nonterminal {lhs!r}", line=ln)
        word, successor = _parse_rule_rhs(rhs_text.split(), nt_set, terminals, ln)
        rules.append(Rule(lhs, word, successor))
    with at_line(lines[0][0]):
        return RightLinearGrammar(tuple(nts), terminals, tuple(rules), start)
