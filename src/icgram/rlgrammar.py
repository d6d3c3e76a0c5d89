"""Right-linear grammars in the general form: rules ``A -> w B`` and
``A -> w`` with ``w`` an arbitrary terminal word (possibly empty).

The rule text format is one rule per line, ``@`` standing for the empty
word: ``S -> aa S``, ``S -> @``, ``S -> T`` (unit rule).
"""

from __future__ import annotations

from .automata import Nfa
from .errors import InvalidGrammarError, TextFormatError, at_line
from .words import (EMPTY_WORD, Alphabet, Record, Word, clean_lines,
                    fresh_prefix, word_from_text, word_to_text)


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

def _unit_closure(g: RightLinearGrammar) -> dict[str, list[str]]:
    """closure[A] lists every B that A derives by unit rules (A -> B with
    empty word), A first, in breadth-first order with each nonterminal's
    unit successors tried in declaration order, so it never depends on
    string hashing."""
    units = {(r.lhs, r.successor) for r in g.rules
             if not r.word and r.successor is not None}
    rank = {b: i for i, b in enumerate(g.nonterminals)}
    succ: dict[str, list[str]] = {a: [] for a in g.nonterminals}
    for a, b in sorted(units, key=lambda unit: rank[unit[1]]):
        succ[a].append(b)
    closure = {}
    for a in g.nonterminals:
        order, seen = [a], {a}
        for x in order:  # the list grows as it is read: a breadth-first queue
            for b in succ[x]:
                if b not in seen:
                    seen.add(b)
                    order.append(b)
        closure[a] = order
    return closure


def grammar_to_nfa(g: RightLinearGrammar) -> Nfa:
    """Compile to an epsilon-free NFA: the strict form of
    :func:`normalize_regular` read as an automaton, each rule ``A -> a B``
    a move and each rule ``A -> @`` making ``A`` accepting."""
    n = normalize_regular(g)
    moves: dict[tuple[str, str], set[str]] = {}
    for r in n.rules:
        if r.word:
            moves.setdefault((r.lhs, r.word[0]), set()).add(r.successor)
    return Nfa(frozenset(n.nonterminals), n.terminals,
               {key: frozenset(targets) for key, targets in moves.items()},
               frozenset([n.start]), frozenset(r.lhs for r in n.rules if r.erasing))


def normalize_regular(g: RightLinearGrammar) -> RightLinearGrammar:
    """Equivalent grammar in strict regular form: every rule is ``A -> a B``
    or ``A -> @`` (no unit rules, no multi-symbol words).  Each nonterminal
    takes the rules of everything it unit-derives; a word rule becomes a
    chain of fresh nonterminals, named apart from every symbol of ``g``."""
    closure = _unit_closure(g)
    prefix = fresh_prefix("_", g.nonterminals + g.terminals.symbols)
    fin = prefix + "fin"

    def chain_name(idx: int, pos: int) -> str:
        return f"{prefix}{idx}_{pos}"

    by_lhs: dict[str, list[tuple[int, Rule]]] = {a: [] for a in g.nonterminals}
    for idx, r in enumerate(g.rules):
        by_lhs[r.lhs].append((idx, r))
    new_rules: list[Rule] = []
    fresh: list[str] = []  # chain names are unique: each rule's chain is built once
    used_fin = False
    chains_done: set[int] = set()
    for a in g.nonterminals:
        for b in closure[a]:
            for idx, r in by_lhs[b]:
                if r.erasing:
                    new_rules.append(Rule(a, EMPTY_WORD, None))
                elif r.word:
                    end = r.successor if r.successor is not None else fin
                    used_fin = used_fin or r.successor is None
                    first_target = chain_name(idx, 1) if len(r.word) > 1 else end
                    new_rules.append(Rule(a, (r.word[0],), first_target))
                    if len(r.word) > 1 and idx not in chains_done:
                        chains_done.add(idx)
                        for i in range(1, len(r.word)):
                            name = chain_name(idx, i)
                            fresh.append(name)
                            target = chain_name(idx, i + 1) if i + 1 < len(r.word) else end
                            new_rules.append(Rule(name, (r.word[i],), target))
    if used_fin:
        fresh.append(fin)
        new_rules.append(Rule(fin, EMPTY_WORD, None))
    rules = tuple(dict.fromkeys(new_rules))  # dedupe, first occurrence order
    return RightLinearGrammar(g.nonterminals + tuple(fresh), g.terminals,
                              rules, g.start)


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
