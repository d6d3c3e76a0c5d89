"""The direct grammar compiler, kept as a test oracle.

Word rules become chains of fresh states of their own, a shared final
state ``_FIN`` ends every terminating rule, and unit rules are removed by
closure: every nonterminal inherits the first moves and the acceptance of
everything it unit-derives, found by one ``bfs_words`` per nonterminal
with every unit target as a letter.  ``tests/test_rlgrammar.py`` checks
that ``icgram.rlgrammar.grammar_to_nfa``, the position automaton, accepts
the same language: the two subset automata minimize to one automaton.

``bounded_words`` lists a grammar's words up to a length by applying its
rules, with no automaton at all.  ``matches_by_listing`` is the two-stage
check that the grammar search ran on each candidate before it walked the
product of candidate and automaton: compare the words up to ``check_len``,
then confirm by equivalence of automata.
"""

from collections import deque

from icgram import rlgrammar
from icgram.automata import (Nfa, bfs_words, enumerate_regular, equivalent,
                             nfa_to_dfa)
from icgram.words import EMPTY_WORD

_FIN = ("$fin",)


def unit_closure(g):
    units = {(r.lhs, r.successor) for r in g.rules
             if not r.word and r.successor is not None}
    successors = {b for _, b in units}
    targets = tuple(b for b in g.nonterminals if b in successors)

    def step(x, b):
        return b if (x, b) in units else None

    return {a: [b for b, _ in bfs_words(a, step, targets)]
            for a in g.nonterminals}


def grammar_to_nfa(g):
    closure = unit_closure(g)
    states = set(g.nonterminals) | {_FIN}
    base = {a: {} for a in g.nonterminals}
    transitions = {}
    for idx, r in enumerate(g.rules):
        if not r.word:
            continue
        src = r.lhs
        for i, sym in enumerate(r.word):
            last = i == len(r.word) - 1
            target = (r.successor if r.successor is not None else _FIN) if last \
                else ("chain", idx, i + 1)
            if not last:
                states.add(target)
            if i == 0:
                base[r.lhs].setdefault(sym, set()).add(target)
            else:
                transitions.setdefault((src, sym), set()).add(target)
            src = target
    erasing = {a for a in g.nonterminals
               if any(r.erasing for r in g.rules if r.lhs in closure[a])}
    accepting = {_FIN} | erasing
    merged = {}
    for a in g.nonterminals:
        outs = {}
        for b in closure[a]:
            for sym, targets in base[b].items():
                outs.setdefault(sym, set()).update(targets)
        for sym, targets in outs.items():
            merged[(a, sym)] = frozenset(targets)
    for key, targets in transitions.items():
        merged[key] = frozenset(targets)
    return Nfa(frozenset(states), g.terminals, merged,
               frozenset([g.start]), frozenset(accepting))


def bounded_words(g, max_len):
    """All derivable words of length <= max_len, by direct rule application."""
    by_lhs = {a: [] for a in g.nonterminals}
    for r in g.rules:
        by_lhs[r.lhs].append(r)
    out = set()
    seen = {(EMPTY_WORD, g.start)}
    queue = deque(seen)
    while queue:
        prefix, nt = queue.popleft()
        for r in by_lhs[nt]:
            w = prefix + r.word
            if len(w) > max_len:
                continue
            if r.successor is None:
                out.add(w)
            elif (w, r.successor) not in seen:
                seen.add((w, r.successor))
                queue.append((w, r.successor))
    return out


def matches_by_listing(candidate, d, check_len):
    if bounded_words(candidate, check_len) != enumerate_regular(d, check_len):
        return False
    return equivalent(nfa_to_dfa(rlgrammar.grammar_to_nfa(candidate)), d)
