"""The direct grammar compiler, kept as a test oracle.

Word rules become chains of fresh states of their own, a shared final
state ``_FIN`` ends every terminating rule, and unit rules are removed by
closure: every nonterminal inherits the first moves and the acceptance of
everything it unit-derives.
``tests/test_rlgrammar.py`` checks ``icgram.rlgrammar.grammar_to_nfa``,
which reads the automaton off ``normalize_regular``, against it.
"""

from icgram.automata import Nfa
from icgram.rlgrammar import _unit_closure

_FIN = ("$fin",)


def grammar_to_nfa(g):
    closure = _unit_closure(g)
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
