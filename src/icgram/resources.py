"""Resource measures of regular languages: minimal state count of a complete
DFA, and bounded searches for grammars with few nonterminals or few rules.

State counts are exact (minimization).  Grammar measures are decided by
exhaustive search over a capped candidate space, each candidate's grammar
positions walked once against the automaton; a hit is the minimum within that
space and comes with the found grammar as a certificate, a miss yields an
interval whose upper end is certified by the canonical automaton grammar.
"""

from __future__ import annotations

from itertools import combinations, product
from math import comb

from .automata import Dfa, bfs_words, minimize
from .families import SearchCaps
from .rlgrammar import RightLinearGrammar, Rule, _entries
from .words import EMPTY_WORD, Alphabet, Record, fresh_prefix

KINDS = ("states", "nonterminals", "rules")


class ResourceMeasure(Record):
    """Result of one resource measurement.

    The true value lies in [lower, upper]; it is known, and ``exact``,
    when lower == upper.  The certificate (a grammar, or the minimal DFA for
    state counts) always realizes ``upper``.
    """

    kind: str
    lower: int
    upper: int
    certificate: object
    note: str = ""

    @property
    def exact(self) -> bool:
        return self.lower == self.upper


def count_resources(g: RightLinearGrammar) -> tuple[int, int]:
    """(nonterminal count, rule count) of a grammar as written; an erasing
    rule counts like any other rule."""
    return len(g.nonterminals), len(g.rules)


def dfa_to_grammar(d: Dfa) -> RightLinearGrammar:
    """Right-linear grammar read off the minimal automaton of ``d`` (one
    nonterminal per state of it); certifies the fallback upper bounds."""
    dm = minimize(d)
    prefix = fresh_prefix("Q", dm.alphabet)
    name = {q: f"{prefix}{q}" for q in dm.states}
    rules = []
    for q in dm.states:
        for a in dm.alphabet:
            rules.append(Rule(name[q], (a,), name[dm.delta[(q, a)]]))
        if q in dm.accepting:
            rules.append(Rule(name[q], EMPTY_WORD, None))
    return RightLinearGrammar(tuple(name[q] for q in dm.states), dm.alphabet,
                              tuple(rules), name[dm.initial])


def _rule_universe(nts: tuple[str, ...], terminals: Alphabet,
                   max_rhs_len: int) -> list[Rule]:
    words = [EMPTY_WORD]
    for k in range(1, max_rhs_len + 1):
        words.extend(product(terminals.symbols, repeat=k))
    universe = []
    for lhs in nts:
        for w in words:
            universe.append(Rule(lhs, tuple(w), None))
            for succ in nts:
                if not w and succ == lhs:
                    continue  # a self-unit rule can never help
                universe.append(Rule(lhs, tuple(w), succ))
    return universe


def _matches(nonterminals: tuple[str, ...], rules: tuple[Rule, ...],
             d: Dfa) -> bool:
    """Does the grammar of ``rules``, started at the first of
    ``nonterminals``, generate L(d)?  A breadth-first walk of the product of
    ``d`` with sets of grammar positions (``rlgrammar``), built as it goes
    and stopped at the first node where one accepts and the other does not."""
    enter = _entries(nonterminals, rules)

    def step(node, a):
        positions, q = node
        out = set()
        for i, k in filter(None, positions):
            w = rules[i].word
            if w[k] == a:
                out |= enter[rules[i].successor] if k + 1 == len(w) else {(i, k + 1)}
        return frozenset(out), d.delta[(q, a)]

    start = frozenset(enter[nonterminals[0]]), d.initial
    return all((None in positions) == (q in d.accepting)
               for (positions, q), _ in bfs_words(start, step, d.alphabet))


def bounded_min_grammar(d: Dfa, kind: str,
                        caps: SearchCaps = SearchCaps()) -> ResourceMeasure:
    """Smallest grammar for ``L(d)`` by ``kind`` within the capped space.

    ``kind`` is "nonterminals" or "rules".  The search enumerates candidate
    grammars in increasing order of the measured quantity and checks each
    for equivalence with ``d`` (:func:`_matches`); the first hit is returned
    as an exact measure.  When the space is exhausted (or would exceed
    ``max_candidates``) the result is the interval [1, fallback] instead
    ([0, fallback] rules for the empty language), or exactly one
    nonterminal when the fallback has one.
    """
    if kind not in ("nonterminals", "rules"):
        raise ValueError(f"kind must be 'nonterminals' or 'rules', got {kind!r}")
    fallback = dfa_to_grammar(d)
    prefix = fresh_prefix("N", d.alphabet)
    nt_names = tuple(f"{prefix}{i}" for i in range(1, caps.max_nonterminals + 1))
    budget = caps.max_candidates
    capped = False

    if kind == "nonterminals":
        levels = [(v, r) for v in range(1, caps.max_nonterminals + 1)
                  for r in range(1, caps.max_rules + 1)]
    else:  # no level when no nonterminal may start a grammar
        levels = [(caps.max_nonterminals, r) for r in range(caps.max_rules + 1)
                  if caps.max_nonterminals]

    # the size of a level's _rule_universe, counted before building it:
    # each left side takes every word up to max_rhs_len alone and with every
    # successor, except the empty self-unit rule
    n_words = sum(len(d.alphabet) ** k for k in range(caps.max_rhs_len + 1))
    for v, r in levels:
        n_level = comb(v * (n_words * (1 + v) - 1), r)
        if n_level > budget:
            capped = True
            break
        budget -= n_level
        nts = nt_names[:v]
        # level 0 has one candidate, the grammar with no rules
        universe = _rule_universe(nts, d.alphabet, caps.max_rhs_len) if r else []
        for combo in combinations(universe, r):
            if _matches(nts, combo, d):
                value = v if kind == "nonterminals" else r
                return ResourceMeasure(
                    kind, value, value,
                    RightLinearGrammar(nts, d.alphabet, combo, nts[0]),
                    f"exhaustive search ({caps.describe()})")

    upper = count_resources(fallback)[0 if kind == "nonterminals" else 1]
    if kind == "nonterminals" and upper == 1:  # every grammar has a start symbol
        return ResourceMeasure(kind, 1, 1, fallback, "the canonical "
                               "automaton grammar has one nonterminal")
    reason = ("candidate budget exhausted" if capped
              else "no certificate within caps")
    # a fallback without an erasing rule generates ∅, which needs no rule
    lower = 0 if kind == "rules" and not any(r.erasing for r in fallback.rules) else 1
    return ResourceMeasure(kind, lower, upper, fallback,
                           f"{reason} ({caps.describe()}); upper bound from "
                           "the canonical automaton grammar")


def measure(d: Dfa, kind: str, caps: SearchCaps = SearchCaps()) -> ResourceMeasure:
    """One-stop measurement used by the command line."""
    if kind == "states":
        dm = minimize(d)
        return ResourceMeasure("states", len(dm.states), len(dm.states), dm,
                               "minimal complete automaton")
    return bounded_min_grammar(d, kind, caps)
