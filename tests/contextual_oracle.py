"""The plain derivation engine, kept as a test oracle.

The straightforward forms of the forward step, bounded enumeration, the
inverse step and the backward membership search, all on tuple words: the
forward step runs the selection DFA from every position, enumeration is a
breadth-first closure over forward steps, the inverse step re-runs the
selection DFA for every candidate infix, and membership recurses once per
step.
``tests/test_contextual.py`` checks the engine in ``icgram.contextual``
against them, step for step and in the same order.

:func:`compile_pair` is the engine's compiled form of one selection pair,
built on the selection DFA as given, which need not be minimal.
:func:`_derivation` is the engine's backward search as it was when it kept
every explored word; the engine's search keeps only the failed ones, and
must find the same chains and stop at the same count.
"""

import re

from automata_oracle import _distance_to_accepting, bfs_words, distinguishing_suffix
from icgram import contextual as engine
from icgram.contextual import DerivationStep
from icgram.errors import ResourceLimitError


def compile_pair(c, pair):
    """``(rows, acc, starts, contexts, slides)`` for ``pair`` under the
    compiled grammar ``c``: a breadth-first walk numbers the live states
    (those that can still accept) reachable from the initial one, and a
    slide is a code to a state that no suffix tells apart from the initial
    one."""
    d = pair.dfa
    live = _distance_to_accepting(d)
    step = lambda q, a: t if (t := d.delta[(q, a)]) in live else None
    order = ([q for q, _ in bfs_words(d.initial, step, d.alphabet)]
             if d.initial in live else [])
    number = {q: k for k, q in enumerate(order)}
    rows = tuple({c.code[a]: number[t] for a in d.alphabet
                  if (t := step(q, a)) is not None} for q in order)
    acc = tuple(q in d.accepting for q in order)
    starts = None
    if rows and 0 < len(rows[0]) < len(c.code):
        codes = "".join(map(re.escape, rows[0]))
        starts = re.compile(f"[{codes}]").finditer
    contexts = tuple((ctx, c.encode(ctx.left), c.encode(ctx.right), ctx.weight)
                     for ctx in pair.contexts)
    slides = tuple(c.code[a] for a in d.alphabet if (t := step(d.initial, a))
                   is not None and distinguishing_suffix(d, d.initial, t) is None)
    return rows, acc, starts, contexts, slides


def _steps_unchecked(g, w):
    """Forward steps in the order (pair, infix start, infix end, context)."""
    n = len(w)
    for pair_index, pair in enumerate(g.pairs):
        declared = pair.declared_alphabet
        dfa = pair.dfa
        for i in range(n + 1):
            q = dfa.initial
            j = i
            while True:
                if q in dfa.accepting:
                    x1, x2, x3 = w[:i], w[i:j], w[j:]
                    for ctx in pair.contexts:
                        yield DerivationStep(
                            w, x1, x2, x3, pair_index, ctx,
                            x1 + ctx.left + x2 + ctx.right + x3)
                if j >= n or w[j] not in declared:
                    break
                q = dfa.delta[(q, w[j])]
                j += 1


def _enumerate_plain(g, max_len):
    """Every derivable word of length <= max_len, breadth-first."""
    seen = {w for w in g.axioms if len(w) <= max_len}
    frontier = list(seen)
    while frontier:
        nxt = []
        for w in frontier:
            for step in _steps_unchecked(g, w):
                t = step.target
                if len(t) <= max_len and t not in seen:
                    seen.add(t)
                    nxt.append(t)
        frontier = nxt
    return seen


def _predecessor_steps(g, w):
    """Inverse steps as (predecessor, forward step), in the order (pair,
    context, infix start, infix end)."""
    n = len(w)
    for pair_index, pair in enumerate(g.pairs):
        for ctx in pair.contexts:
            u, v = ctx.left, ctx.right
            lu, lv = len(u), len(v)
            for i in range(n - lu - lv + 1):
                if w[i:i + lu] != u:
                    continue
                for k in range(i + lu, n - lv + 1):
                    if w[k:k + lv] != v:
                        continue
                    x1, x2, x3 = w[:i], w[i + lu:k], w[k + lv:]
                    if pair.selects(x2):
                        pred = x1 + x2 + x3
                        yield pred, DerivationStep(pred, x1, x2, x3,
                                                   pair_index, ctx, w)


def _member_rec(g, w, memo):
    """A forward derivation of ``w`` from an axiom, or None."""
    if w in memo:
        return memo[w]
    memo[w] = None  # provisional: cuts off re-exploration of this word
    if w in g.axioms:
        memo[w] = ()
        return memo[w]
    for pred, step in _predecessor_steps(g, w):
        sub = _member_rec(g, pred, memo)
        if sub is not None:
            memo[w] = sub + (step,)
            return memo[w]
    return None


def _derivation(g, w, frontier_cap):
    """The inverse steps from ``w`` back to an axiom, or None: after the
    engine's residue check, depth-first over the engine's inverse step
    (checked against :func:`_predecessor_steps` above) with a stack of
    ``(step, generator)`` pairs, keeping every explored word in ``seen``;
    more than ``frontier_cap`` of them raise :class:`ResourceLimitError`."""
    c = g._compiled
    axioms = c.axioms
    s = c.encode(w)
    if s in axioms:
        return []
    if c.residue(s) not in c.residues:
        return None
    seen = {s}
    stack = [(None, engine._predecessor_steps(c, s))]
    while stack:
        for step in stack[-1][1]:
            p = step[0]
            if p in axioms:
                return [entry for entry, _ in stack[1:]] + [step]
            if p not in seen:
                seen.add(p)
                if len(seen) > frontier_cap:
                    raise ResourceLimitError(
                        f"membership search exceeded {frontier_cap} words",
                        cap=frontier_cap, reached=len(seen))
                stack.append((step, engine._predecessor_steps(c, p)))
                break
        else:
            stack.pop()
    return None
