"""The plain derivation engine, kept as a test oracle.

The straightforward forms of the forward step, bounded enumeration, the
inverse step and the backward membership search, all on tuple words: the
forward step runs the selection DFA from every position, enumeration is a
breadth-first closure over forward steps, the inverse step re-runs the
selection DFA for every candidate infix, and membership recurses once per
step.
``tests/test_contextual.py`` checks the engine in ``icgram.contextual``
against them, step for step and in the same order.
"""

from icgram.contextual import DerivationStep


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
