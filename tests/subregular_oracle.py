"""Plain stand-alone checks, kept as test oracles for ``icgram.subregular``.

The definite-language check is the Moore-style suffix-pair fixpoint: start
from every pair of distinct states, map the pair set through every letter
until it stops changing, and read the suffix bound off the first iteration
with no pair that mixes an accepting with a rejecting state.  The witness of
a non-definite language walks back from the first mixed pair of the
fixpoint.  ``tests/test_subregular.py`` checks the one-pass pair-graph check
against it, bound for bound and witness for witness.

The first cyclic power of a transformation stores every power until one
repeats, a walk over the whole period; the non-counting check reads the
same exponent off the first power whose image stops shrinking.

The power-separating check walks the transition monoid on its own, from the
identity, instead of resuming the walk that the non-counting check stopped;
the shared walk must give its verdict and evidence exactly.

The monotone-order search keeps the order as a set of state pairs and
closes the whole relation again at every search node, scanning all of it
for each pair it takes from the queue.  The bitset search must return the
same chain, or None, and hit its node cap at the same node.
"""

from collections import deque

from automata_oracle import access_words
from icgram import subregular
from icgram.errors import ResourceLimitError
from icgram.monoid import monoid_elements
from icgram.subregular import Evidence, Verdict
from icgram.words import word_to_text


def _mixed_pair(dm, pairs):
    """First state pair, in a fixed order, that mixes an accepting with a
    rejecting state; None if there is none."""
    for pair in sorted(pairs, key=lambda s: sorted(map(str, s))):
        p, q = pair
        if (p in dm.accepting) != (q in dm.accepting):
            return pair
    return None


def _suffix_pair_fixpoint(dm):
    """The pairs that survive arbitrarily long common suffixes, plus the
    first iteration count at which no surviving pair was mixed (None if
    that never happens)."""
    states = list(dm.states)
    pairs = {frozenset((p, q)) for i, p in enumerate(states)
             for q in states[i + 1:]}

    def step(pair_set):
        out = set()
        for pair in pair_set:
            p, q = tuple(pair)
            for a in dm.alphabet:
                tp, tq = dm.delta[(p, a)], dm.delta[(q, a)]
                if tp != tq:
                    out.add(frozenset((tp, tq)))
        return out

    current = pairs
    clean_at = 0 if _mixed_pair(dm, current) is None else None
    t = 0
    while True:
        nxt = step(current)
        if nxt == current:
            break
        current = nxt
        t += 1
        if clean_at is None and _mixed_pair(dm, current) is None:
            clean_at = t
    return current, clean_at


def _definite_bound(dm):
    """Suffix length that settles membership, or None if no bound exists."""
    current, clean_at = _suffix_pair_fixpoint(dm)
    return None if _mixed_pair(dm, current) is not None else clean_at


def _check_definite(dm):
    states = list(dm.states)
    current, clean_at = _suffix_pair_fixpoint(dm)
    bad_pair = _mixed_pair(dm, current)
    if bad_pair is None:
        return True, Evidence(
            f"membership depends only on the last {clean_at} symbols")
    # reconstruct two words with a long shared suffix but different membership
    rev = {}
    for pair in sorted(current, key=lambda s: sorted(map(str, s))):
        p, q = sorted(pair, key=str)
        for a in dm.alphabet:
            tp, tq = dm.delta[(p, a)], dm.delta[(q, a)]
            if tp != tq:
                img = frozenset((tp, tq))
                if img in current and img not in rev:
                    rev[img] = (pair, a)
    suffix = []
    cur = bad_pair
    for _ in range(len(states) ** 2 + len(states)):
        cur, a = rev[cur]
        suffix.append(a)
    z = tuple(reversed(suffix))
    acc = access_words(dm)
    p, q = sorted(cur, key=str)
    return False, Evidence(
        f"membership still differs after a shared suffix of length {len(z)}",
        (acc[p] + z, acc[q] + z))


def first_cyclic_power(t):
    """The first exponent ``k`` with ``t^k`` on the cycle of the powers
    ``t, t^2, ...``, found by storing each power until one repeats."""
    seen = {}
    cur, e = t, 1
    while cur not in seen:
        seen[cur] = e
        cur = tuple(t[x] for x in cur)
        e += 1
    return seen[cur]


def check_power_separating(dm, cap):
    """The first monoid element ``y`` (in shortlex order) whose powers
    ``y^(n+1) .. y^(2n+2)`` fall on both sides, on a walk of its own."""
    n = len(dm.states)
    q0 = dm.initial
    accepting = [q in dm.accepting for q in dm.states]
    try:
        for t, y in monoid_elements(dm, cap):
            v = t[q0]
            for _ in range(n):
                v = t[v]
            window = []
            for _ in range(n + 2):
                window.append(accepting[v])
                v = t[v]
            if any(window) and not all(window):
                break
        else:
            return Verdict.YES, Evidence(
                "high powers of every word are uniformly inside or outside")
    except ResourceLimitError as e:
        return Verdict.UNKNOWN, Evidence(
            f"monoid cap exceeded (cap {e.cap}); undecided at this cap")
    j_in = window.index(True) + n + 1
    j_out = window.index(False) + n + 1
    return Verdict.NO, Evidence(
        f"arbitrarily high powers of {word_to_text(y, dm.alphabet)} fall on "
        f"both sides (exponents {j_in} vs {j_out}, repeating)",
        (y * j_in, y * j_out))


def search_monotone_order(dm):
    """Total order on the states of ``dm`` (numbered ``0..n-1``) making every
    letter monotone, or None; node cap read from ``subregular``."""
    states = list(dm.states)
    n = len(states)
    if n == 1:
        return states
    visited = 0

    def propagate(le):
        rel = set(le)
        queue = deque(le)
        while queue:
            p, q = queue.popleft()
            if (q, p) in rel:
                return None
            fresh = []
            for row in dm.rows:
                tp, tq = row[p], row[q]
                if tp != tq and (tp, tq) not in rel:
                    fresh.append((tp, tq))
            for x, y in list(rel):
                if y == p and x != q and (x, q) not in rel:
                    fresh.append((x, q))
                if x == q and y != p and (p, y) not in rel:
                    fresh.append((p, y))
            for e in fresh:
                if e not in rel:
                    rel.add(e)
                    queue.append(e)
        for p, q in rel:
            if (q, p) in rel:
                return None
        return frozenset(rel)

    def unresolved(rel):
        for i, p in enumerate(states):
            for q in states[i + 1:]:
                if (p, q) not in rel and (q, p) not in rel:
                    return (p, q)
        return None

    def search(rel):
        nonlocal visited
        visited += 1
        cap = subregular._ORDER_SEARCH_CAP
        if visited > cap:
            raise ResourceLimitError("state-order search exceeded its cap",
                                     cap=cap, reached=visited)
        pick = unresolved(rel)
        if pick is None:
            return rel
        p, q = pick
        for cand in ((p, q), (q, p)):
            nxt = propagate(rel | {cand})
            if nxt is not None:
                result = search(nxt)
                if result is not None:
                    return result
        return None

    base = propagate(frozenset())
    result = search(base) if base is not None else None
    if result is None:
        return None
    below = {q: sum(1 for e in result if e[1] == q) for q in states}
    return sorted(states, key=lambda q: (below[q], str(q)))
