"""Automata the tests build or check against, outside the package.

The plain minimization is Moore partition refinement on state-keyed dicts:
the reachable states are found by a breadth-first search over the input's
own states, each state's block is looked up through ``delta`` on every
round, and the blocks are renumbered breadth-first at the end.
``tests/test_automata.py`` checks ``icgram.automata.minimize``, which
refines over the integer letter rows of ``Dfa.rows``, against it.

The searches on state names are the package's before it moved to state
positions: ``bfs_words`` builds the word of every node it reaches, steps
call ``(state, symbol)``-keyed ``delta`` lookups, and a product node is a
tuple of two states.  ``_explore`` numbers the part of a step function
reachable from a node ``0..n-1`` in discovery order, ``_pair_word``,
``distinguishing_suffix`` and ``access_words`` are the product,
distinguishing-suffix and access-word searches, and
``_distance_to_accepting`` maps each state that can still accept to its
distance.  ``tests/test_automata.py`` checks ``icgram.automata.bfs_tree``
and the searches built on it against them.

The builders make the one-state universal and empty automata and the trie
acceptor of a finite word set; ``inclusion_witness`` reads a shortest word
of L(d1) \\ L(d2) off the pair search.
"""

from collections import deque

from icgram.automata import Dfa, _check_same_alphabet
from icgram.words import EMPTY_WORD


def bfs_words(start, step, alphabet):
    """Yield ``(node, word)`` for every node reachable from ``start``, in
    breadth-first discovery order; each word is the shortlex-least path to
    its node.  ``step(node, a)`` returns the next node, or ``None`` for no
    move."""
    letters = tuple(alphabet)
    words = {start: EMPTY_WORD}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        w = words[node]
        yield node, w
        for a in letters:
            t = step(node, a)
            if t is not None and t not in words:
                words[t] = w + (a,)
                queue.append(t)


def _explore(alphabet, start, step, is_accepting):
    letters = tuple(alphabet)
    ids = {start: 0}
    queue = deque([start])
    delta = {}
    accepting = set()
    while queue:
        node = queue.popleft()
        i = ids[node]
        if is_accepting(node):
            accepting.add(i)
        for a in letters:
            t = step(node, a)
            if t not in ids:
                ids[t] = len(ids)
                queue.append(t)
            delta[(i, a)] = ids[t]
    return Dfa(tuple(range(len(ids))), alphabet, delta, 0, frozenset(accepting))


_BOOL_OPS = {
    "union": lambda x, y: x or y,
    "intersection": lambda x, y: x and y,
    "difference": lambda x, y: x and not y,
    "symmetric_difference": lambda x, y: x != y,
}


def _pair_word(d1, p, d2, q, op):
    """Shortlex-least word on which ``_BOOL_OPS[op]`` holds of its
    acceptance from state ``p`` in ``d1`` and state ``q`` in ``d2``."""
    fn = _BOOL_OPS[op]
    step = lambda pair, a: (d1.delta[(pair[0], a)], d2.delta[(pair[1], a)])
    for (x, y), w in bfs_words((p, q), step, d1.alphabet):
        if fn(x in d1.accepting, y in d2.accepting):
            return w
    return None


def distinguishing_suffix(d, p, q):
    """Shortest word accepted from exactly one of the states ``p`` and ``q``."""
    return _pair_word(d, p, d, q, "symmetric_difference")


def access_words(d):
    return dict(bfs_words(d.initial, lambda q, a: d.delta[(q, a)], d.alphabet))


def _distance_to_accepting(d):
    dist = {q: 0 for q in d.accepting}
    queue = deque(d.accepting)
    back = {q: [] for q in d.states}
    for (q, a), t in d.delta.items():
        back[t].append(q)
    while queue:
        t = queue.popleft()
        for q in back[t]:
            if q not in dist:
                dist[q] = dist[t] + 1
                queue.append(q)
    return dist


def minimize(d):
    reach = list(access_words(d))
    block = {}
    for q in reach:
        block[q] = 0 if q in d.accepting else 1
    while True:
        signatures = {}
        new_block = {}
        for q in reach:
            sig = (block[q],) + tuple(block[d.delta[(q, a)]] for a in d.alphabet)
            if sig not in signatures:
                signatures[sig] = len(signatures)
            new_block[q] = signatures[sig]
        if len(signatures) == len(set(block.values())):
            break
        block = new_block
    rep = {}
    for q in reach:
        rep.setdefault(block[q], q)
    return _explore(d.alphabet, block[d.initial],
                    lambda b, a: block[d.delta[(rep[b], a)]],
                    lambda b: rep[b] in d.accepting)


def universal_dfa(alphabet):
    delta = {(0, a): 0 for a in alphabet}
    return Dfa((0,), alphabet, delta, 0, frozenset([0]))


def empty_dfa(alphabet):
    delta = {(0, a): 0 for a in alphabet}
    return Dfa((0,), alphabet, delta, 0, frozenset())


def word_set_dfa(words, alphabet):
    """Trie acceptor (plus sink) for a finite set of words."""
    words = list(words)
    for w in words:
        alphabet.check_word(w)
    prefixes = {EMPTY_WORD: 0}
    for w in sorted(words):
        for i in range(1, len(w) + 1):
            if w[:i] not in prefixes:
                prefixes[w[:i]] = len(prefixes)
    sink = len(prefixes)
    delta = {}
    for p, i in prefixes.items():
        for a in alphabet:
            delta[(i, a)] = prefixes.get(p + (a,), sink)
    for a in alphabet:
        delta[(sink, a)] = sink
    accepting = frozenset(prefixes[w] for w in words)
    return Dfa(tuple(range(sink + 1)), alphabet, delta, 0, accepting)


def inclusion_witness(d1, d2):
    """Shortest word in L(d1) \\ L(d2), or None when L(d1) is a subset."""
    _check_same_alphabet(d1, d2)
    return _pair_word(d1, d1.initial, d2, d2.initial, "difference")
